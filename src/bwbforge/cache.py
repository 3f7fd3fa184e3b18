"""The one memo store of the engine, with an optional on-disk layer.

Every memo whose key holds a user weight lives here, in a plain dict per
``(namespace, owner)`` from :func:`table`: per context ``dim`` (Weyl
dimensions), ``climb`` (packed rho-shifted weight with zero omitted
coordinates -> packed dominant representative, negated for an odd climb,
or None on a wall) and ``levi_tensor`` (``repcalc.LeviTensor``: rows
nested per module), per space ``bwb`` (packed rho-shifted Levi highest
weight -> degree and dimension of its cohomology, or None on a wall, read
off its coroot pairings by ``repcalc.bott_kernel``).
``lru_cache`` is kept only on functions of root data.  :func:`stats`
counts the entries of every table, :func:`namespace_entries` per
namespace, and :func:`clear` empties them all.

:func:`memo` keeps its results in ``table(namespace)``, keyed by the key
object: ``char`` (Levi and group characters) and ``wedge_decomps`` (per
bundle F, ``koszul.read_plan``: the packed pages of the wedge powers of the
module summands of F^*, the twists of its lines and the hulls the E_1
read range-checks).  The ``wedge_chars`` namespace fills only when
``koszul.wedge_dual_chars`` is called, which no engine route does.  When a
cache directory is attached (:func:`set_cache_dir`, which the CLI's
``--cache`` calls; no environment variable is read), a miss is also
pickled to one file, named by a sha256 of the key and stamped with a hash
of the engine's source files, so an entry written by other code is never
read.  Writers go through a temporary file of their own and an atomic
rename; an entry that cannot be read back is counted in
``stats()["corrupt"]`` and recomputed; ``clear(disk=True)`` also removes
the temporary files that killed writers left behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

ENGINE_VERSION = "1.0.0"

_tables: Dict[Tuple[str, Any], dict] = {}
_dir: Optional[str] = None
_stats = {"hits": 0, "misses": 0, "disk_hits": 0, "corrupt": 0}
_MISSING = object()


def set_cache_dir(path: Optional[str]) -> None:
    """Attach (or detach with None) the persistent cache directory."""
    global _dir
    if path:
        os.makedirs(path, exist_ok=True)
    _dir = path


def table(namespace: str, owner: Any = None) -> dict:
    """The in-memory memo of ``namespace`` for ``owner`` (a context, a space).

    Callers fetch it once per call and fill a miss themselves; looking it
    up per key would hash the owner on every key.
    """
    return _tables.setdefault((namespace, owner), {})


@lru_cache(maxsize=None)
def source_stamp() -> str:
    """sha256 over the engine's source files; computed on first disk access."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def _key(namespace: str, key_obj: Any) -> str:
    raw = f"{source_stamp()}|{namespace}|{key_obj!r}"
    return hashlib.sha256(raw.encode()).hexdigest()


def _read(path: str) -> Any:
    """The value stored at ``path``, or _MISSING when there is none to trust."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        return _MISSING
    except Exception:  # unpickling garbage can raise nearly anything
        payload = None
    if isinstance(payload, dict) and payload.get("stamp") == source_stamp():
        return payload["value"]
    _stats["corrupt"] += 1
    return _MISSING


def _write(directory: str, key: str, value: Any) -> None:
    """Persist through a temporary file of this writer's own, then rename."""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=key, suffix=".tmp")
    except OSError:
        return  # persistence is best-effort
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump({"stamp": source_stamp(), "value": value}, fh)
        os.replace(tmp, os.path.join(directory, key + ".pkl"))
    except (OSError, pickle.PicklingError):
        try:
            os.remove(tmp)
        except OSError:
            pass


def memo(namespace: str, key_obj: Any, compute: Callable[[], Any]) -> Any:
    mem = table(namespace)
    value = mem.get(key_obj, _MISSING)
    if value is not _MISSING:
        _stats["hits"] += 1
        return value
    if _dir:
        key = _key(namespace, key_obj)
        value = _read(os.path.join(_dir, key + ".pkl"))
        if value is not _MISSING:
            mem[key_obj] = value
            _stats["disk_hits"] += 1
            return value
    _stats["misses"] += 1
    value = mem[key_obj] = compute()
    if _dir:
        _write(_dir, key, value)
    return value


def stats() -> Dict[str, Any]:
    entries = 0
    if _dir and os.path.isdir(_dir):
        entries = sum(1 for n in os.listdir(_dir) if n.endswith(".pkl"))
    return {
        "memory_entries": sum(namespace_entries().values()),
        "disk_entries": entries,
        "directory": _dir,
        **_stats,
    }


def namespace_entries() -> Dict[str, int]:
    """In-memory entries per namespace, summed over owners; ``levi_tensor`` counts rows."""
    out: Dict[str, int] = {}
    for (namespace, _), entries in _tables.items():
        n = sum(map(len, entries.values())) if namespace == "levi_tensor" else len(entries)
        out[namespace] = out.get(namespace, 0) + n
    return out


def clear(disk: bool = False) -> None:
    _tables.clear()
    _stats.update(dict.fromkeys(_stats, 0))
    if disk and _dir and os.path.isdir(_dir):
        for name in os.listdir(_dir):
            if name.endswith((".pkl", ".tmp")):
                try:
                    os.remove(os.path.join(_dir, name))
                except OSError:
                    pass
