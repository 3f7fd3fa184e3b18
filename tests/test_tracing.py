"""The benchmark's tracer must still find every engine function it names."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bwbforge_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_listed_name():
    tracing = _load_tracing()
    names = {**tracing.SPANNED}
    for m, extra in tracing.COUNTED.items():
        names[m] = names.get(m, ()) + extra
    originals = {
        (m, n): getattr(importlib.import_module(f"bwbforge.{m}"), n)
        for m, listed in names.items()
        for n in listed
    }
    tracer = tracing.Tracer()
    tracer.install()  # an AttributeError here means a listed name left the engine
    try:
        for (m, n), fn in originals.items():
            assert getattr(importlib.import_module(f"bwbforge.{m}"), n) is not fn, f"{m}.{n}"
    finally:
        tracer.uninstall()
    for (m, n), fn in originals.items():
        assert getattr(importlib.import_module(f"bwbforge.{m}"), n) is fn, f"{m}.{n}"
