"""The classification search over all exceptional G/P of Picard number one.

A fourfold (or threefold) zero locus with trivial canonical bundle needs
rank(F) = dim - d and dex(F) = Fano index, both exact integers computed
from root data.  Most of the 25 spaces die instantly under the dex/rank
ratio bound; the survivors are enumerated, hodge's one table of summands
whose general sections vanish nowhere (``hodge.NOWHERE_VANISHING``) removes
the bundles containing one, and each emitted pair carries its Hodge numbers.

Running this script takes about two seconds; the E7/P1 Hodge row dominates.
"""

import time

from bwbforge.classify import classify, exceptional_spaces

for d in (4, 3):
    t0 = time.time()
    rep = classify(exceptional_spaces(), d, with_hodge=True)
    print(f"== d = {d}: {len(rep.rows)} families "
          f"({len(rep.dedup_rows())} up to the diagram automorphism), "
          f"{time.time() - t0:.0f}s ==")
    for row in rep.rows:
        cols = (
            f"h02={row.hodge['h02']} h11={row.hodge['h11']} h13={row.hodge['h13']}"
            if d == 4
            else f"h11={row.hodge['h11']} h12={row.hodge['h12']} chi={row.hodge['chi']}"
        )
        print(f"  {row.space:6s} dim {row.dim:3d} iota {row.iota:2d}  "
              f"{row.bundle:22s} {cols}")
    print(f"  ratio-pruned spaces: {len(rep.pruned)}")
    for e in rep.excluded:
        print(f"  excluded on {e.space}: {e.reason}")
    print()
