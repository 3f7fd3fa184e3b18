"""Exact Borel-Weil-Bott cohomology on rational homogeneous varieties.

Library layout, one module per concern:

* rootdata  - root systems, Weyl chambers, reflections (Bourbaki labels)
* repcalc   - characters, dimensions, tensor products, wedge/symmetric powers
* homspace  - geometry of G/P_k: dimension, Fano index, cotangent gradation, dex
* bwbcohom  - Borel-Weil-Bott cohomology of explicit bundles on G/P_k
* koszul    - zero loci, their Koszul E1 pages and restricted cohomology
* hodge     - Hodge numbers of the zero loci via conormal-sequence chases
* classify  - search for 3-/4-folds with trivial canonical bundle
* cli       - command-line front end with a persistent cache
"""

from .cache import ENGINE_VERSION as __version__
