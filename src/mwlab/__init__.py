"""Numerical laboratory for matrix-weighted Schroedinger systems.

Modules:

* :mod:`mwlab.weights`   - evaluable matrix weight catalog and PSD algebra
* :mod:`mwlab.cubature`  - cubes, adaptive quadrature, minimum-volume ellipsoids
* :mod:`mwlab.certify`   - matrix-class certifiers, reducing matrices, cross implications
* :mod:`mwlab.auxmetric` - auxiliary functions and Agmon distance fields
* :mod:`mwlab.pde`       - discrete weakly coupled systems and Green fields
* :mod:`mwlab.ineqlab`   - inequality harnesses, envelope fits, reports
* :mod:`mwlab.cli`       - the `mwlab` command-line entry point
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
