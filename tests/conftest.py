import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate

from mwlab import weights as mw
from mwlab.cubature import CubeFamily

# property tests must be reproducible run to run
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def identity2():
    return mw.identity_weight(n=3, d=2)


@pytest.fixture(scope="session")
def rank_one():
    return mw.RankOneRadialWeight(n=3)


@pytest.fixture(scope="session")
def diag_poly():
    # diag(|x|^2, |x|^4)
    return mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                        mw.PolyScalar((0.0, 0.0, 1.0))))


@pytest.fixture(scope="session")
def diag_ordered():
    # diag(v1, v2) with v1 <= v2 pointwise everywhere
    return mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                        mw.PolyScalar((0.0, 1.0, 1.0))))


@pytest.fixture(scope="session")
def power13():
    return mw.PowerWeight(A=np.array([[2.0, 0.5], [0.5, 1.0]]),
                          gamma=np.array([1.0, 3.0]))


@pytest.fixture(scope="session")
def small_family():
    return CubeFamily(generator="dyadic", box=4.0, count=9, r_min=1.0, r_max=2.0)


@pytest.fixture(scope="session")
def catalog_family():
    return CubeFamily(generator="dyadic", box=8.0, count=18, r_min=1.0, r_max=4.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


_QUAD = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}


def _corner_box_reference(b, a: float) -> float:
    """int of |y|^a over [0, b1] x [0, b2] x [0, b3], a > -3, in cylindrical
    coordinates about the shortest side h.  With p = a/2 + 1 the radial
    integral is closed form, which leaves

        (1 / 2p) [int_0^(pi/2) int_0^h (x^2 + R(theta)^2)^p dx dtheta
                  - (pi/2) h^(2p+1) / (2p + 1)],

    R(theta) the distance to the far sides of the cross-section; R >= h
    keeps the remaining integrand smooth."""
    h, u, v = sorted(b)
    p = a / 2 + 1
    kink = math.atan2(v, u)

    def f(x, th):
        R = min(u / math.cos(th), v / math.sin(th))
        return (x * x + R * R) ** p

    def part(lo, hi, gap, toward):
        # R varies on the scale of gap = distance of the kink from 0 or
        # pi/2: geometric breakpoints away from the kink
        points = [toward(gap * 4.0 ** j) for j in range(1, 60) if gap * 4.0 ** j < hi - lo]
        return integrate.nquad(f, [(0.0, h), (lo, hi)],
                               opts=[_QUAD, {**_QUAD, "points": points}])[0]
    T = (part(0.0, kink, math.pi / 2 - kink, lambda g: math.pi / 2 - g)
         + part(kink, math.pi / 2, kink, lambda g: g))
    return (T - math.pi / 2 * h ** (2 * p + 1) / (2 * p + 1)) / (2 * p)


def power_integral_reference(c, r: float, a: float) -> float:
    """int_{Q(c, r)} |y|^a by scipy quadrature, independent of the engine in
    ``mwlab.cubature``.  A cube at distance >= r from the origin, where |y|^a
    is smooth, goes to ``nquad`` directly.  Any other cube is split at the
    origin into signed boxes with a corner there ([lo, hi] = [0, hi] +
    [0, -lo] across 0, [0, far] - [0, near] otherwise), each integrated by
    :func:`_corner_box_reference`; a <= -3 needs the direct route."""
    c = np.asarray(c, dtype=float)
    gap = np.maximum(np.abs(c) - r, 0.0)
    if math.sqrt(gap @ gap) >= r or a <= -3:
        f = lambda *y: math.fsum(t * t for t in y) ** (a / 2)  # noqa: E731
        return integrate.nquad(f, [(ci - r, ci + r) for ci in c], opts=_QUAD)[0]
    axes = []
    for ci in c:
        lo, hi = ci - r, ci + r
        if lo < 0 < hi:
            axes.append([(1.0, -lo), (1.0, hi)])
        else:
            near, far = sorted((abs(lo), abs(hi)))
            axes.append([(1.0, far)] + ([(-1.0, near)] if near > 0 else []))
    return math.fsum(math.prod(s for s, _ in box) * _corner_box_reference([b for _, b in box], a)
                     for box in itertools.product(*axes))


@pytest.fixture(scope="session")
def power_reference():
    return power_integral_reference
