"""Independent quadrature oracles used to freeze expected values in tests.

These deliberately avoid the package's own Cauchy-transform formulas: singular
endpoint factors are handled by scipy's algebraic-weight quadrature, and
complex integrands are split into real and imaginary parts.
"""

import numpy as np
from scipy.integrate import quad

from rhjacobi.chebyshev import ChebKind, Interval, cheb_eval

# Exponents of the *normalized* weights as (x-a)^alg_a (b-x)^alg_b powers.
_ALG = {
    ChebKind.T: (-0.5, -0.5),
    ChebKind.U: (0.5, 0.5),
    ChebKind.V: (0.5, -0.5),
    ChebKind.W: (-0.5, 0.5),
}

# Constant tying the normalized weight to the pure algebraic factor, on [a, b].
def _norm_const(kind: ChebKind, interval: Interval) -> float:
    L = interval.length
    if kind is ChebKind.T:
        return 1.0 / np.pi
    if kind is ChebKind.U:
        return (2.0 / np.pi) * (2.0 / L) ** 2
    return 2.0 / (np.pi * L)


def normalized_weight(kind: ChebKind, interval: Interval, x):
    """The kind's normalized weight at points x inside the interval."""
    wa, wb = _ALG[kind]
    x = np.asarray(x, dtype=float)
    return _norm_const(kind, interval) * (x - interval.a) ** wa * (interval.b - x) ** wb


def quad_alg(f, interval: Interval, kind: ChebKind, **kw):
    """Integral of f(x) times the kind's normalized weight over the interval."""
    wa, wb = _ALG[kind]
    c = _norm_const(kind, interval)

    def run(part):
        val, _ = quad(part, interval.a, interval.b, weight="alg", wvar=(wa, wb),
                      limit=400, **kw)
        return val

    re = run(lambda x: np.real(f(x)))
    im = run(lambda x: np.imag(f(x)))
    return c * (re + 1j * im)


def cauchy_quad(kind: ChebKind, k: int, interval: Interval, z: complex) -> complex:
    """Brute-force Cauchy transform of (degree-k polynomial) x (normalized weight)."""
    def f(x):
        return cheb_eval(kind, k, interval.to_unit(x)) / (x - z)
    return quad_alg(f, interval, kind) / (2j * np.pi)


def weight_integral(spec, j: int, f=lambda x: 1.0) -> float:
    """Integral of f against the raw (unnormalized) band-j weight via scipy."""
    band = spec.bands[j]
    kind = spec.kinds[j]
    wa, wb = _ALG[kind]

    def g(x):
        return float(np.real(spec.h[j](x))) * f(x)

    val, _ = quad(g, band.a, band.b, weight="alg", wvar=(wa, wb), limit=400)
    return val
