"""Closed-form Cauchy transforms of the four Chebyshev families.

Branch policy: every multivalued expression is assembled from principal-branch
square roots of *linear* factors, never the square root of a product, so the
cut sits exactly on the interval.  Boundary values on the cut are explicit
one-sided formulas, never eps-offsets.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .chebyshev import ChebKind, Interval, UNIT
from .errors import DomainError, EndpointError

_I2PI = 1j / (2.0 * np.pi)
SQRT2 = math.sqrt(2.0)


class Side(enum.Enum):
    """Boundary-value selector: limits from above/below the cut, or off it."""

    PLUS = "+"
    MINUS = "-"
    OFF = "off"


def sqrt_cut(z, interval: Interval = UNIT, side: Side = Side.OFF):
    """sqrt(z - a) * sqrt(z - b) with its cut exactly on [a, b] and ~ z at infinity.

    On the cut, the PLUS (upper) limit is +i sqrt(x-a) sqrt(b-x).  For real x
    outside [a, b] the function is continuous: positive right of b, negative
    left of a.  Exactly zero at the endpoints.
    """
    a, b = interval.a, interval.b
    if side is Side.OFF:
        zc = np.asarray(z, dtype=complex)
        out = np.sqrt(zc - a) * np.sqrt(zc - b)
        return out if out.shape else complex(out)
    x = np.asarray(z, dtype=float)
    inner = np.sqrt(np.maximum(x - a, 0.0)) * np.sqrt(np.maximum(b - x, 0.0))
    outer_right = np.sqrt(np.maximum(x - a, 0.0)) * np.sqrt(np.maximum(x - b, 0.0))
    outer_left = -np.sqrt(np.maximum(a - x, 0.0)) * np.sqrt(np.maximum(b - x, 0.0))
    sgn = 1.0 if side is Side.PLUS else -1.0
    out = np.where(x >= b, outer_right + 0j,
                   np.where(x <= a, outer_left + 0j, sgn * 1j * inner))
    return out if out.shape else complex(out)


def joukowsky_inv(z, side: Side = Side.OFF):
    """Right inverse of the Joukowsky map (w + 1/w)/2 into the unit disk.

    Computed as 1/(z + sqrt(z-1) sqrt(z+1)), which is exactly z - sqrt(z-1)sqrt(z+1)
    but free of cancellation for large |z| (the denominator has modulus > 1
    everywhere), and which hits the exact limit -1 at z = -1.
    """
    s = sqrt_cut(z, UNIT, side)
    zc = np.asarray(z, dtype=complex) if side is Side.OFF else np.asarray(z, dtype=float)
    out = 1.0 / (zc + s)
    return out if np.ndim(out) else complex(out)


def log_joukowsky_inv(z, side: Side = Side.OFF):
    """Branch-managed log of joukowsky_inv.

    Off the real axis the principal log applies (the image avoids the negative
    reals there).  For real z < -1 the image is negative real; the limit from
    above the axis approaches it from below, so the PLUS branch carries -i pi.
    On (-1, 1) the boundary values are pure phases -/+ i arccos(z).
    """
    if side is Side.OFF:
        out = np.log(joukowsky_inv(z, side))
        return out if np.ndim(out) else complex(out)
    x = np.asarray(z, dtype=float)
    sgn = 1.0 if side is Side.PLUS else -1.0
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    inner = -sgn * 1j * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        right = np.log(np.abs(joukowsky_inv(np.maximum(x, 1.0), Side.PLUS))) + 0j
        left = np.log(np.abs(joukowsky_inv(np.minimum(x, -1.0), Side.PLUS))) - sgn * 1j * np.pi
    out = np.where(x >= 1.0, right, np.where(x <= -1.0, left, inner))
    return out if out.shape else complex(out)


def unit_variable(interval: Interval, z: np.ndarray, side: Side) -> np.ndarray:
    """Points z mapped affinely onto [-1, 1]; on the axis (PLUS or MINUS) the
    real parts, with exact endpoint hits snapped to exactly -1 and 1: the
    affine map's rounding is amplified to sqrt(eps) by the non-Lipschitz
    inverse Joukowsky map."""
    if side is Side.OFF:
        return interval.to_unit(z)
    x = np.real(z)
    t = np.asarray(interval.to_unit(x))
    return np.where(x == interval.a, -1.0, np.where(x == interval.b, 1.0, t))


def _check_endpoints(kind: ChebKind, interval: Interval, z) -> None:
    zc = np.asarray(z, dtype=complex)
    if kind.alpha < 0 and np.any(zc == interval.a):
        raise EndpointError(f"{kind.value}-kind Cauchy transform is unbounded at {interval.a}")
    if kind.beta < 0 and np.any(zc == interval.b):
        raise EndpointError(f"{kind.value}-kind Cauchy transform is unbounded at {interval.b}")


def cauchy_cheb(kind: ChebKind, k: int, interval: Interval, z, side: Side = Side.OFF):
    """Cauchy transform of (degree-k polynomial) x (normalized weight) of the kind.

    The transform is (2 pi i)^{-1} integral of p_k(s) w(s) / (s - z) ds over the
    interval; closed forms in terms of the inverse Joukowsky map.
    """
    if k < 0:
        raise DomainError("degree must be nonnegative")
    table = cauchy_cheb_table(kind, k + 1, interval, z, side)
    out = table[..., k]
    return out if out.shape else complex(out)


def cauchy_cheb_table(kind: ChebKind, n: int, interval: Interval, z, side: Side = Side.OFF) -> np.ndarray:
    """Stacked transforms for degrees 0..n-1: shape z.shape + (n,).

    Shares the J-power recursion across degrees; used heavily by the collocation
    assembly.
    """
    if n < 1:
        raise DomainError("need at least one degree")
    scalar = np.ndim(z) == 0
    J, first, factor = _kernel_factors(kind, interval, z, side)

    # powers[..., k] = J^k
    powers = np.empty(J.shape + (n,), dtype=complex)
    powers[..., 0] = 1.0
    for k in range(1, n):
        powers[..., k] = powers[..., k - 1] * J
    table = powers * factor[..., None]
    table[..., 0] = first
    return table[0] if scalar else table


def cauchy_cheb_series(kind: ChebKind, coeffs, interval: Interval, z, side: Side = Side.OFF):
    """The transform of the series sum_k coeffs[k] p_k: cauchy_cheb_table's
    columns summed against coeffs without forming the table.

    The powers of J are summed by Horner's rule, so each point's value depends
    on that point alone, whatever the other points of z.
    """
    c = np.atleast_1d(np.asarray(coeffs))
    if len(c) < 1:
        raise DomainError("need at least one coefficient")
    J, first, factor = _kernel_factors(kind, interval, z, side)
    out = first * c[0]
    if len(c) > 1:
        acc = np.full(J.shape, c[-1], dtype=complex)
        for ck in c[-2:0:-1]:
            acc = acc * J + ck
        out = out + factor * J * acc
    return out if np.ndim(z) else complex(out[0])


def _kernel_factors(kind: ChebKind, interval: Interval, z, side: Side) -> tuple:
    """(J, first, factor) at points z, at least 1-d: the degree-k transform is
    factor J^k for k >= 1 and first for k = 0."""
    _check_endpoints(kind, interval, z)
    zz = np.atleast_1d(z)
    J = np.atleast_1d(joukowsky_inv(unit_variable(interval, zz, side), side))
    L = interval.length

    if kind is ChebKind.T:
        S = np.atleast_1d(sqrt_cut(zz, interval, side))
        base = _I2PI / S
        return J, base, SQRT2 * base
    if kind is ChebKind.U:
        factor = J * (2.0 * _I2PI) * (2.0 / L)
        return J, factor, factor
    # V: sqrt(z-a)/sqrt(z-b) - 1; W: 1 - sqrt(z-b)/sqrt(z-a); side-aware.
    S = np.atleast_1d(sqrt_cut(zz, interval, side))
    num, sign = (zz - interval.a, 1.0) if kind is ChebKind.V else (zz - interval.b, -1.0)
    with np.errstate(invalid="ignore"):
        ratio = num / S
    ratio = np.where(num == 0.0, 0.0, ratio)  # bounded endpoint: exact limit
    factor = sign * (ratio - 1.0) * _I2PI * (2.0 / L)
    return J, factor, factor
