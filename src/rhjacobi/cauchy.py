"""Closed-form Cauchy transforms of the four Chebyshev families.

Branch policy: every multivalued expression is assembled from principal-branch
square roots of *linear* factors, never the square root of a product, so the
cut sits exactly on the interval.  Boundary values on the cut are explicit
one-sided formulas, never eps-offsets.  The values from below are the
conjugates of those from above, computed by conjugated operations; a kernel
is such values times real constants and the imaginary i/(2 pi), so on an
interval its table from below is -conj of its table from above, bit for bit.

The kernels of one interval, or of a stack of them (chebyshev.Intervals), at
one point set share the point set's CutGeometry.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property

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

    @property
    def mirrored(self) -> Side:
        """The side of -z for z on this side."""
        return {Side.PLUS: Side.MINUS, Side.MINUS: Side.PLUS}.get(self, self)


def side_root(u, side: Side):
    """sqrt(u) for a linear factor u of z: the principal branch off the real
    axis; on it, for real u, the limit as u approaches the axis from the side
    (PLUS from above), so +-i sqrt(-u) for u < 0.  Exactly zero at u = 0."""
    if side is Side.OFF:
        return np.sqrt(u)
    sgn = 1.0 if side is Side.PLUS else -1.0
    return np.where(u >= 0.0, np.sqrt(np.maximum(u, 0.0)) + 0j,
                    sgn * 1j * np.sqrt(np.maximum(-u, 0.0)))


def sqrt_cut(z, interval: Interval = UNIT, side: Side = Side.OFF):
    """sqrt(z - a) * sqrt(z - b) with its cut exactly on [a, b] and ~ z at infinity.

    On the cut, the PLUS (upper) limit is +i sqrt(x-a) sqrt(b-x).  For real x
    outside [a, b] the function is continuous: positive right of b, negative
    left of a.  Exactly zero at the endpoints.
    """
    u = np.asarray(z, dtype=complex if side is Side.OFF else float)
    out = side_root(u - interval.a, side) * side_root(u - interval.b, side)
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
    else:
        x = np.asarray(z, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = _log_of_inverse(x, joukowsky_inv(x, side), side)
    return out if np.ndim(out) else complex(out)


def _log_of_inverse(x, J, side: Side):
    """log_joukowsky_inv(x, side) on the axis from J = joukowsky_inv(x, side).
    From below, J is the conjugate of its value from above, by conjugated
    operations, so its modulus is the same to the bit."""
    sgn = 1.0 if side is Side.PLUS else -1.0
    inner = -sgn * 1j * np.arccos(np.clip(x, -1.0, 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        magnitude = np.log(np.abs(J))
    return np.where(x >= 1.0, magnitude + 0j,
                    np.where(x <= -1.0, magnitude - sgn * 1j * np.pi, inner))


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


class CutGeometry:
    """Points z as an Interval, or each interval of an Intervals stack, sees
    them from one side: the unit variable t, J = joukowsky_inv(t) and S =
    sqrt_cut(z), each computed on first use and kept, so that every kernel
    kind and degree at these points shares them.  For one interval the arrays
    have z's shape (at least 1-d); for a stack z must be 1-d and they are
    (intervals, points).
    """

    def __init__(self, interval, z, side: Side = Side.OFF):
        self.interval = interval
        self.z = np.atleast_1d(z)
        self.side = side

    @cached_property
    def t(self) -> np.ndarray:
        return unit_variable(self.interval, self.z, self.side)

    @cached_property
    def J(self) -> np.ndarray:
        return np.atleast_1d(joukowsky_inv(self.t, self.side))

    @cached_property
    def S(self) -> np.ndarray:
        return np.atleast_1d(sqrt_cut(self.z, self.interval, self.side))

    def log_J(self) -> np.ndarray:
        """log_joukowsky_inv(t), from J."""
        if self.side is Side.OFF:
            return np.log(self.J)
        return _log_of_inverse(self.t, self.J, self.side)


def _check_endpoints(kind: ChebKind, interval, z) -> None:
    zc = np.asarray(z, dtype=complex)
    for exponent, ends in ((kind.alpha, interval.a), (kind.beta, interval.b)):
        if exponent < 0 and np.any(zc == ends):
            hits = np.reshape(zc == ends, (np.size(ends), -1))
            end = float(np.ravel(ends)[np.any(hits, axis=1)][0])
            raise EndpointError(f"{kind.value}-kind Cauchy transform is unbounded at {end}")


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
    assembly.  On the interval itself the table from below is -conj of the
    table from above, bit for bit (see the module docstring).
    """
    if n < 1:
        raise DomainError("need at least one degree")
    scalar = np.ndim(z) == 0
    J, first, factor = _kernel_factors(kind, CutGeometry(interval, z, side))

    # powers[k] = J^k, each a contiguous row
    powers = np.empty((n,) + J.shape, dtype=complex)
    powers[0] = 1.0
    for k in range(1, n):
        np.multiply(powers[k - 1], J, out=powers[k])
    table = np.multiply(np.moveaxis(powers, 0, -1), factor[..., None],
                        out=np.empty(J.shape + (n,), dtype=complex))
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
    out = series_at(kind, c, CutGeometry(interval, z, side))
    return out if np.ndim(z) else complex(out[0])


def series_at(kind: ChebKind, coeffs: np.ndarray, geo: CutGeometry) -> np.ndarray:
    """cauchy_cheb_series at geo's points.  For a stack of intervals, row i of
    coeffs holds interval i's series, padded with trailing zeros to a common
    length; the padding adds exact zeros, so each row has the value its own
    series gives."""
    J, first, factor = _kernel_factors(kind, geo)
    out = first * coeffs[..., 0, None]
    if coeffs.shape[-1] > 1:
        acc = np.empty(J.shape, dtype=complex)
        acc[...] = coeffs[..., -1, None]
        for k in range(coeffs.shape[-1] - 2, 0, -1):
            acc *= J
            acc += coeffs[..., k, None]
        out = out + factor * J * acc
    return out


def _kernel_factors(kind: ChebKind, geo: CutGeometry) -> tuple:
    """(J, first, factor) at geo's points: the degree-k transform is factor
    J^k for k >= 1 and first for k = 0."""
    interval = geo.interval
    _check_endpoints(kind, interval, geo.z)
    J = geo.J
    if kind is ChebKind.T:
        base = _I2PI / geo.S
        return J, base, SQRT2 * base
    L = interval.length
    if kind is ChebKind.U:
        factor = J * (2.0 * _I2PI) * (2.0 / L)
        return J, factor, factor
    # V: sqrt(z-a)/sqrt(z-b) - 1; W: 1 - sqrt(z-b)/sqrt(z-a); side-aware.
    num, sign = (geo.z - interval.a, 1.0) if kind is ChebKind.V else (geo.z - interval.b, -1.0)
    with np.errstate(invalid="ignore"):
        ratio = num / geo.S
    ratio = np.where(num == 0.0, 0.0, ratio)  # bounded endpoint: exact limit
    factor = sign * (ratio - 1.0) * _I2PI * (2.0 / L)
    return J, factor, factor
