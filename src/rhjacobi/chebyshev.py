"""Chebyshev polynomial families, series transforms, and endpoint-singular quadrature.

Normalization conventions, fixed here once and assumed by every other module:
the first-kind family is orthonormal, with degree 0 equal to 1 and degree k > 0
equal to sqrt(2) times the classical T_k.  Second, third, and fourth kinds are
the classical U_k, V_k, W_k, which are already orthonormal against their
normalized weights.  On [-1, 1] the normalized weights are

    T: 1/(pi sqrt(1-x) sqrt(1+x))      U: (2/pi) sqrt(1-x) sqrt(1+x)
    V: sqrt(1+x)/(pi sqrt(1-x))        W: sqrt(1-x)/(pi sqrt(1+x))

On a general interval [a, b] the families are composed with the affine map to
[-1, 1] and the weights are rescaled so orthonormality is preserved:

    T: 1/(pi sqrt(x-a) sqrt(b-x))
    U: (2/pi) (2/(b-a))^2 sqrt(x-a) sqrt(b-x)
    V: (2/(pi (b-a))) sqrt(x-a)/sqrt(b-x)
    W: (2/(pi (b-a))) sqrt(b-x)/sqrt(x-a)

The unnormalized weight attached to a kind drops the 1/pi-type constants and
keeps only the square-root factors (exponents +/-1 at each endpoint).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, WeightError

SQRT2 = math.sqrt(2.0)

_ENDPOINT_TOL = 1e-12

# Sample counts and relative tolerances of adaptive_dct.
DCT_M0 = 16
DCT_CAP = 2048
TAIL_TOL = 1e-15
DROP_TOL = 1e-15


class ChebKind(enum.Enum):
    """The four Chebyshev families, tagged by endpoint exponents (alpha, beta)."""

    T = "T"
    U = "U"
    V = "V"
    W = "W"

    @property
    def exponents(self) -> tuple[int, int]:
        return _KIND_EXPONENTS[self]

    @property
    def alpha(self) -> int:
        return _KIND_EXPONENTS[self][0]

    @property
    def beta(self) -> int:
        return _KIND_EXPONENTS[self][1]

    @classmethod
    def from_exponents(cls, alpha: int, beta: int) -> "ChebKind":
        try:
            return _EXPONENT_KINDS[(int(alpha), int(beta))]
        except KeyError:
            raise WeightError(f"endpoint exponents must lie in {{-1, 1}}, got ({alpha}, {beta})")

    @property
    def flipped(self) -> "ChebKind":
        """The kind with both endpoint exponents negated (T <-> U, V <-> W)."""
        a, b = self.exponents
        return ChebKind.from_exponents(-a, -b)


_KIND_EXPONENTS = {
    ChebKind.T: (-1, -1),
    ChebKind.U: (1, 1),
    ChebKind.V: (1, -1),
    ChebKind.W: (-1, 1),
}
_EXPONENT_KINDS = {v: k for k, v in _KIND_EXPONENTS.items()}


@dataclass(frozen=True)
class Interval:
    """A finite real interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def half(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def length(self) -> float:
        return self.b - self.a

    def to_unit(self, x):
        """Affine map [a, b] -> [-1, 1]."""
        return (np.asarray(x) - self.mid) / self.half

    def from_unit(self, t):
        """Affine map [-1, 1] -> [a, b]."""
        return self.mid + self.half * np.asarray(t)


UNIT = Interval(-1.0, 1.0)


class Intervals:
    """Intervals stacked on a leading axis.

    a, b, mid, half and length are (k, 1) columns, so a formula written for
    one Interval and 1-d points z gives (k, len(z)) values in one pass, each
    row by the same operations, and so with the same values, as its own
    interval gives.
    """

    def __init__(self, intervals):
        self.intervals = tuple(intervals)
        columns = np.array([[iv.a, iv.b, iv.mid, iv.half, iv.length] for iv in self.intervals])
        self.a, self.b, self.mid, self.half, self.length = columns.T[:, :, None]

    def __getitem__(self, index) -> Intervals:
        """The stack of the intervals at index, a slice or a sequence of
        positions."""
        if isinstance(index, slice):
            return Intervals(self.intervals[index])
        return Intervals(self.intervals[i] for i in index)

    def to_unit(self, x):
        """Interval.to_unit, one row per interval."""
        return (np.asarray(x) - self.mid) / self.half

    def from_unit(self, t):
        """Interval.from_unit, one row per interval."""
        return self.mid + self.half * np.asarray(t)


def cheb_eval(kind: ChebKind, k: int, x):
    """Evaluate the degree-k polynomial of the given kind at x in [-1, 1].

    Uses trigonometric forms, exact limits at the endpoints.
    """
    if k < 0:
        raise DomainError(f"degree must be nonnegative, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _ENDPOINT_TOL):
        raise DomainError("evaluation point outside [-1, 1]")
    xc = np.clip(x, -1.0, 1.0)
    theta = np.arccos(xc)
    if kind is ChebKind.T:
        out = np.ones_like(xc) if k == 0 else SQRT2 * np.cos(k * theta)
        return out if out.shape else float(out)

    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is ChebKind.U:
            out = np.sin((k + 1) * theta) / np.sin(theta)
            lim_hi, lim_lo = k + 1.0, (-1.0) ** k * (k + 1.0)
        elif kind is ChebKind.V:
            out = np.cos((k + 0.5) * theta) / np.cos(0.5 * theta)
            lim_hi, lim_lo = 1.0, (-1.0) ** k * (2 * k + 1.0)
        else:
            out = np.sin((k + 0.5) * theta) / np.sin(0.5 * theta)
            lim_hi, lim_lo = 2 * k + 1.0, (-1.0) ** k
    out = np.where(xc >= 1.0 - 1e-15, lim_hi, out)
    out = np.where(xc <= -1.0 + 1e-15, lim_lo, out)
    return out if out.shape else float(out)


def cheb_t_nodes(m: int, interval: Interval = UNIT) -> np.ndarray:
    """The m roots of the degree-m first-kind polynomial, mapped to the interval.

    Returned in decreasing order of the cosine argument (the natural DCT order).
    For a stack of intervals (Intervals), one row of m nodes per interval.
    """
    if m < 1:
        raise DomainError("node count must be >= 1")
    theta = (2.0 * np.arange(m) + 1.0) * np.pi / (2.0 * m)
    return interval.from_unit(np.cos(theta))


@dataclass
class ChebSeries:
    """A finite first-kind series sum_k coeffs[k] * p_k on an interval."""

    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __call__(self, x):
        # Clenshaw on classical T after undoing the sqrt(2) normalization.
        c = self.coeffs.copy()
        c[1:] *= SQRT2
        return np.polynomial.chebyshev.chebval(self.interval.to_unit(x), c)

    def truncated(self) -> "ChebSeries":
        """Drop trailing coefficients below DROP_TOL relative to the largest."""
        mags = np.abs(self.coeffs)
        keep = np.nonzero(mags > DROP_TOL * mags.max())[0]
        return ChebSeries(self.interval, self.coeffs[: keep[-1] + 1 if keep.size else 1])

    def moments(self, count: int) -> np.ndarray:
        """Integrals of x^k times the series against the normalized first-kind
        weight on its interval, k = 0..count-1: row 0 of moments([self],
        count)."""
        return moments([self], count)[0]


def moments(series: list, count: int) -> np.ndarray:
    """ChebSeries.moments(count) of each series, one row per series.

    Each series takes one Gauss-Chebyshev rule of its own, (len + count) // 2
    + 1 nodes, exact for every integrand of degree len + count - 2.  The
    series are summed at all their nodes in one Clenshaw pass (chebval with
    one coefficient column per node), over the coefficients padded with
    trailing zeros to one length: Clenshaw's state stays an exact zero
    through the padding, so each series' values are bit for bit its own
    chebval's.  The powers are taken at all nodes at once, the means per
    series.
    """
    if not series:
        return np.empty((0, count), dtype=complex)
    sizes = [(len(ser) + count) // 2 + 1 for ser in series]
    ends = list(itertools.accumulate(sizes, initial=0))
    nodes = [cheb_t_nodes(m, ser.interval) for m, ser in zip(sizes, series)]
    t = np.concatenate([ser.interval.to_unit(x) for ser, x in zip(series, nodes)])
    # one coefficient column per node, padded with zeros; Clenshaw on
    # classical T after undoing the sqrt(2) normalization
    coeffs = np.zeros((max(map(len, series)), ends[-1]), dtype=complex)
    for ser, lo, hi in zip(series, ends, ends[1:]):
        coeffs[:len(ser), lo:hi] = ser.coeffs[:, None]
    coeffs[1:] *= SQRT2
    values = np.polynomial.chebyshev.chebval(t, coeffs, tensor=False)
    terms = np.concatenate(nodes) ** np.arange(count)[:, None] * values
    return np.array([terms[:, lo:hi].mean(axis=1) for lo, hi in zip(ends, ends[1:])])


def dct_coeffs(samples, interval: Interval = UNIT) -> ChebSeries:
    """First-kind series interpolating samples taken at cheb_t_nodes(m, interval).

    DCT-II by one FFT of the even extension of the samples, O(m log m); its
    rounding stays near eps, below the tail test of adaptive_dct.
    """
    return ChebSeries(interval, _dct(np.atleast_1d(samples)))


def _dct(samples: np.ndarray) -> np.ndarray:
    """dct_coeffs' coefficients of each row of samples, along the last axis:
    one FFT over every row."""
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[-1]
    if m < 1:
        raise DomainError("need at least one sample")
    extended = np.concatenate([samples, samples[..., ::-1]], axis=-1)
    spectrum = np.fft.fft(extended, axis=-1)[..., :m]
    coeffs = _phases(m) * spectrum / m
    coeffs[..., 0] *= 0.5
    coeffs[..., 1:] /= SQRT2
    return coeffs


@functools.lru_cache(maxsize=16)
def _phases(m: int) -> np.ndarray:
    """The DCT-II phases exp(-i pi k / (2 m)), k < m, read-only and kept for
    the last 16 sample counts (adaptive_dct's doubling takes 8)."""
    out = np.exp(-0.5j * np.pi * np.arange(m) / m)
    out.flags.writeable = False
    return out


def adaptive_dct(f: Callable, interval: Interval = UNIT) -> ChebSeries | list:
    """Sample-double from DCT_M0 until the last three coefficients drop below
    TAIL_TOL relative to the largest, then truncate trailing negligible ones.

    For a stack of intervals (Intervals) it expands every interval's function
    together and returns one series per interval: at each sample count m,
    f(x, rows) gives the samples at x, (len(rows), m) nodes, of the intervals
    at the positions rows (an ascending list) that have not yet passed the
    tail test, and one DCT takes every row; a row drops out once it passes.
    For one Interval, f(x) samples at 1-d nodes x: a one-row stack.
    ConvergenceError names every interval still short of the test at
    DCT_CAP.
    """
    if isinstance(interval, Interval):
        [series] = adaptive_dct(lambda x, rows: np.asarray(f(x[0]))[None], Intervals([interval]))
        return series
    series = [None] * len(interval.intervals)
    rows, stack = list(range(len(series))), interval
    m = DCT_M0
    while rows and m <= DCT_CAP:
        if len(rows) < len(stack.intervals):
            stack = interval[rows]
        coeffs = _dct(f(cheb_t_nodes(m, stack), rows))
        mags = np.abs(coeffs)
        passed = (mags[:, -3:] <= TAIL_TOL * mags.max(axis=1, keepdims=True)).all(axis=1)
        rest = []
        for row, c, done in zip(rows, coeffs, passed.tolist()):
            if done:
                series[row] = ChebSeries(interval.intervals[row], c).truncated()
            else:
                rest.append(row)
        rows = rest
        m *= 2
    if rows:
        raise ConvergenceError(
            f"Chebyshev coefficients did not decay below {TAIL_TOL:g} by m={DCT_CAP} on "
            + ", ".join(str(interval.intervals[row]) for row in rows))
    return series


def gauss_cheb_rule(kind: ChebKind, interval: Interval, m: int, h: Callable | None = None):
    """Gauss rule for the unnormalized weight h(x) (x-a)^(alpha/2) (b-x)^(beta/2) dx.

    Exact for polynomials of degree <= 2m-1 when h is identically one.  Nodes
    ascend.  Closed-form nodes and weights, so large m stays O(m).
    """
    if m < 1:
        raise DomainError("node count must be >= 1")
    if kind is ChebKind.T:
        t = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
        w = np.full(m, np.pi / m)
        scale = 1.0
    elif kind is ChebKind.U:
        j = np.arange(1, m + 1)
        t = np.cos(j * np.pi / (m + 1.0))
        w = (np.pi / (m + 1.0)) * np.sin(j * np.pi / (m + 1.0)) ** 2
        scale = interval.half ** 2
    elif kind is ChebKind.V:
        theta = (2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m + 1.0)
        t = np.cos(theta)
        w = (2.0 * np.pi / (2.0 * m + 1.0)) * (1.0 + t)
        scale = interval.half
    else:
        theta = (2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m + 1.0)
        t = -np.cos(theta)
        w = (2.0 * np.pi / (2.0 * m + 1.0)) * (1.0 - t)
        scale = interval.half

    order = np.argsort(t)
    nodes = interval.from_unit(t[order])
    weights = w[order] * scale
    if h is not None:
        hv = np.asarray(h(nodes), dtype=float)
        if np.any(hv <= 0.0):
            raise WeightError("scaling function h is not positive at a quadrature node")
        weights = weights * hv
    return nodes, weights
