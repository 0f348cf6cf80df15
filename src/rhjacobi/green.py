"""Exterior Green's function with pole at infinity for a union of bands.

The derivative is Q_g(z)/R(z) with R the band square-root product and Q_g the
monic degree-g polynomial killing the gap periods.  The function itself is
assembled from antiderivatives of Chebyshev-kernel Cauchy transforms: the
degree-0 term integrates to a log of the inverse Joukowsky map and the higher
terms to second-kind kernels.  Normalization makes the function vanish (up to
the intrinsic i pi phase) at the leftmost band endpoint, which pins the
capacity-type constant; build_green reads the shift from eval_g itself, at
that endpoint from above.  build_green expands each band and gap density of
1/R once; Q_g, the equilibrium masses and the auxiliary function's moment
system are all read from those series.

Set-up is one stacked pass per stage: one adaptive_dct over every band and
gap density (densities, one eval_R per sample count), one over Q_g times
every band density, from the same samples where the first pass took them,
and the moments of solve_Q and auxiliary.build_hsystem in one
chebyshev.moments pass each.  Every series is bit for bit the one its own
interval's expansion gives.

eval_R, eval_g and auxiliary.h_basis take every band (and gap) in one pass,
as (intervals x points) arrays (cauchy.CutGeometry), with the series padded
with trailing zeros to one length (GreenData.g_series and h_series), which
the Horner sum of cauchy.series_at skips; each value is bit for bit the one
its own interval's formulas give.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cauchy import CutGeometry, Side, series_at
from .chebyshev import SQRT2, ChebKind, Intervals, adaptive_dct, moments
from .errors import SolverError
from .weights import WeightSpec


@dataclass
class GreenData:
    """Everything needed to evaluate the Green's function and its constants."""

    bands: tuple
    q_coeffs: np.ndarray          # ascending, monic, length g+1
    band_beta: list               # per band: first-kind series of its density (densities)
    gap_beta: list                # per gap: first-kind series of its density (densities)
    band_series: list             # per band: series of Q times its density; coeffs[0]: mass
    deltas: np.ndarray            # per gap: the (purely imaginary) jump across the gap
    cap_const: complex            # leading coefficient of exp(g) ~ c z at infinity
    g1: complex                   # 1/z coefficient of g at infinity
    phi_ref: float                # Re g at the leftmost endpoint before normalization (eval_g's)

    @cached_property
    def g_series(self) -> tuple:
        """(the bands as Intervals, each band's mass as a column, each band's
        second-kind series of eval_g as a row, padded with zeros), built by
        the first evaluation: build_green's, for phi_ref."""
        masses, rows = [], []
        for band, ser in zip(self.bands, self.band_series):
            c = ser.coeffs
            ks = np.arange(1, len(c))
            masses.append(c[:1])
            rows.append(c[1:] * (np.pi * 1j / ks) * (band.length / SQRT2))
        return Intervals(self.bands), np.array(masses), _padded(rows)

    @cached_property
    def h_series(self) -> tuple:
        """(the bands, then the gaps, as Intervals, and band_beta then gap_beta
        as rows, padded with zeros)."""
        series = self.band_beta + self.gap_beta
        return Intervals(ser.interval for ser in series), _padded([s.coeffs for s in series])


def _padded(rows: list) -> np.ndarray:
    """The coefficient rows, padded with trailing zeros to one length (at
    least 1)."""
    out = np.zeros((len(rows), max(1, *map(len, rows))), dtype=complex)
    for row, c in zip(out, rows):
        row[:len(c)] = c
    return out


def eval_R(bands: tuple, z, side: Side = Side.OFF):
    """Product over bands of sqrt(z-a_j) sqrt(z-b_j); cuts exactly on the bands,
    ~ z^(g+1) at infinity.  On gaps the PLUS side is the continuous real value.
    One pass over every band; a scalar z gives a complex."""
    R = band_product(CutGeometry(Intervals(bands), np.ravel(z), side).S)
    return complex(R[0]) if np.ndim(z) == 0 else R.reshape(np.shape(z))


def band_product(S: np.ndarray) -> np.ndarray:
    """The product of the rows of S, in row order: R from the bands' sqrt_cut
    values."""
    out = S[0]
    for factor in S[1:]:
        out = out * factor
    return out


def densities(spec: WeightSpec, intervals: Intervals, x: np.ndarray, rows: list) -> np.ndarray:
    """The smooth, real densities of 1/R at points x, one row of points per
    interval at the positions rows (an ascending list) of intervals, spec's
    bands then its gaps: i sqrt(x-a) sqrt(b-x) / R_plus(x) on a band,
    sqrt(x-a) sqrt(b-x) / R(x) on a gap (R real there).  One eval_R over
    every row."""
    root = np.sqrt(x - intervals.a[rows]) * np.sqrt(intervals.b[rows] - x)
    R = eval_R(spec.bands, x, Side.PLUS)
    bands = bisect.bisect_left(rows, len(spec.bands))
    out = 1j * root / R  # then the gap rows, a trailing block, overwritten
    out[bands:] = root[bands:] / np.real(R[bands:])
    return out


def solve_Q(gap_beta: list) -> np.ndarray:
    """Monic Q_g whose gap integrals of Q_g/R all vanish.

    The integrand's inverse-square-root endpoint factors are the first-kind
    weight, so each gap integral of x^k/R is a moment of the gap's series;
    all of them come from one chebyshev.moments pass.
    """
    g = len(gap_beta)
    if g == 0:
        return np.array([1.0])
    M = moments(gap_beta, g + 1).real
    try:
        h = np.linalg.solve(M[:, :g], -M[:, g])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"gap-period system is singular (g={g}): {exc}") from exc
    return np.concatenate([h, [1.0]])


def build_green(spec: WeightSpec) -> GreenData:
    """Expand the band and gap densities, solve for Q_g, expand Q_g times each
    band density, and fix all constants: phi_ref is Re eval_g at the leftmost
    endpoint from above with phi_ref = 0, and cap_const follows from it.

    Two stacked adaptive_dct calls: one over every band and gap density,
    one eval_R per sample count (densities), then one over Q_g times each
    band density, which reuses the band densities the first call sampled at
    each sample count and evaluates only those it never sampled.
    """
    g = spec.genus
    intervals = Intervals(spec.bands + spec.gaps)
    taken = {}  # (sample count, row) -> that row's densities at those nodes

    def sampled(x, rows):
        out = densities(spec, intervals, x, rows)
        taken.update(zip(((x.shape[-1], row) for row in rows), out))
        return out

    series = adaptive_dct(sampled, intervals)
    band_beta, gap_beta = series[:g + 1], series[g + 1:]
    q_coeffs = solve_Q(gap_beta)

    def times_q(x, rows):
        keys = [(x.shape[-1], row) for row in rows]
        fresh = [i for i, key in enumerate(keys) if key not in taken]
        if fresh:
            taken.update(zip((keys[i] for i in fresh),
                             densities(spec, intervals, x[fresh], [rows[i] for i in fresh])))
        return np.polynomial.polynomial.polyval(x, q_coeffs) * np.array([taken[key] for key in keys])

    band_series = adaptive_dct(times_q, intervals[:g + 1])

    # Jump of g across gap ell: 2 pi i times the equilibrium mass to the right.
    prefix = np.cumsum([ser.coeffs[0] for ser in band_series])
    deltas = 2j * np.pi * (1.0 - prefix[:g])

    g1 = 0.0 + 0.0j
    for band, ser in zip(spec.bands, band_series):
        c = ser.coeffs
        g1 = g1 - c[0] * band.mid
        if len(c) > 1:
            g1 = g1 - c[1] * band.length / (2.0 * SQRT2)

    # eval_g reads bands, band_series and phi_ref only, so cap_const is not
    # read before it is set from phi_ref below
    green = GreenData(bands=spec.bands, q_coeffs=q_coeffs, band_beta=band_beta,
                      gap_beta=gap_beta, band_series=band_series, deltas=deltas,
                      cap_const=0j, g1=complex(g1), phi_ref=0.0)
    green.phi_ref = float(eval_g(green, spec.bands[0].a, Side.PLUS).real)
    log_cap = sum((ser.coeffs[0] * np.log(4.0 / band.length)
                   for band, ser in zip(spec.bands, band_series)), -green.phi_ref)
    green.cap_const = complex(np.exp(log_cap))
    return green


def eval_g(green: GreenData, z, side: Side = Side.OFF):
    """Evaluate the Green's function.

    Boundary values on bands and gaps come from the kernel boundary variants;
    z strictly off the real axis uses the principal branches.  Vectorized in z:
    one pass over every band at once (green.g_series), the bands' terms added
    in band order.  z may be 1-d points' CutGeometry for a stack whose first
    intervals are the bands (as h_basis's), whose rows for them are read.
    """
    bands, masses, weights = green.g_series
    if isinstance(z, CutGeometry):
        scalar, zz, geo = False, z.z, z.part(slice(0, len(masses)))
    else:
        scalar, zz = np.ndim(z) == 0, np.atleast_1d(z)
        geo = CutGeometry(bands, zz.ravel(), side)
    logs = masses * geo.log_J()
    series = series_at(ChebKind.U, weights, geo)
    total = np.zeros(zz.size, dtype=complex)
    for log_term, series_term in zip(logs, series):
        total = total - log_term
        total = total + series_term
    total = (total - green.phi_ref).reshape(zz.shape)
    return complex(total[0]) if scalar else total
