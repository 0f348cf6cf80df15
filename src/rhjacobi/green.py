"""Exterior Green's function with pole at infinity for a union of bands.

The derivative is Q_g(z)/R(z) with R the band square-root product and Q_g the
monic degree-g polynomial killing the gap periods.  The function itself is
assembled from antiderivatives of Chebyshev-kernel Cauchy transforms: the
degree-0 term integrates to a log of the inverse Joukowsky map and the higher
terms to second-kind kernels.  Normalization makes the function vanish (up to
the intrinsic i pi phase) at the leftmost band endpoint, which pins the
capacity-type constant and the 1/z coefficient.  build_green expands each
band and gap density of 1/R once; Q_g, the equilibrium masses and the
auxiliary function's moment system are all read from those series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import (Side, cauchy_cheb_series, joukowsky_inv, log_joukowsky_inv, sqrt_cut,
                     unit_variable)
from .chebyshev import SQRT2, ChebKind, Interval, adaptive_dct
from .errors import SolverError
from .weights import WeightSpec


@dataclass
class GreenData:
    """Everything needed to evaluate the Green's function and its constants."""

    bands: tuple
    q_coeffs: np.ndarray          # ascending, monic, length g+1
    band_beta: list               # per band: first-kind series of band_density
    gap_beta: list                # per gap: first-kind series of gap_density
    band_series: list             # per band: first-kind series of Q times band_density
    alpha0: np.ndarray            # per band: equilibrium mass, band_series[j].coeffs[0]
    deltas: np.ndarray            # per gap: the (purely imaginary) jump across the gap
    cap_const: complex            # leading coefficient of exp(g) ~ c z at infinity
    g1: complex                   # 1/z coefficient of g at infinity
    phi_ref: float                # the normalization constant (branch-invariant real part)


def eval_R(spec: WeightSpec, z, side: Side = Side.OFF):
    """Product over bands of sqrt(z-a_j) sqrt(z-b_j); cuts exactly on the bands,
    ~ z^(g+1) at infinity.  On gaps the PLUS side is the continuous real value."""
    out = None
    for band in spec.bands:
        factor = sqrt_cut(z, band, side)
        out = factor if out is None else out * factor
    return out


def band_density(spec: WeightSpec, band: Interval):
    """i sqrt(x-a) sqrt(b-x) / R_plus(x) on a band: smooth and real."""
    return lambda x: 1j * np.sqrt(x - band.a) * np.sqrt(band.b - x) / eval_R(spec, x, Side.PLUS)


def gap_density(spec: WeightSpec, gap: Interval):
    """sqrt(x-a) sqrt(b-x) / R(x) on a gap: smooth and real."""
    return lambda x: np.sqrt(x - gap.a) * np.sqrt(gap.b - x) / np.real(eval_R(spec, x, Side.PLUS))


def solve_Q(gap_beta: list) -> np.ndarray:
    """Monic Q_g whose gap integrals of Q_g/R all vanish.

    The integrand's inverse-square-root endpoint factors are the first-kind
    weight, so each gap integral of x^k/R is a moment of the gap's series.
    """
    g = len(gap_beta)
    if g == 0:
        return np.array([1.0])
    M = np.array([ser.moments(g + 1).real for ser in gap_beta])
    try:
        h = np.linalg.solve(M[:, :g], -M[:, g])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"gap-period system is singular (g={g}): {exc}") from exc
    return np.concatenate([h, [1.0]])


def build_green(spec: WeightSpec) -> GreenData:
    """Expand the band and gap densities, solve for Q_g, expand Q_g times each
    band density, and fix all constants."""
    g = spec.genus
    band_beta = [adaptive_dct(band_density(spec, band), band) for band in spec.bands]
    gap_beta = [adaptive_dct(gap_density(spec, gap), gap) for gap in spec.gaps]
    q_coeffs = solve_Q(gap_beta)

    band_series = []
    for band in spec.bands:
        dens = band_density(spec, band)
        band_series.append(adaptive_dct(
            lambda x: np.polynomial.polynomial.polyval(x, q_coeffs) * dens(x), band))
    alpha0 = np.array([ser.coeffs[0] for ser in band_series])

    # Jump of g across gap ell: 2 pi i times the equilibrium mass to the right.
    prefix = np.cumsum(alpha0)
    deltas = 2j * np.pi * (1.0 - prefix[:g])

    phi_ref = _phi_ref(spec.bands, band_series)

    log_cap = -phi_ref
    g1 = 0.0 + 0.0j
    for band, ser in zip(spec.bands, band_series):
        c = ser.coeffs
        log_cap = log_cap + c[0] * np.log(4.0 / band.length)
        g1 = g1 - c[0] * band.mid
        if len(c) > 1:
            g1 = g1 - c[1] * band.length / (2.0 * SQRT2)
    cap_const = np.exp(log_cap)

    return GreenData(bands=spec.bands, q_coeffs=q_coeffs, band_beta=band_beta,
                     gap_beta=gap_beta, band_series=band_series, alpha0=alpha0,
                     deltas=deltas, cap_const=complex(cap_const), g1=complex(g1),
                     phi_ref=phi_ref)


def _phi_ref(bands, band_series) -> float:
    """Real part of the antiderivative sum at the leftmost endpoint.

    The imaginary part there is an artifact of log branches (it equals pi times
    the total equilibrium mass); the real part is branch-invariant and is the
    correct normalization for a function that is zero-real-part on the support
    and log(c z)-like at infinity.  The inverse Joukowsky value at the leftmost
    endpoint of its own band is the exact limit -1.
    """
    a1 = bands[0].a
    total = 0.0
    for j, (band, ser) in enumerate(zip(bands, band_series)):
        c = ser.coeffs
        if j == 0:
            # The affine map rounds the endpoint off -1 by ~eps, which the
            # non-Lipschitz inverse Joukowsky map amplifies to sqrt(eps);
            # substitute the exact limit instead.
            Jv = -1.0
        else:
            t = float(band.to_unit(a1))
            Jv = float(np.real(joukowsky_inv(t, Side.PLUS)))  # in (-1, 0)
        total += float(np.real(-c[0])) * np.log(abs(Jv))
        if len(c) > 1:
            ks = np.arange(1, len(c))
            total += float(np.real(-SQRT2 * np.sum(c[1:] * Jv ** ks / ks)))
    return total


def eval_g(green: GreenData, z, side: Side = Side.OFF):
    """Evaluate the Green's function.

    Boundary values on bands and gaps come from the kernel boundary variants;
    z strictly off the real axis uses the principal branches.  Vectorized in z.
    """
    scalar = np.ndim(z) == 0
    zz = np.atleast_1d(z)
    total = np.zeros(zz.shape, dtype=complex)
    for band, ser in zip(green.bands, green.band_series):
        c = ser.coeffs
        t = unit_variable(band, zz, side)
        total = total - c[0] * np.atleast_1d(log_joukowsky_inv(t, side))
        if len(c) > 1:
            ks = np.arange(1, len(c))
            wts = c[1:] * (np.pi * 1j / ks) * (band.length / SQRT2)
            total = total + cauchy_cheb_series(ChebKind.U, wts, band, zz, side)
    total = total - green.phi_ref
    return complex(total[0]) if scalar else total

