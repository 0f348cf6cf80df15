"""Auxiliary function removing the n-dependent constant jumps on the gaps.

The function is R(z) times a combination of Cauchy transforms of 1/R densities
over bands and gaps, with band constants A_j(n) solving a small moment system
whose right-hand side carries the principal-log-wrapped gap phases.  The moment
matrix is n-independent, so one factorization serves every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import Side, cauchy_cheb_table
from .chebyshev import ChebKind, ChebSeries, band_integral, adaptive_dct
from .errors import ImagPartWarning, SolverError
from .green import GreenData, eval_R
from .weights import WeightSpec
import warnings


@dataclass
class HSystem:
    """Moment matrix, reusable inverse, densities, and calibrated prefactors."""

    bands: tuple
    gaps: tuple
    H: np.ndarray           # (g+2, g+1): band moments, rows k = 1..g+2
    G: np.ndarray           # (g+2, g): gap moments
    H_inv: np.ndarray       # inverse of the top (g+1) x (g+1) block
    band_beta: list         # per band: first-kind series of i sqrt sqrt / R_plus
    gap_beta: list          # per gap: first-kind series of sqrt sqrt / R
    band_prefactor: np.ndarray   # calibrated scalar tying each band series to 1/R_plus
    gap_prefactor: np.ndarray    # same for gaps


@dataclass
class AuxData:
    """Per-index data: constants, wrapped gap logs, and the 1/z coefficient."""

    n: int
    A: np.ndarray        # (g+1,) real
    nu: np.ndarray       # (g,) purely imaginary, Im in (-pi, pi]
    h1: complex


def wrap_angle(theta: float) -> float:
    """Reduce an angle into (-pi, pi].

    Angles within 1e-8 of an integer multiple of pi are snapped to the exact
    principal value (0 or +pi) so that weights with rational phase ratios wrap
    deterministically instead of straddling the branch boundary by rounding.
    """
    q = theta / np.pi
    if abs(q - round(q)) < 1e-8:
        return 0.0 if round(q) % 2 == 0 else np.pi
    w = np.remainder(theta + np.pi, 2.0 * np.pi)
    if w <= 0.0:
        w += 2.0 * np.pi
    return float(w - np.pi)


def _plemelj_prefactor(series: ChebSeries, direct_value: complex, x0: float) -> complex:
    """Scalar lambda with lambda * sum_k c_k (C_k^+ - C_k^-) = density at x0.

    By the jump identity the bracket equals the series times the normalized
    first-kind weight, so lambda recovers the constant tying the expansion to
    the actual density; conventions are measured, not assumed.
    """
    iv = series.interval
    kp = cauchy_cheb_table(ChebKind.T, len(series), iv, np.array([x0]), Side.PLUS)
    km = cauchy_cheb_table(ChebKind.T, len(series), iv, np.array([x0]), Side.MINUS)
    jump = (kp - km)[0] @ series.coeffs
    return complex(direct_value / jump)


def build_hsystem(spec: WeightSpec, green: GreenData) -> HSystem:
    """Moments of 1/R over bands and gaps, density expansions, and calibration."""
    g = spec.genus
    bands, gaps = spec.bands, spec.gaps

    def band_density(band):
        def f(x):
            return 1j * np.sqrt(x - band.a) * np.sqrt(band.b - x) / eval_R(spec, x, Side.PLUS)
        return f

    def gap_density(gap):
        def f(x):
            return np.sqrt(x - gap.a) * np.sqrt(gap.b - x) / np.real(eval_R(spec, x, Side.PLUS))
        return f

    H = np.empty((g + 2, g + 1), dtype=complex)
    for j, band in enumerate(bands):
        dens = band_density(band)
        for k in range(1, g + 3):
            H[k - 1, j] = -1j * np.pi * band_integral(lambda x: x ** (k - 1) * dens(x), band)
    G = np.empty((g + 2, g), dtype=complex)
    for ell, gap in enumerate(gaps):
        dens = gap_density(gap)
        for k in range(1, g + 3):
            G[k - 1, ell] = np.pi * band_integral(lambda x: x ** (k - 1) * dens(x), gap)

    top = H[: g + 1, :]
    try:
        H_inv = np.linalg.inv(top)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"moment matrix is singular (g={g}): {exc}") from exc

    band_beta, band_pref = [], np.empty(g + 1, dtype=complex)
    for j, band in enumerate(bands):
        ser = adaptive_dct(band_density(band), band)
        x0 = band.mid
        direct = 1.0 / eval_R(spec, x0, Side.PLUS)
        band_beta.append(ser)
        band_pref[j] = _plemelj_prefactor(ser, direct, x0)
    gap_beta, gap_pref = [], np.empty(g, dtype=complex)
    for ell, gap in enumerate(gaps):
        ser = adaptive_dct(gap_density(gap), gap)
        x0 = gap.mid
        direct = 1.0 / np.real(eval_R(spec, x0, Side.PLUS))
        gap_beta.append(ser)
        gap_pref[ell] = _plemelj_prefactor(ser, direct, x0)

    return HSystem(bands=bands, gaps=gaps, H=H, G=G, H_inv=H_inv,
                   band_beta=band_beta, gap_beta=gap_beta,
                   band_prefactor=band_pref, gap_prefactor=gap_pref)


def solve_aux(hsys: HSystem, green: GreenData, n: int) -> AuxData:
    """Wrapped gap phases, band constants, and the 1/z coefficient for index n."""
    g = len(hsys.bands) - 1
    nu = np.array([1j * wrap_angle(n * d.imag) for d in green.deltas], dtype=complex)
    if g == 0:
        return AuxData(n=n, A=np.zeros(1), nu=nu, h1=0.0 + 0.0j)
    rhs = -(hsys.G[: g + 1, :] @ nu)
    A = hsys.H_inv @ rhs
    drift = np.max(np.abs(A.imag)) if A.size else 0.0
    if drift > 1e-10:
        warnings.warn(f"band constants carry imaginary part {drift:.2e} at n={n}",
                      ImagPartWarning, stacklevel=2)
    A = A.real
    # 1/z coefficient: the first unbalanced moment, scaled by the Cauchy kernel's
    # own -1/(2 pi i); the jump identities fix this normalization.
    moment = hsys.H[g + 1, :] @ A + hsys.G[g + 1, :] @ nu
    h1 = -moment / (2j * np.pi)
    return AuxData(n=n, A=A, nu=nu, h1=complex(h1))


def eval_h(spec: WeightSpec, hsys: HSystem, aux: AuxData, z, side: Side = Side.OFF):
    """Evaluate the auxiliary function; boundary values via kernel variants."""
    scalar = np.ndim(z) == 0
    zz = np.atleast_1d(z)
    if len(hsys.bands) == 1:
        out = np.zeros(zz.shape, dtype=complex)
        return complex(out[0]) if scalar else out
    acc = np.zeros(zz.shape, dtype=complex)
    for j, ser in enumerate(hsys.band_beta):
        if aux.A[j] == 0.0:
            continue
        table = cauchy_cheb_table(ChebKind.T, len(ser), ser.interval, zz, side)
        acc = acc + aux.A[j] * hsys.band_prefactor[j] * (table @ ser.coeffs)
    for ell, ser in enumerate(hsys.gap_beta):
        if aux.nu[ell] == 0.0:
            continue
        table = cauchy_cheb_table(ChebKind.T, len(ser), ser.interval, zz, side)
        acc = acc + aux.nu[ell] * hsys.gap_prefactor[ell] * (table @ ser.coeffs)
    out = eval_R(spec, zz, side) * acc
    return complex(out[0]) if scalar else out
