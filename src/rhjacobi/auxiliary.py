"""Auxiliary function removing the n-dependent constant jumps on the gaps.

The function is R(z) times a combination of Cauchy transforms of 1/R densities
over bands and gaps, with band constants A_j(n) solving a small moment system
whose right-hand side carries the principal-log-wrapped gap phases.  The moment
matrix is n-independent, so one factorization serves every n.  The densities
are the band and gap series that build_green expands; the factors tying them
to 1/R are the closed-form Plemelj constants -i pi and pi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cauchy import CutGeometry, Side, series_at
from .chebyshev import ChebKind, moments
from .errors import ImagPartWarning, SolverError
from .green import GreenData, band_product
from .weights import WeightSpec

# Constants tying a density series to the 1/R density it stands for (see
# build_hsystem).
BAND_FACTOR = -1j * np.pi
GAP_FACTOR = np.pi


@dataclass
class HSystem:
    """Moments of GreenData's band and gap series, and the reusable inverse."""

    H: np.ndarray           # (g+2, g+1): band moments, rows k = 1..g+2
    G: np.ndarray           # (g+2, g): gap moments
    H_inv: np.ndarray       # inverse of the top (g+1) x (g+1) block


@dataclass
class AuxData:
    """Per-index data: constants, wrapped gap logs, and the 1/z coefficient."""

    n: int
    A: np.ndarray        # (g+1,) real
    nu: np.ndarray       # (g,) purely imaginary, Im in (-pi, pi]
    h1: complex


def wrap_angle(theta):
    """Reduce angles into (-pi, pi], elementwise; a float for a float.

    Angles within 1e-8 of an integer multiple of pi are snapped to the exact
    principal value (0 or +pi) so that weights with rational phase ratios wrap
    deterministically instead of straddling the branch boundary by rounding.
    """
    theta = np.asarray(theta, dtype=float)
    q = theta / np.pi
    k = np.rint(q)
    w = np.remainder(theta + np.pi, 2.0 * np.pi)
    w = np.where(w <= 0.0, w + 2.0 * np.pi, w) - np.pi
    out = np.where(np.abs(q - k) < 1e-8, np.where(np.remainder(k, 2.0) == 0.0, 0.0, np.pi), w)
    return float(out) if out.ndim == 0 else out


def build_hsystem(spec: WeightSpec, green: GreenData) -> HSystem:
    """Moments of 1/R over bands and gaps, from the density series of build_green.

    By the Plemelj jump of the first-kind Cauchy transform, a series of
    i sqrt(x-a) sqrt(b-x)/R_plus on a band stands for -i pi times 1/R_plus
    against the normalized first-kind weight, and one of sqrt(x-a) sqrt(b-x)/R
    on a gap for pi times 1/R; these are BAND_FACTOR and GAP_FACTOR.  Every
    moment comes from one chebyshev.moments pass over both series lists.
    """
    g = spec.genus
    M = moments(green.band_beta + green.gap_beta, g + 2)
    H = BAND_FACTOR * M[:g + 1].T
    G = GAP_FACTOR * M[g + 1:].T
    try:
        H_inv = np.linalg.inv(H[: g + 1, :])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"moment matrix is singular (g={g}): {exc}") from exc
    return HSystem(H=H, G=G, H_inv=H_inv)


def solve_aux(hsys: HSystem, green: GreenData, n: int) -> AuxData:
    """Wrapped gap phases, band constants, and the 1/z coefficient for index n."""
    return solve_aux_block(hsys, green, [n])[0]


def solve_aux_block(hsys: HSystem, green: GreenData, ns) -> list:
    """solve_aux for every index of ns at once, one AuxData per index.  Each
    product is a sum along the last axis, per index and in a fixed order, so
    an index's AuxData does not depend on the other indices of ns."""
    g = len(green.deltas)
    nu = 1j * wrap_angle(np.array(ns, dtype=float)[:, None] * green.deltas.imag)
    rhs = -np.sum(hsys.G[: g + 1] * nu[:, None, :], axis=-1)
    A = np.sum(hsys.H_inv * rhs[:, None, :], axis=-1)
    for n, drift in zip(ns, np.max(np.abs(A.imag), axis=-1)):
        if drift > 1e-10:
            warnings.warn(f"band constants carry imaginary part {drift:.2e} at n={n}",
                          ImagPartWarning, stacklevel=2)
    A = A.real
    # 1/z coefficient: the first unbalanced moment, scaled by the Cauchy kernel's
    # own -1/(2 pi i); the jump identities fix this normalization.
    moment = np.sum(hsys.H[g + 1] * A, axis=-1) + np.sum(hsys.G[g + 1] * nu, axis=-1)
    h1 = -moment / (2j * np.pi)
    return [AuxData(n=n, A=A[k], nu=nu[k], h1=complex(h1[k])) for k, n in enumerate(ns)]


def h_basis(green: GreenData, z, side: Side = Side.OFF) -> tuple:
    """(R(z), transforms): the first-kind Cauchy transform of each of green's
    band series, then of each gap series, stacked to shape (2g+1,) + z.shape.
    Both depend on the bands only, not on n or the weight, so values at fixed
    points serve every index and every weight on these bands (combine_h).
    One pass over every band and gap at once (green.h_series): the bands'
    sqrt_cut rows of the transforms' geometry also make R.  z may be 1-d
    points' CutGeometry for the bands, then the gaps, which is then read."""
    intervals, coeffs = green.h_series
    if isinstance(z, CutGeometry):
        geo, zz = z, z.z
    else:
        zz = np.atleast_1d(z)
        geo = CutGeometry(intervals, zz.ravel(), side)
    transforms = series_at(ChebKind.T, coeffs, geo).reshape((len(coeffs),) + zz.shape)
    return band_product(geo.S[:len(green.bands)]).reshape(zz.shape), transforms


def h_weights(aux: AuxData) -> np.ndarray:
    """The 2g+1 weights of the h basis for aux's index: A_j BAND_FACTOR, then
    nu_l GAP_FACTOR."""
    return np.concatenate([aux.A * BAND_FACTOR, aux.nu * GAP_FACTOR])


def combine_h(weights: np.ndarray, R: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """The auxiliary function from h_basis: R times the combination of the
    transforms with the h_weights of one index, shape (2g+1,), or of several
    stacked, shape (K, 2g+1), which adds a leading axis over them.  The sum
    runs term by term, so an index's values do not depend on which others are
    stacked with it; a term whose weights are all zero is skipped."""
    acc = np.zeros(weights.shape[:-1] + R.shape, dtype=complex)
    for weight, transform in zip(np.moveaxis(weights, -1, 0), transforms):
        if np.any(weight != 0.0):
            acc += np.reshape(weight, weight.shape + (1,) * R.ndim) * transform
    return R * acc


def eval_h(green: GreenData, aux: AuxData, z, side: Side = Side.OFF):
    """Evaluate the auxiliary function for aux's index from green's series;
    boundary values via kernel variants."""
    out = combine_h(h_weights(aux), *h_basis(green, z, side))
    return complex(out[0]) if np.ndim(z) == 0 else out
