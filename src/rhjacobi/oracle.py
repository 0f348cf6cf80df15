"""Independent reference computation: discretize the weight by per-band Gauss
rules and tridiagonalize the discrete measure by Lanczos with full
reorthogonalization.  Used for verification and benchmarking only.  The
Riemann-Hilbert pipeline imports nothing from here, so the two share no code
path beyond the weight's definition (WeightSpec) and the JacobiSegment that
both return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import gauss_cheb_rule
from .errors import ConvergenceError, DomainError, SolverError
from .pipeline import JacobiSegment
from .weights import WeightSpec

_MAX_M_PER_BAND = 2 ** 15

# First node count and doubling tolerance of adaptive_gauss_mass.
MASS_M0 = 32
MASS_RTOL = 1e-13


@dataclass
class DiscreteMeasure:
    """Finitely many point masses approximating the weight."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != self.weights.shape:
            raise DomainError("nodes and weights must have equal lengths")
        if np.any(self.weights <= 0.0):
            raise DomainError("weights must be positive")

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


def discretize(spec: WeightSpec, m_per_band: int) -> DiscreteMeasure:
    """Union over bands of the kind-matched Gauss rules with the h scaling."""
    if m_per_band < 1:
        raise DomainError("need at least one node per band")
    nodes, weights = [], []
    for band, kind, h in zip(spec.bands, spec.kinds, spec.h):
        x, w = gauss_cheb_rule(kind, band, m_per_band, lambda t: np.real(h(t)))
        nodes.append(x)
        weights.append(w)
    return DiscreteMeasure(np.concatenate(nodes), np.concatenate(weights))


def adaptive_gauss_mass(spec: WeightSpec, j: int) -> float:
    """Total mass of band j of the raw weight, by rule doubling."""
    band, kind, h = spec.bands[j], spec.kinds[j], spec.h[j]
    m = MASS_M0
    prev = None
    while m <= _MAX_M_PER_BAND:
        _, w = gauss_cheb_rule(kind, band, m, lambda t: np.real(h(t)))
        val = float(w.sum())
        if prev is not None and abs(val - prev) <= MASS_RTOL * max(1.0, abs(val)):
            return val
        prev = val
        m *= 2
    raise ConvergenceError(f"band-{j} mass did not stabilize by m={_MAX_M_PER_BAND}")


def tridiagonalize(measure: DiscreteMeasure, n_coeffs: int):
    """Leading (a_n, b_n), n < n_coeffs, of the discrete measure's Jacobi matrix.

    Lanczos on diag(nodes) seeded with sqrt(weights), with full
    reorthogonalization applied twice per step.
    """
    m = measure.nodes.size
    if n_coeffs < 1:
        raise DomainError("need at least one coefficient")
    if n_coeffs >= m:
        raise DomainError(f"need strictly more nodes than coefficients ({n_coeffs} >= {m})")
    x = measure.nodes
    a = np.empty(n_coeffs)
    b = np.empty(n_coeffs)
    V = np.empty((m, n_coeffs + 1))
    v = np.sqrt(measure.weights)
    v /= np.linalg.norm(v)
    V[:, 0] = v
    v_prev = np.zeros(m)
    beta_prev = 0.0
    for k in range(n_coeffs + 1):
        u = x * v
        alpha = v @ u
        if k < n_coeffs:
            a[k] = alpha
        if k == n_coeffs:
            break
        u = u - alpha * v - beta_prev * v_prev
        # Full reorthogonalization, twice.
        u -= V[:, : k + 1] @ (V[:, : k + 1].T @ u)
        u -= V[:, : k + 1] @ (V[:, : k + 1].T @ u)
        beta = np.linalg.norm(u)
        if beta < 1e-14:
            raise SolverError(
                f"Lanczos breakdown at step {k}: the discrete measure supports "
                f"fewer than {n_coeffs + 1} orthogonal polynomials")
        b[k] = beta
        v_prev, v = v, u / beta
        V[:, k + 1] = v
        beta_prev = beta
    return JacobiSegment(n0=0, n1=n_coeffs - 1, a=a, b=b,
                         meta={"method": "oracle", "m_total": m})


def adaptive_oracle(spec: WeightSpec, n_coeffs: int, tol: float = 1e-11):
    """Double the per-band node count until two successive segments agree
    entrywise within tol."""
    if not tol >= 1e-13:  # also false for nan
        raise DomainError(f"tolerance must be >= 1e-13, the smallest resolvable in "
                          f"double precision; got {tol}")
    m = max(64, 2 * n_coeffs)
    prev = None
    while m <= _MAX_M_PER_BAND:
        seg = tridiagonalize(discretize(spec, m), n_coeffs)
        if prev is not None:
            delta = max(np.max(np.abs(seg.a - prev.a)), np.max(np.abs(seg.b - prev.b)))
            if delta <= tol:
                seg.meta.update({"m_per_band": m, "delta": float(delta), "tol": tol})
                return seg
        prev = seg
        m *= 2
    raise ConvergenceError(
        f"oracle did not stabilize to {tol:g} within {_MAX_M_PER_BAND} nodes per band")
