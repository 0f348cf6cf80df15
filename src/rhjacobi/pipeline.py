"""End-to-end computations: recurrence coefficients, weighted Cauchy transforms,
Toda-lattice evolution, and series approximation of 1/x on disconnected domains.

One Riemann-Hilbert solve per index n, reused between consecutive coefficient
pairs.  The indices a call needs are asked for up front and solved in blocks:
one solve_matrix_rhp call per block stacks the jump data, the assembly and the
residual of all its indices and factors one band system per index.  The
Green's function, moment system, contours and collocation operator are built
once per weight geometry and shared across n (and across Toda times, whose
exponential factor changes only the jump data).
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import AuxData, build_hsystem, combine_h, h_weights, solve_aux, solve_aux_block
from .errors import DomainError, ImagPartWarning, PrecisionWarning, RHJacobiError, SolverError
from .green import build_green
from .oracle import adaptive_gauss_mass
from .rhp import (STAGES, JumpAssembly, JumpValues, RHSolution, build_contours, first_order,
                  solve_matrix_rhp)
from .weights import WeightSpec

IMAG_DROP = 1e-9
IMAG_ERROR = 1e-6

# Collocation points per band; each circle takes rhp.CIRCLE_POINTS_PER_PPI
# times as many.
DEFAULT_PPI = 16

# Largest |F - I| on circles before double precision degrades visibly.
JUMP_MAGNITUDE_HORIZON = 1e7

# Bytes of stacked band systems (8 bytes per entry of the real systems) that
# one block solve may hold: 32 indices of 64 unknowns, 8 of 128.
BLOCK_BYTES = 1 << 20


@dataclass
class JacobiSegment:
    """Computed (a_n, b_n) for n in [n0, n1], with run metadata."""

    n0: int
    n1: int
    a: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)

    @property
    def ns(self) -> np.ndarray:
        return np.arange(self.n0, self.n1 + 1)


@dataclass
class TodaTrajectory:
    times: np.ndarray
    segments: list
    warnings_: list = field(default_factory=list)


class SolveContext:
    """Everything the solves for one weight share, and a cache of the solves.

    Per geometry (the bands and ppi, the collocation points per band): green,
    hsys and the contours, built here; the contours' collocation operator and
    g and the h basis at the circle points (read from green by jump_values),
    built inside the first solve.  Per jump spec, jump_values: its spec, the
    weight the jumps are taken from, and the weight values at the nodes, also
    built inside the first solve.  with_jump_spec replaces it by a weight of
    the same kinds on the same bands (e.g. exponentially scaled) and shares
    everything per geometry.  Per index n: the auxiliary data (aux) and the
    block that solved n, both cached; the block holds n's RHSolution or the
    SolverError its solve failed with.  solve(ns) solves the indices of ns
    that are not cached in blocks, one solve_matrix_rhp call each, after
    one solve_aux_block call for the auxiliary data of all of them;
    solution(n) is a block of one where n is not cached yet.  stages adds up
    the seconds of every block solved here, per stage of rhp.STAGES.
    """

    def __init__(self, spec: WeightSpec, ppi: int = DEFAULT_PPI):
        self.spec = spec
        self.ppi = ppi
        self.green = build_green(spec)
        self.hsys = build_hsystem(spec, self.green)
        self.contours = build_contours(spec, ppi)
        self.jump_values = JumpValues(spec, self.green, self.contours)
        self.stages = dict.fromkeys(STAGES, 0.0)
        self._aux: dict = {}
        self._solutions: dict = {}

    def aux(self, n: int) -> AuxData:
        if n not in self._aux:
            self._aux[n] = solve_aux(self.hsys, self.green, n)
        return self._aux[n]

    def solve(self, ns) -> None:
        """Solve every index of ns that is not cached yet, in order, in blocks
        of as many indices as fit BLOCK_BYTES of band systems (at least one);
        DomainError, before any solve, unless every index is a non-negative
        integer."""
        for n in ns:
            _check_index(n, "an index")
        missing = [n for n in dict.fromkeys(ns) if n not in self._solutions]
        new = [n for n in missing if n not in self._aux]
        self._aux.update(zip(new, solve_aux_block(self.hsys, self.green, new)))
        unknowns = 2 * sum(bp.n_points for bp in self.contours.bands)
        size = max(1, BLOCK_BYTES // (8 * unknowns ** 2))
        for start in range(0, len(missing), size):
            jumps = JumpAssembly([self.aux(n) for n in missing[start:start + size]],
                                 self.jump_values)
            block = solve_matrix_rhp(self.jump_values.spec, self.contours, jumps)
            for stage, seconds in block.stages.items():
                self.stages[stage] += seconds
            self._solutions.update(dict.fromkeys(block.solutions, block))

    def solution(self, n: int) -> RHSolution:
        """The solve for index n; the SolverError it failed with is raised."""
        _check_index(n, "an index")
        if n not in self._solutions:
            self.solve([n])
        return self._solutions[n][n]

    def with_jump_spec(self, jump_spec: WeightSpec) -> "SolveContext":
        """This context with jump_spec's jump data, an empty solution cache and
        zeroed stages; DomainError unless jump_spec has spec's bands and kinds."""
        if (jump_spec.bands, jump_spec.kinds) != (self.spec.bands, self.spec.kinds):
            raise DomainError("a jump spec must have the context's bands and kinds")
        ctx = copy.copy(self)
        ctx.jump_values = self.jump_values.for_spec(jump_spec)
        ctx.stages = dict.fromkeys(STAGES, 0.0)
        ctx._solutions = {}
        return ctx


def _check_index(value, what: str) -> None:
    """DomainError unless value is a non-negative int or NumPy integer (not a
    bool): the rule for every index and count of indices."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {value!r}")


def _context(spec: WeightSpec, ppi: int | None, context: SolveContext | None) -> SolveContext:
    """context, or a new one for spec at ppi (DEFAULT_PPI if None);
    DomainError if context was built for another weight, or if ppi is given
    and differs from the context's."""
    if context is None:
        return SolveContext(spec, DEFAULT_PPI if ppi is None else ppi)
    if context.spec != spec:
        raise DomainError("the context was built for another weight")
    if ppi is not None and ppi != context.ppi:
        raise DomainError(f"ppi {ppi!r} differs from the context's {context.ppi}")
    return context


def _realify(value: complex, what: str, n: int) -> float:
    if not np.isfinite(value):
        raise SolverError(f"{what} at n={n} is {value}; solve is under-resolved")
    im, re = abs(value.imag), value.real
    if im >= IMAG_ERROR:
        raise SolverError(f"{what} at n={n} has imaginary part {im:.2e}; solve is under-resolved")
    if im >= IMAG_DROP:
        warnings.warn(f"{what} at n={n} carries imaginary part {im:.2e}",
                      ImagPartWarning, stacklevel=3)
    return float(re)


def _pair_from_orders(ctx: SolveContext, n: int, S1_n: np.ndarray, S1_n1: np.ndarray):
    h1_n = ctx.aux(n).h1
    h1_n1 = ctx.aux(n + 1).h1
    a_c = S1_n[0, 0] - S1_n1[0, 0] - h1_n + h1_n1 - ctx.green.g1
    prod = S1_n1[0, 1] * S1_n1[1, 0]
    if prod.real <= 0.0:
        raise SolverError(
            f"b_{n} radicand {prod:.3e} is not positive; increase the resolution")
    b_c = np.sqrt(prod)
    return _realify(a_c, "a", n), _realify(b_c, "b", n)


def recurrence_range(spec: WeightSpec, n0: int, n1: int, ppi: int | None = None, *,
                     context: SolveContext | None = None) -> JacobiSegment:
    """Pairs (a_n, b_n) for n0 <= n <= n1; one solve per index, shared between
    neighbors, the solves for n0..n1+1 asked of the context up front, which
    makes them in blocks (SolveContext.solve).  n0 and n1 are non-negative
    integers (DomainError otherwise).  Numerical failures of one index are
    recorded as (n, message) in meta["failures"] and the computation
    continues; a failed index does not change the others in its block.  A
    context must be built for spec, and at ppi where ppi is given (DomainError
    otherwise); without one a new one at ppi, or DEFAULT_PPI, is used.

    Per-index arrays in meta, NaN (or -1 for counts) where the pair failed:
    residuals, the larger off-collocation residual of the pair's two solves;
    rcond, the smaller of the two solves' condition estimates, each taken for
    the real band system left after the circles are eliminated (LAPACK
    dgecon's 1-norm estimate, about 10 times the estimate for the complex
    system of both columns' equations: the real system is better
    conditioned; it moves by up to about 1e-3 relative when the system
    changes only by rounding, so compare it across versions to 2-3 digits);
    circles_used, the number of circles the solve for n kept (circles whose
    jump is the identity are dropped); circle_deviation, the largest |F - I|
    over the circle nodes of the solve for n.  circle_deviation is kept where
    the pair or the solve for n failed after its jumps were evaluated (NaN
    only if that solve failed before), since large jump data makes pairs
    fail.
    meta["stages"] holds the seconds this call's block solves spent per stage
    of rhp.STAGES, summed over the blocks ("tables" is the collocation
    operator's build, paid by the first block on a context, and each circle's
    Laurent tables, paid by the first block with an index that keeps the
    circle).
    """
    _check_index(n0, "n0")
    _check_index(n1, "n1")
    if n0 > n1:
        raise DomainError(f"need 0 <= n0 <= n1, got ({n0}, {n1})")
    ctx = _context(spec, ppi, context)
    t_start = time.perf_counter()
    count = n1 - n0 + 1
    a = np.full(count, np.nan)
    b = np.full(count, np.nan)
    residuals = np.full(count, np.nan)
    rcond = np.full(count, np.nan)
    circles_used = np.full(count, -1)
    circle_deviation = np.full(count, np.nan)
    failures = []
    orders: dict = {}
    stages_before = dict(ctx.stages)

    try:
        ctx.solve(range(n0, n1 + 2))
    except (RHJacobiError, np.linalg.LinAlgError, FloatingPointError):
        pass  # a block failed as a whole: each index below is solved alone

    def order_of(n):
        if n not in orders:
            orders[n] = first_order(ctx.solution(n))
        return orders[n]

    for i, n in enumerate(range(n0, n1 + 1)):
        try:
            circle_deviation[i] = ctx.solution(n).residual.circle_deviation
            a[i], b[i] = _pair_from_orders(ctx, n, order_of(n), order_of(n + 1))
            pair = (ctx.solution(n), ctx.solution(n + 1))
            residuals[i] = max(s.residual.off_collocation for s in pair)
            rcond[i] = min(s.residual.rcond for s in pair)
            circles_used[i] = len(pair[0].circle_coeffs)
        except (RHJacobiError, np.linalg.LinAlgError, FloatingPointError) as exc:
            failures.append((n, str(exc)))
            if np.isnan(circle_deviation[i]):  # the solve for n failed
                circle_deviation[i] = getattr(exc, "circle_deviation", np.nan)
    meta = {
        "method": "rh",
        "ppi": ctx.ppi,
        "wall_time": time.perf_counter() - t_start,
        "residuals": residuals,
        "rcond": rcond,
        "circles_used": circles_used,
        "circle_deviation": circle_deviation,
        "max_residual": float(np.nanmax(residuals)) if np.any(np.isfinite(residuals)) else np.nan,
        "failures": failures,
        "stages": {stage: ctx.stages[stage] - stages_before[stage] for stage in STAGES},
    }
    return JacobiSegment(n0=n0, n1=n1, a=a, b=b, meta=meta)


def cauchy_pn(spec: WeightSpec, n: int, z, ppi: int | None = None, *,
              context: SolveContext | None = None,
              jacobi: JacobiSegment | None = None) -> complex:
    """Cauchy transform at z of (nth orthonormal polynomial) x (weight).

    The polynomials are orthonormal for the unit-mass normalization of the
    weight with p_0 = 1; the transform integrates against the raw weight.  The
    n-fold product of 1/(b_j c) is accumulated in log space, so b_0..b_{n-1}
    must be finite and positive (DomainError otherwise).  n is a non-negative
    integer and z finite (DomainError otherwise).  context and ppi as in
    recurrence_range.
    """
    _check_index(n, "n")
    zc = complex(z)
    if not np.isfinite(zc):
        raise DomainError(f"evaluation point {zc} is not finite")
    ctx = _context(spec, ppi, context)
    for band in spec.bands:
        if abs(zc.imag) < 1e-8 and band.a - 1e-8 <= zc.real <= band.b + 1e-8:
            warnings.warn(f"evaluation point {zc} is within 1e-8 of the support",
                          PrecisionWarning, stacklevel=2)
    if jacobi is not None and n > 0:
        if jacobi.n0 > 0 or jacobi.n1 < n - 1:
            raise DomainError("provided Jacobi segment does not cover 0..n-1")
        bs = jacobi.b[: n]
    elif n > 0:
        seg = recurrence_range(spec, 0, n - 1, context=ctx)
        if seg.meta["failures"]:
            raise SolverError(f"coefficient computation failed: {seg.meta['failures']}")
        bs = seg.b
    else:
        bs = np.empty(0)
    bad = np.flatnonzero(~(np.isfinite(bs) & (bs > 0.0)))
    if bad.size:
        raise DomainError(f"b_{bad[0]} = {bs[bad[0]]} is not finite and positive")
    R, transforms, g = ctx.jump_values.point(zc)
    expo = (complex(combine_h(h_weights(ctx.aux(n)), R, transforms)[0]) - n * g[0]
            - np.sum(np.log(bs.astype(complex) * ctx.green.cap_const)))
    s12 = ctx.solution(n).eval(zc)[0, 1]
    return complex(s12 * np.exp(expo))


def toda_evolve(spec0: WeightSpec, k: int, times, ppi: int = DEFAULT_PPI) -> TodaTrajectory:
    """First k coefficient pairs of the weight scaled by exp(t x), per time;
    times is one time or a 1-d sequence of them (DomainError otherwise).

    The Green's function, moment system, and contours depend only on the bands
    and are computed once; only the jump data and solves are per-time.  A time
    whose circle-jump deviation at n = 0 exceeds JUMP_MAGNITUDE_HORIZON is
    recorded in warnings_ and raises a PrecisionWarning.
    """
    _check_index(k, "k")
    if k < 1:
        raise DomainError("need at least one coefficient pair")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise DomainError(f"times must be finite and at most 1-d, got shape {times.shape}")
    base = SolveContext(spec0, ppi)
    segments = []
    warns = []
    for t in times:
        ctx = base.with_jump_spec(spec0.with_exp_factor(float(t)))
        seg = recurrence_range(spec0, 0, k - 1, context=ctx)
        dev = seg.meta["circle_deviation"][0]
        if dev > JUMP_MAGNITUDE_HORIZON:
            warns.append((float(t), dev))
            warnings.warn(
                f"circle jump magnitude {dev:.2e} at t={t:g} exceeds "
                f"{JUMP_MAGNITUDE_HORIZON:.1e}; results beyond this horizon lose precision",
                PrecisionWarning, stacklevel=2)
        segments.append(seg)
    return TodaTrajectory(times=times, segments=segments, warnings_=warns)


@dataclass
class RecipApproximation:
    """Expansion data for approximating 1/x on the weight's support."""

    coeffs: np.ndarray          # series coefficients against p_0, p_1, ...
    max_errors: np.ndarray      # max-grid error of the N-term partial sum, N = 1..len
    rate: float                 # reference per-term decay exp(-Re g(0))
    grid: np.ndarray
    eta: float                  # total mass of the raw weight
    g0: complex                 # Green's function at 0


def orthonormal_eval(segment: JacobiSegment, count: int, x) -> np.ndarray:
    """Values of p_0..p_{count-1} at x via the forward three-term recurrence."""
    if count < 1:
        raise DomainError(f"need at least one polynomial, got count={count}")
    if segment.n0 != 0 or count - 2 > segment.n1:
        raise DomainError("segment must cover indices 0..count-2")
    x = np.asarray(x, dtype=float)
    out = np.empty((count, ) + x.shape)
    out[0] = 1.0
    if count > 1:
        out[1] = (x - segment.a[0]) / segment.b[0]
    for k in range(1, count - 1):
        out[k + 1] = ((x - segment.a[k]) * out[k] - segment.b[k - 1] * out[k - 1]) / segment.b[k]
    return out


def recip_approx(spec: WeightSpec, n_terms: int, grid=None, ppi: int | None = None, *,
                 context: SolveContext | None = None) -> RecipApproximation:
    """Coefficients and partial-sum errors of the expansion of 1/x on the
    support; context and ppi as in recurrence_range.  0 may lie inside a
    deformation disk: the circle jumps, unit lower-triangular, leave the (1, 2)
    entry that cauchy_pn reads unchanged.  The context's jump values hold g
    and the h basis at 0, evaluated once for every term."""
    _check_index(n_terms, "n_terms")
    if n_terms < 1:
        raise DomainError("need at least one term")
    for band in spec.bands:
        if band.a <= 0.0 <= band.b:
            raise DomainError("0 lies inside the support; the expansion is undefined")
    ctx = _context(spec, ppi, context)

    if grid is None:
        grid = np.concatenate([np.arange(b.a, b.b + 1e-12, 0.01) for b in spec.bands])
    grid = np.asarray(grid, dtype=float)

    segment = recurrence_range(spec, 0, max(n_terms - 1, 0), context=ctx)
    if segment.meta["failures"]:
        raise SolverError(f"coefficient computation failed: {segment.meta['failures']}")
    eta = sum(adaptive_gauss_mass(spec, j) for j in range(len(spec.bands)))
    g0 = ctx.jump_values.point(0.0)[2][0]

    coeffs = np.empty(n_terms)
    for j in range(n_terms):
        cj = cauchy_pn(spec, j, 0.0, context=ctx, jacobi=segment)
        coeffs[j] = _realify(2j * np.pi * cj / eta, "recip coefficient", j)

    pvals = orthonormal_eval(segment, n_terms, grid)
    target = 1.0 / grid
    partial = np.zeros_like(grid)
    max_errors = np.empty(n_terms)
    for j in range(n_terms):
        partial = partial + coeffs[j] * pvals[j]
        max_errors[j] = np.max(np.abs(partial - target))
    return RecipApproximation(coeffs=coeffs, max_errors=max_errors,
                              rate=float(np.exp(-g0.real)), grid=grid,
                              eta=float(eta), g0=complex(g0))
