"""End-to-end computations: recurrence coefficients, weighted Cauchy transforms,
Toda-lattice evolution, and series approximation of 1/x on disconnected domains.

One Riemann-Hilbert solve per index n, each made once per call and dropped
once it is used.  Every entry point walks its indices forward in one pass
(_forward): the solves arrive in blocks, one solve_matrix_rhp call per block,
which stacks the jump data, the assembly and the residual of all its indices
and factors one band system per index; the pair (a_n, b_n) is formed as soon
as the solve for n + 1 arrives, and of each solve only what the next pair or
a Cauchy transform reads is kept, so a call holds one block and its outputs.
The Green's function, moment system, contours and collocation operator are
built once per weight geometry and shared across n (and across Toda times,
whose exponential factor changes only the jump data).
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import build_hsystem, combine_h, h_basis, h_weights, solve_aux_block
from .cauchy import cauchy_cheb_table
from .errors import DomainError, ImagPartWarning, PrecisionWarning, RHJacobiError, SolverError
from .green import build_green, eval_g
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

# Bytes that one block solve may stack over its indices (block_size).  A
# block holds one band system whatever its size; per index it stacks, at 16
# bytes per complex value, the circle entries and their products with the
# band unknowns (three values per upper circle point), the band jumps (two
# entries at every band node and test node), the unknowns (about four values
# per band node) and the residual's boundary values (eight per band test
# node): 44 indices on two bands, 22 on four, at 16 points per band.
BLOCK_BYTES = 1 << 20


def block_size(contours) -> int:
    """How many indices one block solve on contours takes: as many as stack
    BLOCK_BYTES, at least one."""
    upper = sum(len(c.upper) for c in contours.circles)
    T = contours.ppi * len(contours.bands)
    return max(1, BLOCK_BYTES // (16 * (3 * upper + 16 * T)))


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
    """Everything the solves for one weight share, and nothing per index.

    Per geometry (the bands and ppi, the collocation points per band, which
    only contours.ppi holds): green, hsys and the contours, built here; the
    contours' collocation operator and g and the h basis at the circle points
    (read from green by jump_values), built inside the first solve.  Per jump
    spec, jump_values: its spec, the weight the jumps are taken from, and the
    weight values at the nodes, also built inside the first solve.
    with_jump_spec replaces it by a weight of the same kinds on the same bands
    (e.g. exponentially scaled) and shares everything per geometry.  No
    auxiliary data and no solve is kept: solve(ns) makes them block by block
    and hands each index's over as the iteration reaches it, and solution(n)
    solves n anew.  stages adds up the seconds of every block solved here,
    per stage of rhp.STAGES; setup_stages holds the seconds of the set-up
    here, per builder: build_green, build_hsystem and build_contours.
    """

    def __init__(self, spec: WeightSpec, ppi: int = DEFAULT_PPI):
        self.spec = spec
        t0 = time.perf_counter()
        self.green = build_green(spec)
        t1 = time.perf_counter()
        self.hsys = build_hsystem(spec, self.green)
        t2 = time.perf_counter()
        self.contours = build_contours(spec, ppi)
        self.setup_stages = {"build_green": t1 - t0, "build_hsystem": t2 - t1,
                             "build_contours": time.perf_counter() - t2}
        self.jump_values = JumpValues(spec, self.green, self.contours)
        self.stages = dict.fromkeys(STAGES, 0.0)

    def solve(self, ns):
        """An iterator of (n, its AuxData, its RHSolution) over the indices of
        ns, in order; DomainError, before any solve, unless every index is a
        non-negative integer.  The indices are solved in blocks of block_size
        as the iteration reaches them, one solve_aux_block and one
        solve_matrix_rhp call per block, and a block is dropped when the next
        one is solved.  A numerical failure (RHJacobiError, LinAlgError,
        FloatingPointError) takes the place of the RHSolution: the SolverError
        an index failed with alone, or an error the whole block raised, then
        for every index of the block."""
        ns = list(ns)
        for n in ns:
            _check_index(n, "an index")
        return self._blocks(ns)

    def _blocks(self, ns: list):
        size = block_size(self.contours)
        for start in range(0, len(ns), size):
            auxes = solve_aux_block(self.hsys, self.green, ns[start:start + size])
            try:
                block = solve_matrix_rhp(self.jump_values.spec, self.contours,
                                         JumpAssembly(auxes, self.jump_values))
                outcomes = [block.solutions[aux.n] for aux in auxes]
                for stage, seconds in block.stages.items():
                    self.stages[stage] += seconds
            except (RHJacobiError, np.linalg.LinAlgError, FloatingPointError) as exc:
                outcomes = [exc] * len(auxes)
            yield from zip(ns[start:start + size], auxes, outcomes)

    def solution(self, n: int) -> RHSolution:
        """The solve for index n, made anew; the error it failed with is
        raised."""
        [(_, _, outcome)] = self.solve([n])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def with_jump_spec(self, jump_spec: WeightSpec) -> "SolveContext":
        """This context with jump_spec's jump data and zeroed stages;
        DomainError unless jump_spec has spec's bands and kinds."""
        if (jump_spec.bands, jump_spec.kinds) != (self.spec.bands, self.spec.kinds):
            raise DomainError("a jump spec must have the context's bands and kinds")
        ctx = copy.copy(self)
        ctx.jump_values = self.jump_values.for_spec(jump_spec)
        ctx.stages = dict.fromkeys(STAGES, 0.0)
        return ctx


def _check_index(value, what: str) -> None:
    """DomainError unless value is a non-negative int or NumPy integer (not a
    bool): the rule for every index and count of indices."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {value!r}")


def _context(spec: WeightSpec, context: SolveContext | None) -> SolveContext:
    """context, or a new one for spec at DEFAULT_PPI if None; DomainError if
    context was built for another weight."""
    if context is None:
        return SolveContext(spec)
    if context.spec != spec:
        raise DomainError("the context was built for another weight")
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


def _pair(g1: complex, n: int, lo, hi) -> tuple:
    """(a_n, b_n, residual, rcond, circles_used) of pair n from what _forward
    keeps of the solves for n (lo) and n + 1 (hi): (first_order, h1, residual
    report, circles kept), or the error the solve failed with, which is
    raised."""
    for solve in (lo, hi):
        if isinstance(solve, Exception):
            raise solve
    (S1_n, h1_n, report_n, circles), (S1_n1, h1_n1, report_n1, _) = lo, hi
    a_c = S1_n[0, 0] - S1_n1[0, 0] - h1_n + h1_n1 - g1
    prod = S1_n1[0, 1] * S1_n1[1, 0]
    if prod.real <= 0.0:
        raise SolverError(
            f"b_{n} radicand {prod:.3e} is not positive; increase the resolution")
    b_c = np.sqrt(prod)
    return (_realify(a_c, "a", n), _realify(b_c, "b", n),
            max(report_n.off_collocation, report_n1.off_collocation),
            min(report_n.rcond, report_n1.rcond), circles)


def recurrence_range(spec: WeightSpec, n0: int, n1: int, *,
                     context: SolveContext | None = None) -> JacobiSegment:
    """Pairs (a_n, b_n) for n0 <= n <= n1; one solve per index, made once,
    shared between neighbors and dropped once both its pairs are formed
    (_forward), so the call holds one block of solves and the output arrays.
    n0 and n1 are non-negative integers (DomainError otherwise).  Numerical
    failures of one index are recorded as (n, message) in meta["failures"]
    and the computation continues; a failed index does not change the others
    in its block.  A context must be built for spec (DomainError otherwise);
    its contours fix the resolution, meta["ppi"].  Without one a new one at
    DEFAULT_PPI is used.

    Per-index arrays in meta, NaN (or -1 for counts) where the pair failed:
    residuals, the larger off-collocation residual of the pair's two solves;
    rcond, the smaller of the two solves' condition estimates, each taken for
    the real band system left after the circles are eliminated (LAPACK
    dgecon's 1-norm estimate, about 10 times the estimate for the complex
    system of both columns' equations: the real system is better
    conditioned; it moved by 12% relative when the system changed only by
    rounding, so compare it across versions to its order of magnitude);
    circles_used, the number of circles the solve for n kept (circles whose
    jump is the identity are dropped); circle_deviation, the largest |F - I|
    over the circle nodes of the solve for n.  circle_deviation is kept where
    the pair or the solve for n failed after its jumps were evaluated (NaN
    only if that solve failed before), since large jump data makes pairs
    fail.
    meta["stages"] holds the seconds this call's block solves spent per stage
    of rhp.STAGES, summed over the blocks ("tables" is the collocation
    operator's build, paid by the first block on a context, and each circle's
    tables, its coupling operand and its Laurent table at the band test
    nodes, paid by the first block with an index that keeps the circle).
    meta["setup_stages"] is a copy of the context's setup_stages: the seconds
    its build_green, build_hsystem and build_contours took, once per context
    however many calls share it.
    """
    _check_index(n0, "n0")
    _check_index(n1, "n1")
    if n0 > n1:
        raise DomainError(f"need 0 <= n0 <= n1, got ({n0}, {n1})")
    return _forward(_context(spec, context), n0, n1)[0]


def _forward(ctx: SolveContext, n0: int, n1: int, at=range(0)) -> tuple:
    """(segment, reads) from one forward pass over ctx.solve(range(n0, n1 +
    2)): segment holds the pairs n0 <= n <= n1 as recurrence_range returns
    them (n1 = n0 - 1 for none), and reads, for each index of the range at,
    its AuxData, row 0 of its solve's column-1 band coefficients (all bands
    in order: the only density of the (1, 2) entry, a circle's being column
    0's alone) and the (1, 2) entry of its first_order.  Pair n is formed as
    soon as the solve for n + 1 arrives; of the solve for n only
    first_order, h1, the residual report and the circles kept stay until
    then, and of the solves of at only their reads.  With at, SolverError
    after the pass if a pair failed, and otherwise the error of a solve of
    at that failed."""
    t_start = time.perf_counter()
    count = n1 - n0 + 1
    a, b, residuals, rcond, circle_deviation = (np.full(count, np.nan) for _ in range(5))
    circles_used = np.full(count, -1)
    failures, reads = [], []
    stages_before = dict(ctx.stages)
    prev = None
    for n, aux, outcome in ctx.solve(range(n0, n1 + 2)):
        solved = isinstance(outcome, RHSolution)
        i = n - n0
        if i < count:  # from the solve's report, or from the error it failed with
            circle_deviation[i] = getattr(outcome.residual if solved else outcome,
                                          "circle_deviation", np.nan)
        if solved:
            order = first_order(outcome)
            if n in at:
                reads.append((aux, np.concatenate([c[0, 1] for c in outcome.band_coeffs]),
                              order[0, 1]))
            outcome = (order, aux.h1, outcome.residual, len(outcome.circle_coeffs))
        elif n in at:
            reads.append(outcome)
        if i > 0:
            try:
                a[i - 1], b[i - 1], residuals[i - 1], rcond[i - 1], circles_used[i - 1] = \
                    _pair(ctx.green.g1, n - 1, prev, outcome)
            except (RHJacobiError, np.linalg.LinAlgError, FloatingPointError) as exc:
                failures.append((n - 1, str(exc)))
        prev = outcome
    if at and failures:
        raise SolverError(f"coefficient computation failed: {failures}")
    for read in reads:
        if isinstance(read, Exception):
            raise read
    meta = {
        "method": "rh",
        "ppi": ctx.contours.ppi,
        "wall_time": time.perf_counter() - t_start,
        "residuals": residuals,
        "rcond": rcond,
        "circles_used": circles_used,
        "circle_deviation": circle_deviation,
        "max_residual": float(np.nanmax(residuals)) if np.any(np.isfinite(residuals)) else np.nan,
        "failures": failures,
        "stages": {stage: ctx.stages[stage] - stages_before[stage] for stage in STAGES},
        "setup_stages": dict(ctx.setup_stages),
    }
    return JacobiSegment(n0=n0, n1=n1, a=a, b=b, meta=meta), reads


def cauchy_pn(spec: WeightSpec, n: int, z, *,
              context: SolveContext | None = None) -> complex:
    """Cauchy transform at z of (nth orthonormal polynomial) x (weight).

    The polynomials are orthonormal for the unit-mass normalization of the
    weight with p_0 = 1; the transform integrates against the raw weight.
    n is a non-negative integer and z finite (DomainError otherwise).  One
    forward pass (_forward) solves n = 0..n once each, forms b_0..b_{n-1},
    and keeps of the solve for n what its (1, 2) entry at z reads
    (_cauchy_at) before it is dropped; a failed pair among them raises
    SolverError, and a failed solve for n = 0 the error it failed with.
    context as in recurrence_range.
    """
    _check_index(n, "n")
    zc = complex(z)
    if not np.isfinite(zc):
        raise DomainError(f"evaluation point {zc} is not finite")
    ctx = _context(spec, context)
    segment, reads = _forward(ctx, 0, n - 1, range(n, n + 1))
    return complex(_cauchy_at(ctx, reads, zc, segment.b)[0][0])


def _cauchy_at(ctx: SolveContext, reads: list, z: complex, b: np.ndarray) -> tuple:
    """(C[p_n w](z) for the index n of each of _forward's reads, and g(z));
    b holds b_0..b_{max n - 1}.  C[p_n w](z) is the (1, 2) entry at z of the
    solve for n times exp(h_n(z) - n g(z)) / prod_{k < n} b_k c.  One
    geometry at z, the bands then the gaps (ContourSet.geometry_at), serves
    g, the h basis and, through its band rows, one cauchy_cheb_table call for
    the column-1 kernels of every band at z; every index's (1, 2) entry is
    one product of those kernels with its band coefficients, h_n for all of
    them one combine_h and the product a running sum of log(b_k c).  A
    PrecisionWarning when z is within 1e-8 of the support.
    """
    for band in ctx.spec.bands:
        if abs(z.imag) < 1e-8 and band.a - 1e-8 <= z.real <= band.b + 1e-8:
            warnings.warn(f"evaluation point {z} is within 1e-8 of the support",
                          PrecisionWarning, stacklevel=3)
    auxes, coeffs, _ = zip(*reads)
    ns = np.array([aux.n for aux in auxes])
    contours = ctx.contours
    geo = contours.geometry_at(np.array([z], dtype=complex))
    bands = geo.part(slice(0, len(contours.bands)))
    kernels = cauchy_cheb_table([kinds[1] for kinds in contours.bases], contours.ppi,
                                bands.interval, bands)
    s12 = np.array(coeffs) @ kernels[:, 0].ravel()
    R, transforms = h_basis(ctx.green, geo)
    g = complex(eval_g(ctx.green, geo)[0])
    h = combine_h(np.array([h_weights(aux) for aux in auxes]), R, transforms)[:, 0]
    log_b = np.concatenate([[0.0], np.cumsum(np.log(b * ctx.green.cap_const))])
    return s12 * np.exp(h - ns * g - log_b[ns]), g


def toda_evolve(spec0: WeightSpec, k: int, times, *,
                context: SolveContext | None = None) -> TodaTrajectory:
    """First k coefficient pairs of the weight scaled by exp(t x), per time;
    times is one time or a 1-d sequence of them (DomainError otherwise).

    The Green's function, moment system, and contours depend only on the bands
    and are computed once, in context (as in recurrence_range, built for
    spec0); each time's pairs come from recurrence_range on
    context.with_jump_spec(spec0.with_exp_factor(t)), so only the jump data
    and solves are per-time.  A time whose circle-jump deviation at n = 0
    exceeds JUMP_MAGNITUDE_HORIZON is recorded in warnings_ and raises a
    PrecisionWarning.
    """
    _check_index(k, "k")
    if k < 1:
        raise DomainError("need at least one coefficient pair")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise DomainError(f"times must be finite and at most 1-d, got shape {times.shape}")
    base = _context(spec0, context)
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
    eta: float                  # total mass of the raw weight, from the solve for n = 0
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


def recip_approx(spec: WeightSpec, n_terms: int, *,
                 context: SolveContext | None = None) -> RecipApproximation:
    """Coefficients and partial-sum errors of the expansion of 1/x on the
    support, the errors taken on a grid of step 0.01 over each band; context
    as in recurrence_range.  One forward pass (_forward) solves n = 0..n_terms
    once each, forms the pairs 0..n_terms - 1 and keeps of the solves for
    0..n_terms - 1 what their (1, 2) entries read before they are dropped; a
    failed pair raises SolverError.  0 may lie inside a deformation disk: the
    circle jumps, unit lower-triangular, leave the (1, 2) entry that is read
    unchanged.  Every term's transform at 0 comes from one _cauchy_at call,
    which makes one geometry at 0 for g, the h basis and the column-1
    kernels, and reads no circle table.  The weight's mass eta is -2 pi i
    times the 1/z coefficient of the (1, 2) entry of the solve for n = 0,
    whose transform C[w](z) ~ -eta / (2 pi i z)."""
    _check_index(n_terms, "n_terms")
    if n_terms < 1:
        raise DomainError("need at least one term")
    for band in spec.bands:
        if band.a <= 0.0 <= band.b:
            raise DomainError("0 lies inside the support; the expansion is undefined")
    ctx = _context(spec, context)
    grid = np.concatenate([np.arange(b.a, b.b + 1e-12, 0.01) for b in spec.bands])

    segment, reads = _forward(ctx, 0, n_terms - 1, range(n_terms))
    eta = _realify(-2j * np.pi * reads[0][2], "eta", 0)
    values, g0 = _cauchy_at(ctx, reads, 0j, segment.b)
    coeffs = np.array([_realify(2j * np.pi * c / eta, "recip coefficient", j)
                       for j, c in enumerate(values)])
    partial = np.cumsum(coeffs[:, None] * orthonormal_eval(segment, n_terms, grid), axis=0)
    max_errors = np.max(np.abs(partial - 1.0 / grid), axis=1)
    return RecipApproximation(coeffs=coeffs, max_errors=max_errors,
                              rate=float(np.exp(-g0.real)), grid=grid,
                              eta=eta, g0=g0)
