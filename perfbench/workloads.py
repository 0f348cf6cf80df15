"""Workloads of the rhjacobi benchmark, and the references that check them.

Every workload is a closed loop: one caller in one process, each public call
waiting for the one before.  A seed jitters the inputs (band endpoints, Toda
times) inside a range that keeps every deformation circle valid and leaves the
system sizes unchanged, so a claim can be re-checked on an unseen seed.  The
program only ever sees the generated spec.

BENCHMARK.json times window and recip4, which between them reach every layer;
sweep and toda run by hand (``--workload``).  Why these four:
- sweep:  n = 0..50 on two bands.  Every circle carries a real jump at small n,
          so per-n assembly, circle tables and LU dominate; neighbouring pairs
          share solves through SolveContext.
- window: n = 1000..1010, same geometry.  Every circle jump is the identity,
          so this is where dropping circles must show, and it tests whether
          the cost per pair is independent of n.  The oracle is slow here.
- toda:   11 pairs at 11 times on one geometry.  Only the jump data change
          between times (the case for a shared operator); n stays <= 11, so
          no circle is ever the identity and dropping circles must not move it.
- recip4: 12 terms of the 1/x expansion on a genus-3 mixed-kind weight.  The
          only workload that reaches RHSolution.eval, the flipped U/V/W
          kernel bases, 3-gap eval_h and an 8-piece system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from rhjacobi import (HExpScale, HPoly, WeightSpec, adaptive_oracle,
                      discretize, recip_approx, recurrence_range, toda_evolve)
from rhjacobi.pipeline import orthonormal_eval

# ROADMAP's agreement bound between RH and the oracle, per value.
TOL = 1e-11
# Doubling tolerance of the oracle references; a decade below TOL.
REF_TOL = 1e-12
# Endpoint jitter.  The circles' tightest cap (recip4, bands 2 and 3) leaves
# 0.2 of slack above the minimum radius, far more than 2 * JITTER moves it.
JITTER = 0.02

TWO_BAND = ((-1.8, -1.0), (2.0, 3.0))
GENUS3 = ((-3.0, -2.2), (-1.5, -0.6), (0.5, 1.3), (2.0, 3.0))
GENUS3_H = (HPoly((2.0, 0.5)), HExpScale(0.3), HPoly((1.0, 0.0, 0.2)), HExpScale(-0.2, 1.0))


@dataclass
class Case:
    """One generated workload input.

    call(ctx) is the timed public call on a fresh SolveContext; toda_evolve
    builds its own and ignores it, so its time includes one set-up (about
    0.05% of it).  values(out) flattens the output to one row per pair plus
    the failures the program reported; reference() gives the matching rows
    from the oracle and the oracle's nodes per band.
    """

    spec: WeightSpec
    pairs: int
    call: Callable
    values: Callable
    reference: Callable


def _bands(bands, rng) -> list:
    return [(a + rng.uniform(-JITTER, JITTER), b + rng.uniform(-JITTER, JITTER))
            for a, b in bands]


def _segment_values(seg, t=None):
    rows = np.column_stack([seg.a, seg.b])
    failures = [{"n": int(n), "t": t, "message": msg} for n, msg in seg.meta["failures"]]
    return rows, failures


def _recurrence(spec, n0, n1) -> Case:
    def reference():
        ref = adaptive_oracle(spec, n1 + 1, REF_TOL)
        return np.column_stack([ref.a[n0:], ref.b[n0:]]), ref.meta["m_per_band"]

    return Case(spec, n1 - n0 + 1,
                call=lambda ctx: recurrence_range(spec, n0, n1, context=ctx),
                values=_segment_values, reference=reference)


def sweep(rng, tiny=False) -> Case:
    return _recurrence(WeightSpec.build(_bands(TWO_BAND, rng), "TT"), 0, 2 if tiny else 50)


def window(rng, tiny=False) -> Case:
    n0 = 100 if tiny else 1000
    return _recurrence(WeightSpec.build(_bands(TWO_BAND, rng), "TT"), n0, n0 + (1 if tiny else 10))


def toda(rng, tiny=False) -> Case:
    spec = WeightSpec.build(_bands(TWO_BAND, rng), "TT")
    k, steps = (2, 2) if tiny else (11, 11)
    times = np.linspace(0.0, 1.0, steps) + rng.uniform(-JITTER, JITTER, steps)

    def values(traj):
        parts = [_segment_values(seg, float(t)) for t, seg in zip(traj.times, traj.segments)]
        return np.vstack([rows for rows, _ in parts]), [f for _, fs in parts for f in fs]

    def reference():
        refs = [adaptive_oracle(spec.with_exp_factor(float(t)), k, REF_TOL) for t in times]
        rows = np.vstack([np.column_stack([r.a, r.b]) for r in refs])
        return rows, max(r.meta["m_per_band"] for r in refs)

    return Case(spec, k * steps,
                call=lambda ctx: toda_evolve(spec, k, times),
                values=values, reference=reference)


def recip4(rng, tiny=False) -> Case:
    """A pair is one term: its coefficient and its partial-sum error."""
    spec = WeightSpec.build(_bands(GENUS3, rng), "TUVW", GENUS3_H)
    terms = 2 if tiny else 12

    def values(approx):
        return np.column_stack([approx.coeffs, approx.max_errors]), []

    def reference():
        # Coefficients by Gauss quadrature of p_j(x)/x against the weight, the
        # p_j from the oracle's Jacobi matrix; the rule is exact to far below
        # TOL at the oracle's own node count since 1/x is analytic on the bands.
        jac = adaptive_oracle(spec, terms, REF_TOL)
        m = jac.meta["m_per_band"]
        measure = discretize(spec, m)
        P = orthonormal_eval(jac, terms, measure.nodes)
        coeffs = P @ (measure.weights / measure.nodes) / measure.mass
        grid = np.concatenate([np.arange(b.a, b.b + 1e-12, 0.01) for b in spec.bands])
        partial = np.cumsum(coeffs[:, None] * orthonormal_eval(jac, terms, grid), axis=0)
        max_errors = np.max(np.abs(partial - 1.0 / grid), axis=1)
        return np.column_stack([coeffs, max_errors]), m

    return Case(spec, terms,
                call=lambda ctx: recip_approx(spec, terms, context=ctx),
                values=values, reference=reference)


WORKLOADS = {"sweep": sweep, "window": window, "toda": toda, "recip4": recip4}


def failed_rows(rows: np.ndarray, ref: np.ndarray) -> int:
    """Pairs that are missing, not finite, or off the reference by more than TOL."""
    ok = np.all(np.isfinite(rows) & (np.abs(rows - ref) <= TOL), axis=1)
    return int(np.count_nonzero(~ok))

