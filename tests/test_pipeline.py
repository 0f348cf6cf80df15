import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import weight_integral
from rhjacobi import cauchy, rhp
from rhjacobi.cauchy import cauchy_cheb
from rhjacobi.chebyshev import SQRT2, ChebKind, UNIT
from rhjacobi.errors import DomainError, ImagPartWarning, PrecisionWarning, SolverError
from rhjacobi.oracle import adaptive_oracle, discretize
from rhjacobi.pipeline import (BLOCK_BYTES, DEFAULT_PPI, SolveContext, _realify, cauchy_pn,
                               orthonormal_eval, recip_approx, recurrence_range, toda_evolve)
from rhjacobi.rhp import JumpAssembly
from rhjacobi.weights import WeightSpec


class TestRecurrencePair:
    @pytest.mark.parametrize("kind,a0,b0", [
        (ChebKind.U, 0.0, 0.5),
        (ChebKind.T, 0.0, 1 / SQRT2),
        (ChebKind.V, 0.5, 0.5),
        (ChebKind.W, -0.5, 0.5),
    ])
    def test_classical_kinds(self, kind, a0, b0):
        spec = WeightSpec.single(kind)
        ctx = SolveContext(spec, 16)
        seg = recurrence_range(spec, 0, 0, context=ctx)
        assert seg.a[0] == pytest.approx(a0, abs=1e-11)
        assert seg.b[0] == pytest.approx(b0, abs=1e-11)

    def test_mapped_interval_scaling(self):
        # entries scale affinely with the interval: a -> mid, b -> half/2
        spec = WeightSpec.single(ChebKind.U, (2.0, 5.0))
        ctx = SolveContext(spec, 16)
        seg = recurrence_range(spec, 2, 2, context=ctx)
        assert seg.a[0] == pytest.approx(3.5, abs=1e-11)
        assert seg.b[0] == pytest.approx(0.75, abs=1e-11)

    def test_negative_index_rejected(self, ctx_u, spec_u):
        with pytest.raises(DomainError):
            recurrence_range(spec_u, -1, -1, context=ctx_u)

    @pytest.mark.parametrize("call", [
        lambda spec, ctx: cauchy_pn(spec, -1, 0.5j, context=ctx),
        lambda spec, ctx: ctx.solution(-1),
        lambda spec, ctx: ctx.solve([3, 4.0]),
        lambda spec, ctx: recurrence_range(spec, 0, 2.0, context=ctx),
        lambda spec, ctx: recurrence_range(spec, False, True, context=ctx),
        lambda spec, ctx: toda_evolve(spec, 2.5, [0.0], 8),
        lambda spec, ctx: recip_approx(spec, 2.5, context=ctx),
        lambda spec, ctx: cauchy_pn(spec, 1.5, 0.5j, context=ctx),
        lambda spec, ctx: cauchy_pn(spec, 1, np.nan, context=ctx),
        lambda spec, ctx: cauchy_pn(spec, 1, np.inf, context=ctx),
        lambda spec, ctx: cauchy_pn(spec, 1, complex(0.5, -np.inf), context=ctx),
    ], ids=["cauchy_pn n=-1", "solution n=-1", "solve n=4.0", "n1=2.0", "bool n0, n1",
            "toda k=2.5", "recip n_terms=2.5", "cauchy_pn n=1.5", "z=nan", "z=inf",
            "z=0.5-inf j"])
    def test_bad_index_or_point_rejected(self, spec_two_band, call):
        # a negative index used to solve a meaningless problem, a float one
        # raised TypeError from range, a bool was taken for 0 or 1, and a
        # non-finite z returned nan+nanj with RuntimeWarnings
        ctx = SolveContext(spec_two_band, 8)
        with pytest.raises(DomainError):
            call(spec_two_band, ctx)
        assert ctx._solutions == {}


class TestRecurrenceRange:
    def test_matches_oracle_segment(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 0, 12, context=ctx_two_band)
        ref = adaptive_oracle(spec_two_band, 13, 1e-12)
        np.testing.assert_allclose(seg.a, ref.a, atol=1e-11)
        np.testing.assert_allclose(seg.b, ref.b, atol=1e-11)
        assert not seg.meta["failures"]
        assert seg.meta["max_residual"] < 1e-9

    def test_windowed_start_matches_full(self, spec_two_band, ctx_two_band):
        win = recurrence_range(spec_two_band, 10, 12, context=ctx_two_band)
        ref = adaptive_oracle(spec_two_band, 13, 1e-12)
        np.testing.assert_allclose(win.a, ref.a[10:13], atol=1e-11)
        np.testing.assert_allclose(win.b, ref.b[10:13], atol=1e-11)

    def test_matches_oracle_while_circles_drop(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 50, 85, context=ctx_two_band)
        ref = adaptive_oracle(spec_two_band, 86, 1e-12)
        np.testing.assert_allclose(seg.a, ref.a[50:], atol=1e-12)
        np.testing.assert_allclose(seg.b, ref.b[50:], atol=1e-12)
        assert {0, 1, 2} <= set(seg.meta["circles_used"].tolist())
        assert np.all((seg.meta["rcond"] > 0.0) & (seg.meta["rcond"] <= 1.0))
        assert not seg.meta["failures"]

    def test_large_n_solves_bands_only(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 300, 300, context=ctx_two_band)
        ref = adaptive_oracle(spec_two_band, 301, 1e-12)
        assert seg.a[0] == pytest.approx(ref.a[300], abs=1e-11)
        assert seg.b[0] == pytest.approx(ref.b[300], abs=1e-11)
        assert seg.meta["circles_used"][0] == 0
        assert seg.meta["max_residual"] < 1e-10

    def test_genus3_mixed_kinds_every_circle_kept(self, spec_genus3):
        seg = recurrence_range(spec_genus3, 0, 8)
        ref = adaptive_oracle(spec_genus3, 9, 1e-12)
        np.testing.assert_allclose(seg.a, ref.a, atol=1e-11)
        np.testing.assert_allclose(seg.b, ref.b, atol=1e-11)
        assert np.all(seg.meta["circles_used"] == 4)
        assert not seg.meta["failures"]

    def test_circle_deviation_recorded(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 18, 20, context=ctx_two_band)
        for i, n in enumerate(seg.ns):
            jumps = JumpAssembly([ctx_two_band.aux(n)], ctx_two_band.jump_values)
            dev = max(np.max(np.abs(jumps.circle_jump(j, c.nodes())[0, :, 1, 0]))
                      for j, c in enumerate(ctx_two_band.contours.circles))
            assert seg.meta["circle_deviation"][i] == dev

    def test_bad_range_rejected(self, spec_u):
        with pytest.raises(DomainError):
            recurrence_range(spec_u, 5, 3)

    def test_context_for_another_weight_rejected(self, spec_two_band, spec_symmetric):
        # its solves would be the other weight's, under this weight's name
        ctx = SolveContext(spec_symmetric, 8)
        with pytest.raises(DomainError):
            recurrence_range(spec_two_band, 0, 2, context=ctx)
        with pytest.raises(DomainError):
            cauchy_pn(spec_two_band, 1, 0.5j, context=ctx)
        with pytest.raises(DomainError):
            recip_approx(spec_two_band, 2, context=ctx)

    def test_ppi_must_match_context(self, spec_two_band):
        # a ppi given with a context was silently replaced by the context's
        ctx = SolveContext(spec_two_band, 8)
        with pytest.raises(DomainError):
            recurrence_range(spec_two_band, 0, 2, 32, context=ctx)
        with pytest.raises(DomainError):
            cauchy_pn(spec_two_band, 1, 0.5j, 32, context=ctx)
        with pytest.raises(DomainError):
            recip_approx(spec_two_band, 2, ppi=32, context=ctx)
        assert recurrence_range(spec_two_band, 0, 2, 8, context=ctx).meta["ppi"] == 8
        assert recurrence_range(spec_two_band, 0, 2, context=ctx).meta["ppi"] == 8
        assert recurrence_range(spec_two_band, 0, 0).meta["ppi"] == DEFAULT_PPI

    def test_programming_errors_propagate(self, spec_u, monkeypatch):
        # only numerical failures are recorded per index
        def broken(*args, **kwargs):
            raise TypeError("broken call")

        monkeypatch.setattr(rhp, "lu_factor", broken)
        with pytest.raises(TypeError):
            recurrence_range(spec_u, 0, 1, 8)


def _assert_same_solution(got, want):
    assert got.circle_coeffs.keys() == want.circle_coeffs.keys()
    for x, y in zip(list(got.circle_coeffs.values()) + got.band_coeffs,
                    list(want.circle_coeffs.values()) + want.band_coeffs):
        np.testing.assert_array_equal(x, y)
    assert got.residual == want.residual


class TestBlocks:
    @pytest.mark.parametrize("workload", ["two bands while circles drop", "genus 3"])
    def test_index_bit_identical_in_any_block(self, workload, spec_two_band, spec_genus3,
                                              count_calls):
        # each index alone, in blocks from the first index on, and in blocks
        # whose boundaries are moved by three; a block holds as many systems
        # as fit BLOCK_BYTES at 8 bytes per entry of the real systems (32
        # here, 8 on genus 3)
        spec, ns = ((spec_two_band, range(50, 86)) if workload == "two bands while circles drop"
                    else (spec_genus3, range(0, 13)))
        alone, blocks, shifted = (SolveContext(spec) for _ in range(3))
        calls = count_calls(rhp.solve_matrix_rhp)
        blocks.solve(ns)
        unknowns = 2 * sum(bp.n_points for bp in blocks.contours.bands)
        size = BLOCK_BYTES // (8 * unknowns ** 2)
        assert [len(args[2].ns) for args in calls] == [min(size, len(ns) - start)
                                                      for start in range(0, len(ns), size)]
        assert 1 < size < len(ns)
        shifted.solve(ns[3:])
        shifted.solve(ns[:3])
        used = set()
        for n in ns:
            want = alone.solution(n)
            used.add(len(want.circle_coeffs))
            for ctx in (blocks, shifted):
                _assert_same_solution(ctx.solution(n), want)
        assert used >= ({0, 1, 2} if workload == "two bands while circles drop" else {4})

    @pytest.mark.parametrize("poison,message", [
        ("nan band jump", "not finite"),
        ("overflowing band jump", "not finite"),
        ("nan circle v", "not finite"),
    ])
    def test_failed_index_leaves_its_block_alone(self, spec_two_band, monkeypatch, poison,
                                                 message):
        # n = 60 fails inside its block of 16; only the pairs that read its
        # solve (59 and 60) fail, and every other pair is bit-identical.  The
        # circle entry v is poisoned at the last upper test node, which the
        # residual reads and the coupling and circle_deviation do not; the
        # band jump in its entry F_01, which the band system does not read.
        clean = recurrence_range(spec_two_band, 50, 85)
        method = "circle_entry" if poison == "nan circle v" else "band_jump"
        original = getattr(JumpAssembly, method)

        def poisoned(self, j, z):
            out = original(self, j, z)
            if method == "circle_entry":
                out[self.ns == 60, -1] = np.nan
            else:
                out[0][self.ns == 60] = np.nan if poison == "nan band jump" else np.inf
            return out

        monkeypatch.setattr(JumpAssembly, method, poisoned)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = recurrence_range(spec_two_band, 50, 85)
        assert caught == []
        assert [n for n, _ in got.meta["failures"]] == [59, 60]
        assert all(message in msg for _, msg in got.meta["failures"])
        ok = ~np.isin(got.ns, [59, 60])
        for want, have in ((clean.a, got.a), (clean.b, got.b)):
            np.testing.assert_array_equal(have[ok], want[ok])
            assert np.all(np.isnan(have[~ok]))
        for key in ("residuals", "rcond", "circles_used"):
            np.testing.assert_array_equal(got.meta[key][ok], clean.meta[key][ok])
        # each failed pair carries the circle deviation of n's solve
        np.testing.assert_array_equal(got.meta["circle_deviation"],
                                      clean.meta["circle_deviation"])

    def test_error_of_a_whole_block_recorded_per_index(self, spec_two_band):
        # an error the whole block raises (an underflow made fatal) is
        # recorded for each index, as when every index was its own solve
        with np.errstate(under="raise"):
            seg = recurrence_range(spec_two_band, 1000, 1002)
        assert [n for n, _ in seg.meta["failures"]] == [1000, 1001, 1002]
        assert np.all(np.isnan(seg.a))

    def test_first_300_match_oracle(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 0, 299, context=ctx_two_band)
        ref = adaptive_oracle(spec_two_band, 300, 1e-12)
        np.testing.assert_allclose(seg.a, ref.a, rtol=0, atol=1e-11)
        np.testing.assert_allclose(seg.b, ref.b, rtol=0, atol=1e-11)
        assert not seg.meta["failures"]

    def test_memory_flat_over_first_1000(self, spec_two_band):
        # unchunked, the stacked band systems of the 1001 solves alone would
        # take 1001 x 64 KiB = 66 MB; chunked, the peak is the cache of
        # solutions (about 5.6 MB) plus one block
        ctx = SolveContext(spec_two_band)
        tracemalloc.start()
        try:
            seg = recurrence_range(spec_two_band, 0, 999, context=ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not seg.meta["failures"]
        assert peak < 16e6


class TestSharedOperator:
    def test_later_solves_build_no_tables(self, spec_genus3, count_calls):
        ctx = SolveContext(spec_genus3)
        ctx.solution(0)
        calls = count_calls(cauchy.cauchy_cheb_table)
        laurent_calls = count_calls(rhp._circle_table)
        for n in (1, 2, 5, 9):
            ctx.solution(n)
        assert calls == [] and laurent_calls == []
        SolveContext(spec_genus3).solution(0)
        assert calls and laurent_calls

    def test_shared_solve_bit_identical_to_fresh(self, spec_genus3):
        shared = SolveContext(spec_genus3)
        for n in range(5):
            shared.solution(n)
        got, want = shared.solution(5), SolveContext(spec_genus3).solution(5)
        assert got.circle_coeffs.keys() == want.circle_coeffs.keys()
        for x, y in zip(list(got.circle_coeffs.values()) + got.band_coeffs,
                        list(want.circle_coeffs.values()) + want.band_coeffs):
            np.testing.assert_array_equal(x, y)
        assert got.residual == want.residual

    def test_jump_spec_weights_not_shared(self, spec_two_band):
        base = SolveContext(spec_two_band)
        segs = {t: recurrence_range(spec_two_band, 0, 4,
                                    context=base.with_jump_spec(spec_two_band.with_exp_factor(t)))
                for t in (1.0, 0.0)}
        for t, seg in segs.items():
            ref = recurrence_range(spec_two_band.with_exp_factor(t), 0, 4)
            np.testing.assert_allclose(seg.a, ref.a, rtol=0, atol=1e-13)
            np.testing.assert_allclose(seg.b, ref.b, rtol=0, atol=1e-13)

    def test_stages_timed(self, spec_two_band):
        seg = recurrence_range(spec_two_band, 0, 3)
        stages = seg.meta["stages"]
        assert set(stages) == {"tables", "jumps", "assembly", "lu", "residual"}
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= seg.meta["wall_time"]


class TestRealifyPolicy:
    def test_small_imag_dropped_silently(self):
        assert _realify(1.0 + 1e-12j, "a", 0) == 1.0

    def test_moderate_imag_warns(self):
        with pytest.warns(ImagPartWarning):
            _realify(1.0 + 1e-8j, "a", 0)

    def test_large_imag_errors(self):
        with pytest.raises(SolverError):
            _realify(1.0 + 1e-5j, "a", 0)

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                       complex(1.0, np.nan)])
    def test_non_finite_errors(self, value):
        with pytest.raises(SolverError):
            _realify(value, "a", 0)


class TestCauchyPn:
    def test_n0_matches_quadrature(self, spec_two_band, ctx_two_band):
        z = 0.5 + 0.0j  # in the gap
        got = cauchy_pn(spec_two_band, 0, z, context=ctx_two_band)
        ref = sum(weight_integral(spec_two_band, j, lambda s: 1.0 / (s - z.real))
                  for j in range(2)) / (2j * np.pi)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_n3_single_band_closed_form(self):
        # raw U weight = (pi/2) normalized one, and p_3 = U_3, so the transform
        # is (pi/2) times the closed-form kernel
        spec = WeightSpec.single(ChebKind.U)
        ctx = SolveContext(spec, 16)
        z = 0.8 + 1.1j
        got = cauchy_pn(spec, 3, z, context=ctx)
        ref = (np.pi / 2) * cauchy_cheb(ChebKind.U, 3, UNIT, z)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_orthogonality_kills_leading_order(self, spec_two_band, ctx_two_band):
        z = 1e4 + 0.0j
        for n in (1, 3):
            val = cauchy_pn(spec_two_band, n, z, context=ctx_two_band)
            assert abs(z * val) < 1e-3

    @pytest.mark.parametrize("factors", [
        {1: np.nan},
        {0: np.inf},
        {2: 0.0},
        {1: -1.0},              # one b negated flipped the transform's sign
        {0: -1.0, 2: -1.0},     # two negated gave the positive b's transform
    ])
    def test_bad_jacobi_b_rejected(self, spec_two_band, ctx_two_band, factors):
        seg = recurrence_range(spec_two_band, 0, 3, context=ctx_two_band)
        for j, factor in factors.items():
            seg.b[j] *= factor
        with pytest.raises(DomainError):
            cauchy_pn(spec_two_band, 4, 0.5 + 1.0j, context=ctx_two_band, jacobi=seg)

    def test_near_support_warns(self, spec_two_band, ctx_two_band):
        with pytest.warns(PrecisionWarning):
            cauchy_pn(spec_two_band, 0, 2.5 + 1e-10j, context=ctx_two_band,
                      jacobi=recurrence_range(spec_two_band, 0, 0, context=ctx_two_band))


class TestOrthonormality:
    def test_gram_matrix_identity(self, spec_two_band, ctx_two_band):
        seg = recurrence_range(spec_two_band, 0, 10, context=ctx_two_band)
        measure = discretize(spec_two_band, 512)
        x, w = measure.nodes, measure.weights / measure.mass
        P = orthonormal_eval(seg, 11, x)
        gram = (P * w) @ P.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    def test_pure_u_polynomials(self, spec_u, ctx_u, rng):
        from rhjacobi.chebyshev import cheb_eval
        seg = recurrence_range(spec_u, 0, 6, context=ctx_u)
        x = rng.uniform(-1, 1, 9)
        P = orthonormal_eval(seg, 7, x)
        for k in range(7):
            np.testing.assert_allclose(P[k], cheb_eval(ChebKind.U, k, x), atol=1e-10)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, spec_u, ctx_u, count):
        seg = recurrence_range(spec_u, 0, 2, context=ctx_u)
        with pytest.raises(DomainError):
            orthonormal_eval(seg, count, np.zeros(3))


class TestOracle:
    @pytest.mark.parametrize("tol", [1e-14, np.nan])
    def test_unresolvable_tolerance_rejected(self, spec_u, tol):
        with pytest.raises(DomainError):
            adaptive_oracle(spec_u, 3, tol)


class TestToda:
    def test_jump_spec_context_shares_geometry(self, spec_u):
        ctx = SolveContext(spec_u, 8)
        scaled = ctx.with_jump_spec(spec_u.with_exp_factor(0.5))
        assert scaled.green is ctx.green and scaled.contours is ctx.contours
        assert scaled.aux(3) is ctx.aux(3)
        assert scaled.jump_values.spec is not ctx.jump_values.spec
        assert scaled.solution(1) is not ctx.solution(1)
        # the contours and g belong to the context's bands, the operator to its kinds
        for other in (WeightSpec.single(ChebKind.T), WeightSpec.single(ChebKind.U, (-1.0, 2.0))):
            with pytest.raises(DomainError):
                ctx.with_jump_spec(other)

    def test_t0_identical_to_static(self, spec_u, ctx_u):
        traj = toda_evolve(spec_u, 5, [0.0], 16)
        seg = recurrence_range(spec_u, 0, 4, 16)
        np.testing.assert_array_equal(traj.segments[0].a, seg.a)
        np.testing.assert_array_equal(traj.segments[0].b, seg.b)

    def test_matches_scaled_oracle(self, spec_u):
        traj = toda_evolve(spec_u, 6, [0.5, 2.0], 20)
        for t, seg in zip(traj.times, traj.segments):
            ref = adaptive_oracle(spec_u.with_exp_factor(t), 6, 1e-12)
            np.testing.assert_allclose(seg.a, ref.a, atol=1e-9)
            np.testing.assert_allclose(seg.b, ref.b, atol=1e-9)

    def test_halfspeed_flow_identities(self, spec_u):
        # d/dt of J(w e^{tx}) equals half the tridiagonal commutator flow
        dt = 1e-4
        traj = toda_evolve(spec_u, 8, [1.0 - dt, 1.0, 1.0 + dt], 20)
        am, a0, ap = (s.a for s in traj.segments)
        bm, b0, bp = (s.b for s in traj.segments)
        adot = (ap - am) / (2 * dt)
        bdot = (bp - bm) / (2 * dt)
        bsq_prev = np.concatenate([[0.0], b0[:-1] ** 2])
        np.testing.assert_allclose(adot, b0 ** 2 - bsq_prev, atol=1e-6)
        np.testing.assert_allclose(bdot[:-1], 0.5 * b0[:-1] * (a0[1:] - a0[:-1]), atol=1e-6)

    def test_scalar_time_is_one_time(self, spec_u):
        one, seq = toda_evolve(spec_u, 2, 0.5, 8), toda_evolve(spec_u, 2, [0.5], 8)
        assert one.times.shape == (1,) and len(one.segments) == 1
        np.testing.assert_array_equal(one.segments[0].a, seq.segments[0].a)
        np.testing.assert_array_equal(one.segments[0].b, seq.segments[0].b)
        with pytest.raises(DomainError):
            toda_evolve(spec_u, 2, [[0.5, 1.0]], 8)

    def test_horizon_warning(self, spec_u):
        with pytest.warns(PrecisionWarning):
            toda_evolve(spec_u, 2, [15.0], 20)

    def test_overflowing_jumps_recorded_as_failures(self, spec_two_band):
        # at t = 200 the solves overflow: both pairs fail, none is NaN, and the
        # jump magnitude of the failed solve at n = 0 still sets the horizon
        # warning; no NumPy warning escapes the solves
        import warnings as _w
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            traj = toda_evolve(spec_two_band, 2, [200.0])
        meta = traj.segments[0].meta
        assert [n for n, _ in meta["failures"]] == [0, 1]
        dev = meta["circle_deviation"][0]
        assert 1e160 < dev < np.inf
        assert traj.warnings_ == [(200.0, dev)]
        assert [w.category for w in caught] == [PrecisionWarning]

    def test_no_warning_at_moderate_time(self, spec_u, recwarn):
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("error", PrecisionWarning)
            toda_evolve(spec_u, 2, [2.0], 20)


class TestRecip:
    def test_first_term_is_definition(self, spec_two_band, ctx_two_band):
        approx = recip_approx(spec_two_band, 1, context=ctx_two_band)
        eta = sum(weight_integral(spec_two_band, j) for j in range(2))
        c0 = cauchy_pn(spec_two_band, 0, 0.0, context=ctx_two_band)
        kappa0 = complex(2j * np.pi * c0 / eta)
        assert approx.coeffs[0] == pytest.approx(kappa0.real, abs=1e-10)
        ref_err = np.max(np.abs(kappa0.real - 1.0 / approx.grid))
        assert approx.max_errors[0] == pytest.approx(ref_err, rel=1e-12)

    def test_zero_inside_support_rejected(self):
        spec = WeightSpec.single(ChebKind.U)
        with pytest.raises(DomainError):
            recip_approx(spec, 3, ppi=8)

    def test_zero_inside_a_deformation_disk(self):
        # 0 lies off the support but inside circle 0 (centre 0.55, radius
        # 0.5625); reference by Gauss quadrature of p_j(x)/x on the oracle's
        # nodes, exact far below the bound since 1/x is analytic on the bands
        spec = WeightSpec.build([(0.1, 1.0), (2.0, 3.0)], "TU")
        terms = 8
        approx = recip_approx(spec, terms)
        jac = adaptive_oracle(spec, terms, 1e-12)
        measure = discretize(spec, jac.meta["m_per_band"])
        P = orthonormal_eval(jac, terms, measure.nodes)
        coeffs = P @ (measure.weights / measure.nodes) / measure.mass
        partial = np.cumsum(coeffs[:, None] * orthonormal_eval(jac, terms, approx.grid), axis=0)
        max_errors = np.max(np.abs(partial - 1.0 / approx.grid), axis=1)
        np.testing.assert_allclose(approx.coeffs, coeffs, rtol=0, atol=1e-11)
        np.testing.assert_allclose(approx.max_errors, max_errors, rtol=0, atol=1e-11)

    def test_error_decreases(self, spec_two_band, ctx_two_band):
        approx = recip_approx(spec_two_band, 12, context=ctx_two_band)
        assert approx.max_errors[-1] < approx.max_errors[0] * 1e-3
        assert 0.0 < approx.rate < 1.0
