import numpy as np
import pytest

from rhjacobi import auxiliary, cauchy, green, rhp
from rhjacobi.auxiliary import build_hsystem, combine_h, h_weights, solve_aux
from rhjacobi.cauchy import Side, cauchy_cheb, cauchy_cheb_table
from rhjacobi.chebyshev import ChebKind, UNIT
from rhjacobi.errors import DomainError, GeometryError, ResidualWarning, SolverError, WeightError
from rhjacobi.green import build_green
from rhjacobi.pipeline import SolveContext, recip_approx, recurrence_range, toda_evolve
from rhjacobi.rhp import (ContourSet, JumpAssembly, JumpValues, _circle_table, build_contours,
                          default_bases, first_order, solve_matrix_rhp)
from rhjacobi.weights import HPoly, HRational, WeightSpec, h_from_config


class TestBuildContours:
    def test_single_interval_default(self, spec_u):
        ct = build_contours(spec_u, 16)
        circ = ct.circles[0]
        assert circ.center == 0.0
        assert circ.radius == 1.25
        assert circ.n_points == 160
        assert ct.bands[0].n_points == 16

    def test_two_band_disjoint(self, spec_two_band):
        ct = build_contours(spec_two_band, 8)
        (c0, c1) = ct.circles
        gap = abs(c1.center - c0.center) - c0.radius - c1.radius
        assert gap > 0
        for circ, band in zip(ct.circles, spec_two_band.bands):
            assert circ.radius >= 0.625 * band.length

    def test_impossible_geometry_raises(self):
        spec = WeightSpec.build([(0.0, 1.0), (1.1, 2.1)], ["T", "T"])
        with pytest.raises(GeometryError):
            build_contours(spec, 8)

    def test_h_zero_inside_disk_raises(self):
        # positive on the band but vanishing at +-0.1i inside the 5/4 disk
        spec = WeightSpec.single(ChebKind.U, h=HPoly((0.01, 0.0, 1.0)))
        with pytest.raises(WeightError):
            build_contours(spec, 8)

    @pytest.mark.parametrize("den", [(0.25, 0.0, 1.0), (0.01, 0.0, 1.0)])
    def test_h_pole_inside_disk_raises(self, den):
        # positive on the band but with poles at +-0.5i or +-0.1i inside the
        # 5/4 disk
        spec = WeightSpec.single(ChebKind.U, h=HRational((1.0,), den))
        with pytest.raises(WeightError):
            build_contours(spec, 8)

    def test_h_poles_outside_disks_accepted(self, spec_modified_u, spec_genus3):
        # poles at +-2i outside the 5/4 disk; the genus-3 h are entire
        for spec in (spec_modified_u, spec_genus3):
            build_contours(spec, 8)

    @pytest.mark.parametrize("ppi", [1, 0, -1, 8.0, 2.5, True])
    def test_invalid_resolution_rejected(self, spec_u, ppi):
        with pytest.raises(DomainError):
            build_contours(spec_u, ppi)
        with pytest.raises(DomainError):
            recurrence_range(spec_u, 0, 1, ppi)

    def test_nodes_shapes(self, spec_two_band):
        ct = build_contours(spec_two_band, 8)
        for circ in ct.circles:
            assert circ.nodes().shape == (80,)
            assert -1 in circ.exponents and 0 in circ.exponents
        for bp in ct.bands:
            x = bp.nodes()
            assert x.shape == (8,)
            assert np.all((bp.interval.a <= x) & (x <= bp.interval.b))


class _IdentityJumps:
    ns = (0,)

    def circle_entry(self, j, z):
        return np.zeros((1, len(np.atleast_1d(z))), dtype=complex)

    def band_jump(self, j, x):
        return tuple(np.zeros((1, len(np.atleast_1d(x))), dtype=complex) for _ in range(2))


class _IdentityAtNodesOnly(JumpAssembly):
    """Circle jumps that are I at the collocation nodes and not between them:
    the entry 0.1i at every test node, of the Schwarz-symmetric form."""

    def __init__(self, contours, *args):
        super().__init__(*args)
        self.contours = contours

    def circle_entry(self, j, z):
        out = super().circle_entry(j, z)
        out[:] = np.where(np.isin(z, self.contours.circles[j].nodes()), 0.0, 0.1j)
        return out


class _UpperEntryOnCircles(JumpAssembly):
    """Circle jumps with a nonzero (0, 1) entry, patched into circle_jump."""

    def circle_jump(self, j, z):
        out = super().circle_jump(j, z)
        out[..., 0, 1] = 0.1
        return out


class _PoisonedAtATestNode(JumpAssembly):
    """Circle entries off by 0.1 at circle 0's upper test node k = 7."""

    def __init__(self, contours, *args):
        super().__init__(*args)
        self.point = contours.circles[0].test_nodes()[7]

    def circle_entry(self, j, z):
        out = super().circle_entry(j, z)
        if j == 0:
            out[:, z == self.point] += 0.1
        return out


class TestMatrixSolve:
    def test_identity_jumps_give_zero(self, spec_u):
        # band jump entries (0, 0) have F_10 = 0, so the band system, made of
        # column 0's equations only, has an exact zero right half: the index
        # fails alone as singular (test_single_band_n0_exact_solution checks
        # a known solution)
        ct = build_contours(spec_u, 8)
        block = solve_matrix_rhp(spec_u, ct, _IdentityJumps())
        failed = block.solutions[0]
        assert isinstance(failed, SolverError)
        assert str(failed) == "collocation system is numerically singular"
        assert np.isnan(block.residual.off_collocation) and np.isnan(block.residual.rcond)

    def test_single_band_n0_exact_solution(self, ctx_u, spec_u):
        # At n = 0 the transformed unknown coincides with the untransformed one
        # away from the disks: first row (1, Cauchy transform of the raw weight).
        sol = ctx_u.solution(0)
        z = 2.5 + 1.5j
        got = sol.eval(z)
        cw = (np.pi / 2) * cauchy_cheb(ChebKind.U, 0, UNIT, z)
        assert got[0, 0] == pytest.approx(1.0, abs=1e-11)
        assert got[0, 1] == pytest.approx(cw, abs=1e-11)
        assert abs(got[1, 0]) < 1e-11
        assert got[1, 1] == pytest.approx(1.0, abs=1e-11)

    def test_off_collocation_residual_small(self, ctx_two_band):
        for n in (0, 2, 5, 20):
            assert ctx_two_band.solution(n).residual.off_collocation <= 1e-10

    def test_residual_decay_under_doubling(self, spec_two_band):
        import warnings as _w
        res = []
        for ppi in (2, 4, 8):
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                ctx = SolveContext(spec_two_band, ppi)
                res.append(ctx.solution(5).residual.off_collocation)
        assert res[1] < res[0] / 10 or res[1] < 1e-12
        assert res[2] < res[1] / 10 or res[2] < 1e-12

    def test_row_decoupling_bitwise(self, spec_u):
        gd = build_green(spec_u)
        hs = build_hsystem(spec_u, gd)
        ct = build_contours(spec_u, 8)
        jumps = JumpAssembly([solve_aux(hs, gd, 1)], JumpValues(spec_u, gd, ct))
        s1 = solve_matrix_rhp(spec_u, ct, jumps)[1]
        s2 = solve_matrix_rhp(spec_u, ct, jumps)[1]
        assert s1.circle_coeffs.keys() == s2.circle_coeffs.keys()
        for a, b in zip(list(s1.circle_coeffs.values()) + s1.band_coeffs,
                        list(s2.circle_coeffs.values()) + s2.band_coeffs):
            np.testing.assert_array_equal(a, b)

    def test_schwarz_symmetry_of_solution(self, ctx_two_band, rng):
        # diagonal entries conjugate, off-diagonal anti-conjugate (the Cauchy
        # transform of a real density anti-conjugates): conjugation by sigma_3
        sol = ctx_two_band.solution(3)
        z = rng.standard_normal(5) * 2 + 1j * rng.uniform(0.3, 2.0, 5)
        s3 = np.diag([1.0, -1.0])
        got = sol.eval(np.conj(z))
        expected = s3 @ np.conj(sol.eval(z)) @ s3
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_first_order_matches_large_z_probe(self, ctx_two_band):
        # |z| large enough that the next-order term S2/z sits below tolerance;
        # correction avoids the eps*|z| loss of adding I and subtracting it
        sol = ctx_two_band.solution(4)
        S1 = first_order(sol)
        z = 1e9 * (1.0 + 0.6j)
        probe = z * sol.correction(z)
        assert np.max(np.abs(probe - S1)) < 1e-8

    def test_dropped_circles_still_checked(self, ctx_two_band, spec_two_band):
        # every circle is dropped (identity at its nodes), yet the residual at
        # the test nodes between them must see the 0.1 jump entry
        jumps = _IdentityAtNodesOnly(ctx_two_band.contours, [ctx_two_band.aux(300)],
                                     ctx_two_band.jump_values)
        with pytest.warns(ResidualWarning):
            sol = solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[300]
        assert sol.circle_coeffs == {}
        assert sol.residual.off_collocation > 0.05

    @pytest.mark.parametrize("ppi", [8, 16, 32])
    def test_mismatched_basis_shows_in_residual(self, spec_u, ppi):
        # the T weight's kernel bases (U, T) against the U weight's jump, whose
        # endpoint behavior needs (T, U): the residual stays O(1) as ppi grows
        gd = build_green(spec_u)
        hs = build_hsystem(spec_u, gd)
        spec_t = WeightSpec.single(ChebKind.T)
        aux = solve_aux(hs, gd, 1)
        ct_t = build_contours(spec_t, ppi)
        with pytest.warns(ResidualWarning):
            wrong = solve_matrix_rhp(spec_t, ct_t,
                                     JumpAssembly([aux], JumpValues(spec_u, gd, ct_t)))[1]
        assert wrong.residual.off_collocation > 1.0
        ct = build_contours(spec_u, ppi)
        jumps = JumpAssembly([aux], JumpValues(spec_u, gd, ct))
        right = solve_matrix_rhp(spec_u, ct, jumps)[1]
        assert right.residual.off_collocation < 1e-6
        # the contour set's operator is in the U weight's bases
        with pytest.raises(DomainError):
            solve_matrix_rhp(spec_t, ct, jumps)

    def test_circle_jump_must_be_unit_lower_triangular(self, ctx_two_band, spec_two_band):
        # the solver reads a circle's jump as its entry v (circle_entry), and
        # circle_jump is the unit lower-triangular view of v: a jump with an
        # upper entry cannot be expressed, and one patched into circle_jump
        # never reaches the solve
        clean = JumpAssembly([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        jumps = _UpperEntryOnCircles([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        z = ctx_two_band.contours.circles[0].nodes()
        F = clean.circle_jump(0, z)
        assert np.all(F[..., 0, 0] == 1.0) and np.all(F[..., 1, 1] == 1.0)
        assert np.all(F[..., 0, 1] == 0.0)
        assert np.array_equal(F[..., 1, 0], clean.circle_entry(0, z))
        want = solve_matrix_rhp(spec_two_band, ctx_two_band.contours, clean)[3]
        got = solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[3]
        assert got.circle_coeffs.keys() == want.circle_coeffs.keys() == {0, 1}
        for x, y in zip(list(got.circle_coeffs.values()) + got.band_coeffs,
                        list(want.circle_coeffs.values()) + want.band_coeffs):
            assert np.array_equal(x, y)
        assert got.residual == want.residual

    def test_circle_jump_checked_at_test_nodes(self, ctx_two_band, spec_two_band):
        # v off by 0.1 at one upper test node, on a kept (n = 3) and on a
        # dropped circle (n = 300): the residual sees it, never a success
        for n, kept in ((3, 2), (300, 0)):
            jumps = _PoisonedAtATestNode(ctx_two_band.contours, [ctx_two_band.aux(n)],
                                         ctx_two_band.jump_values)
            with pytest.warns(ResidualWarning, match=f"n={n}"):
                sol = solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[n]
            assert sol.residual.off_collocation > 1e-3
            assert len(sol.circle_coeffs) == kept


class TestJumpAssembly:
    def test_band_jump_involution(self, ctx_two_band, spec_two_band):
        jumps = JumpAssembly([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        # [[0, F_01], [F_10, 0]] has determinant -F_01 F_10 = 1, and for a
        # real weight F_10 is real
        x = np.linspace(2.1, 2.9, 7)
        F01, F10 = (entry[0] for entry in jumps.band_jump(1, x))
        np.testing.assert_allclose(F01 * F10, -1.0, atol=1e-12)
        assert np.all(F10.imag == 0.0)

    def test_circle_jump_structure(self, ctx_two_band, spec_two_band):
        jumps = JumpAssembly([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        z = ctx_two_band.contours.circles[0].nodes()
        F = jumps.circle_jump(0, z)[0]
        np.testing.assert_allclose(F[:, 0, 0], 1.0, atol=1e-15)
        np.testing.assert_allclose(F[:, 1, 1], 1.0, atol=1e-15)
        np.testing.assert_allclose(F[:, 0, 1], 0.0, atol=1e-15)
        assert np.max(np.abs(F[:, 1, 0])) > 0

    def test_circle_jump_decays_in_n(self, ctx_u, spec_u):
        z = ctx_u.contours.circles[0].nodes()
        jumps = JumpAssembly([ctx_u.aux(n) for n in range(8, 20)], ctx_u.jump_values)
        devs = np.max(np.abs(jumps.circle_jump(0, z)[..., 1, 0]), axis=1)
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_default_bases_flip(self, spec_two_band):
        spec = WeightSpec.build([(-1.0, 1.0), (2.0, 3.0)], ["V", "U"])
        bases = default_bases(spec)
        assert bases[0] == (ChebKind.W, ChebKind.V)
        assert bases[1] == (ChebKind.T, ChebKind.U)


def _full_circle_table(circ, z):
    """The untruncated Laurent table by running products, one column per
    exponent of circ: the reference the truncated tables are checked against."""
    w = (np.asarray(z, dtype=complex) - circ.center) / circ.radius
    n_neg = int(np.count_nonzero(circ.exponents < 0))
    inner = np.abs(w) < 1.0
    table = np.empty((circ.n_points, len(w)), dtype=complex)
    table[n_neg] = inner
    with np.errstate(under="ignore"):
        np.multiply.accumulate(np.broadcast_to(np.where(inner, w, 0.0), table[n_neg + 1:].shape),
                               axis=0, out=table[n_neg + 1:])
        inv = np.divide(1.0, w, out=np.zeros_like(w), where=~inner)
        np.multiply.accumulate(np.broadcast_to(inv, table[:n_neg].shape), axis=0,
                               out=table[:n_neg][::-1])
    table[:n_neg] *= -1.0
    return table.T


def _operator(ctx):
    return ctx.contours.operator


class TestCircleTables:
    def test_truncated_table_matches_full(self, spec_genus3, rng):
        ctx = SolveContext(spec_genus3)
        op = _operator(ctx)
        off_contour = np.array([0.1 + 2.0j, -0.05 + 0.0j, 4.5 - 0.3j])
        for j, circ in enumerate(ctx.contours.circles):
            u = np.exp(2j * np.pi * rng.random((circ.n_points, 3)))
            for z in (np.concatenate(op.band_nodes), np.concatenate(op.band_test_nodes),
                      off_contour):
                span, table = _circle_table(circ, z)
                assert table.shape == (len(z), len(circ.exponents[span]))
                full = _full_circle_table(circ, z)
                np.testing.assert_allclose(table @ u[span], full @ u, rtol=0, atol=1e-15)

    def test_tables_built_only_for_kept_circles(self, spec_two_band, spec_genus3):
        ctx = SolveContext(spec_two_band)
        recurrence_range(spec_two_band, 1000, 1002, context=ctx)
        assert _operator(ctx)._circle_tables == {}
        ctx = SolveContext(spec_genus3)
        recurrence_range(spec_genus3, 0, 8, context=ctx)
        assert sorted(_operator(ctx)._circle_tables) == [0, 1, 2, 3]

    def test_recip_approx_builds_h_basis_at_zero_once(self, spec_genus3, count_calls):
        calls = count_calls(auxiliary.h_basis)
        approx = recip_approx(spec_genus3, 12)
        assert len(approx.coeffs) == 12
        assert sum(np.all(np.atleast_1d(args[1]) == 0.0) for args in calls) == 1


def _reference_kernels(op, m, z, own=None):
    """Column-m kernels of every band at points z, side by side, as (plus,
    minus): one cauchy_cheb_table call per band and side at this point set
    alone, band `own` (which z lies on) from above and below, the others off
    the contour."""
    plus, minus = [], []
    for q, bp in enumerate(op.bands):
        sides = (Side.PLUS, Side.MINUS) if q == own else (Side.OFF, Side.OFF)
        for out, side in zip((plus, minus), sides):
            out.append(cauchy_cheb_table(op.bases[q][m], bp.n_points, bp.interval, z, side))
    return np.hstack(plus), np.hstack(minus)


def _assert_close(got, want):
    # Band points enter the other bands' off-band calls as complex numbers,
    # whose affine map to [-1, 1] rounds apart from the real one's.
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def _band_node_tables(op):
    """(P, M): the complex tables that op.left and op.right hold at the band
    nodes, column 0's from above and column 1's from below."""
    T = op.left.shape[1]
    return op.left[T:] - 1j * op.left[:T], op.right[:T] + 1j * op.right[T:]


class TestColdPath:
    def test_operator_matches_per_point_set_tables(self, spec_genus3):
        op = _operator(SolveContext(spec_genus3))
        P, M = _band_node_tables(op)
        for p, span in enumerate(op.spans):
            _assert_close(P[span], _reference_kernels(op, 0, op.band_nodes[p], own=p)[0])
            _assert_close(M[span], _reference_kernels(op, 1, op.band_nodes[p], own=p)[1])
            for m in range(2):
                want_plus, want_minus = _reference_kernels(op, m, op.band_test_nodes[p], own=p)
                _assert_close(op.test_plus[m][span], want_plus)
                _assert_close(op.test_minus[m][span], want_minus)
        for circ, z, K in zip(op.circles, op.circle_points, op.circle_K):
            # the upper half-circle: the nodes at angles 0..pi, then the test
            # nodes above the real axis
            half = circ.n_points // 2
            np.testing.assert_array_equal(z, np.concatenate([circ.nodes()[:half + 1],
                                                             circ.test_nodes()[:half]]))
            assert np.all(z.imag >= 0.0) and np.all(z[half + 1:].imag > 0.0)
            np.testing.assert_array_equal(K[:, :-1], _reference_kernels(op, 1, z)[0])
            np.testing.assert_array_equal(K[:, -1], 1.0)

    @pytest.mark.parametrize("spec_name", ["spec_two_band", "spec_genus3"])
    def test_tables_from_below_reflect_those_from_above(self, spec_name, request):
        # on a band's own points the table from below is -conj of the one
        # from above, bit for bit, for every kind (T, U, V, W on genus 3): at
        # the band nodes column 1's, which the real system reads, and at the
        # test nodes both columns'
        op = _operator(SolveContext(request.getfixturevalue(spec_name)))
        P, M = _band_node_tables(op)
        for p, (bp, span) in enumerate(zip(op.bands, op.spans)):
            def table(m, z, side):
                return cauchy_cheb_table(op.bases[p][m], bp.n_points, bp.interval, z, side)

            z = op.band_nodes[p]
            assert np.array_equal(P[span, span], table(0, z, Side.PLUS))
            assert np.array_equal(M[span, span], -np.conj(table(1, z, Side.PLUS)))
            assert np.array_equal(M[span, span], table(1, z, Side.MINUS))
            for m in range(2):
                own_below = op.test_minus[m][span, span]
                assert np.array_equal(own_below, -np.conj(op.test_plus[m][span, span]))
                assert np.array_equal(own_below, table(m, op.band_test_nodes[p], Side.MINUS))

    @pytest.mark.parametrize("workload", ["genus3", "window"])
    def test_first_solve_makes_one_pass(self, workload, spec_genus3, spec_two_band, count_calls):
        # two table calls per band and column: off the band, and from above
        # at its own points
        spec, n, most = (spec_genus3, 0, 16) if workload == "genus3" else (spec_two_band, 1000, 8)
        ctx = SolveContext(spec)
        tables = count_calls(cauchy.cauchy_cheb_table)
        h_calls = count_calls(auxiliary.h_basis)
        g_calls = count_calls(green.eval_g)
        ctx.solution(n)
        assert len(tables) == most
        for calls in (h_calls, g_calls):
            sides = [args[-1] for args in calls]
            assert len(sides) == len(set(sides)) and set(sides) <= {Side.OFF, Side.PLUS}

    def test_toda_times_share_g_at_the_circles(self, spec_two_band, count_calls):
        g_calls = count_calls(green.eval_g)
        toda_evolve(spec_two_band, 3, [0.0, 0.5, 1.0], 8)
        assert len(g_calls) == 2

    @pytest.mark.parametrize("spec_name", ["spec_two_band", "spec_genus3"])
    def test_axis_node_takes_the_upper_limit(self, spec_name, request):
        # the one upper point on the real axis, node k = 0, takes its values
        # from above, bit for bit; Side.OFF at x + 0j would not: the weight's
        # b - u drops the sign of the zero imaginary part and comes out with
        # the wrong sign
        spec = request.getfixturevalue(spec_name)
        ctx = SolveContext(spec)
        for j, circ in enumerate(ctx.contours.circles):
            assert np.array_equal(np.flatnonzero(circ.upper.imag == 0.0), [0])
            x = circ.upper[:1].real
            sign, R, transforms, g, w = ctx.jump_values.circle(j, circ.upper)
            assert np.array_equal(np.vstack([sign, R, transforms, g])[:, :1],
                                  ctx.jump_values._geometry_at(x, Side.PLUS))
            assert np.array_equal(w[:1], spec.weight_value(j, x, Side.PLUS))
            assert np.array_equal(spec.weight_value(j, x + 0j, Side.OFF), -w[:1])

    def test_cloud_values_match_a_lone_point_set(self, spec_genus3):
        ctx = SolveContext(spec_genus3)
        ctx.solution(0)
        # Without circles the values have no cloud to fill: each request is
        # evaluated at its own points only.
        no_cloud = ContourSet(circles=(), bands=ctx.contours.bands, bases=ctx.contours.bases)
        for j, z in enumerate(_operator(ctx).circle_points):
            lone = JumpValues(spec_genus3, ctx.green, no_cloud).circle(j, z)
            for got, want in zip(ctx.jump_values.circle(j, z), lone):
                np.testing.assert_array_equal(got, want)


def _band_matrices(jumps, j, x):
    """The band jumps [[0, F_01], [F_10, 0]] of the first index at points x
    of band j, shape (len(x), 2, 2)."""
    F = np.zeros((len(x), 2, 2), dtype=complex)
    F[:, 0, 1], F[:, 1, 0] = (entry[0] for entry in jumps.band_jump(j, x))
    return F


def _two_sided_residual(sol, contours, jumps):
    """Max |Phi_+ - Phi_- F| over the test nodes of every piece of contours,
    with both boundary values summed from every density of sol: the defect
    that the residual of solve_matrix_rhp reports."""
    op = sol.operator
    kept = {op.circles[j]: coeff for j, coeff in sol.circle_coeffs.items()}
    band_u = [np.concatenate([c[:, m, :] for c in sol.band_coeffs], axis=1) for m in range(2)]
    pieces = [(c.test_nodes(), jumps.circle_jump(j, c.test_nodes())[0], c, None)
              for j, c in enumerate(contours.circles)]
    pieces += [(bp.test_nodes(), _band_matrices(jumps, p, bp.test_nodes()), None, p)
               for p, bp in enumerate(contours.bands)]
    worst = 0.0
    for z, F, own_circle, own_band in pieces:
        plus = np.zeros((len(z), 2, 2), dtype=complex)
        plus[:, 0, 0] = plus[:, 1, 1] = 1.0
        minus = plus.copy()
        for m in range(2):
            above, below = _reference_kernels(op, m, z, own=own_band)
            plus[:, :, m] += above @ band_u[m].T
            minus[:, :, m] += below @ band_u[m].T
        # a circle's density is column 0's only
        for circ, coeff in kept.items():
            if circ == own_circle:
                # the nonnegative powers inside, the negated negative ones outside
                powers = ((z - circ.center) / circ.radius)[:, None] ** circ.exponents
                inside = circ.exponents >= 0
                plus[:, :, 0] += powers[:, inside] @ coeff[:, inside].T
                minus[:, :, 0] -= powers[:, ~inside] @ coeff[:, ~inside].T
            else:
                part = _full_circle_table(circ, z) @ coeff.T
                plus[:, :, 0] += part
                minus[:, :, 0] += part
        worst = max(worst, np.max(np.abs(plus - minus @ F)))
    return worst


class TestOneSidedResidual:
    def test_coupling_matches_fft_reference(self, spec_genus3, rng):
        # the coupling from the upper half-circle against the full complex
        # product over every node: its real part in the band columns, its
        # imaginary part in the column of ones
        ctx = SolveContext(spec_genus3)
        ctx.solution(0)
        op = _operator(ctx)
        for j, circ in enumerate(ctx.contours.circles):
            n = circ.n_points
            jump = JumpAssembly([ctx.aux(0)], ctx.jump_values).circle_jump(j, circ.nodes())
            # and a random jump entry of the symmetric form, -conj of the
            # upper one at the mirror node, imaginary on the axis
            upper = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
            upper[[0, -1]] = 1j * upper[[0, -1]].imag
            w = np.concatenate([upper, -np.conj(upper[1:-1][::-1])])
            for data in (jump[0, :, 1, 0], w):
                want = _full_coupling(op, j, data)
                got = op.coupling(j, data)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[:, :-1] - want[:, :-1].real)) <= 1e-14 * scale
                assert np.max(np.abs(got[:, -1] - want[:, -1].imag)) <= 1e-14 * scale
                # what the real parts leave out is rounding
                assert np.max(np.abs(want[:, :-1].imag)) <= 1e-13 * scale
                assert np.max(np.abs(want[:, -1].real)) <= 1e-13 * scale

    def test_genus3_small_n(self, spec_genus3):
        ctx = SolveContext(spec_genus3)
        for n in range(9):
            sol = ctx.solution(n)
            assert len(sol.circle_coeffs) == 4
            jumps = JumpAssembly([ctx.aux(n)], ctx.jump_values)
            want = _two_sided_residual(sol, ctx.contours, jumps)
            assert abs(sol.residual.off_collocation - want) <= 1e-13

    def test_two_bands_while_circles_drop(self, ctx_two_band):
        used = set()
        for n in range(50, 86):
            sol = ctx_two_band.solution(n)
            used.add(len(sol.circle_coeffs))
            jumps = JumpAssembly([ctx_two_band.aux(n)], ctx_two_band.jump_values)
            want = _two_sided_residual(sol, ctx_two_band.contours, jumps)
            assert abs(sol.residual.off_collocation - want) <= 1e-13
        assert used == {0, 1, 2}

    def test_dropped_circles(self, ctx_two_band, spec_two_band):
        jumps = _IdentityAtNodesOnly(ctx_two_band.contours, [ctx_two_band.aux(300)],
                                     ctx_two_band.jump_values)
        with pytest.warns(ResidualWarning):
            sol = solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[300]
        want = _two_sided_residual(sol, ctx_two_band.contours, jumps)
        assert want > 0.05
        assert abs(sol.residual.off_collocation - want) <= 1e-13


class TestLU:
    def test_one_factorization_per_system(self, spec_two_band, count_calls):
        calls = count_calls(rhp.lu_factor)
        solves = count_calls(rhp.lu_solve)
        seg = recurrence_range(spec_two_band, 1000, 1010)
        assert not seg.meta["failures"]
        assert [args[0].shape for args in calls] == [(64, 64)] * 12
        assert len(solves) == 12

    def test_singular_system_fails_alone(self, spec_two_band, monkeypatch):
        # At n = 1005 the band jump's entries are (0, 0) on every band, so
        # F_10 = 0 on every band node: the right half of the real system,
        # -F_10 times the column-1 tables, is exactly zero (no circle is kept
        # at these n), and the system is singular.
        clean = recurrence_range(spec_two_band, 1000, 1010)
        original = JumpAssembly.band_jump

        def singular(self, j, x):
            out = original(self, j, x)
            for entry in out:
                entry[self.ns == 1005] = 0.0
            return out

        monkeypatch.setattr(JumpAssembly, "band_jump", singular)
        got = recurrence_range(spec_two_band, 1000, 1010)
        assert got.meta["failures"] == [(n, "collocation system is numerically singular")
                                        for n in (1004, 1005)]
        ok = ~np.isin(got.ns, [1004, 1005])
        for key in ("residuals", "rcond", "circles_used", "circle_deviation"):
            assert np.array_equal(got.meta[key][ok], clean.meta[key][ok])
        assert np.array_equal(got.a[ok], clean.a[ok]) and np.array_equal(got.b[ok], clean.b[ok])


class TestExponentialScreen:
    def test_matches_unscreened_exponential(self, spec_two_band):
        ctx = SolveContext(spec_two_band)
        auxes = [ctx.aux(n) for n in range(1000, 1012)]
        jumps = JumpAssembly(auxes, ctx.jump_values)
        weights = np.array([h_weights(aux) for aux in auxes])
        for j, z in enumerate(_operator(ctx).circle_points):
            sign, R, transforms, g, w = ctx.jump_values.circle(j, z)
            expo = 2.0 * combine_h(weights, R, transforms) - 2.0 * jumps.ns[:, None] * g
            with np.errstate(under="ignore"):
                want = sign * np.exp(expo) / w
            got = jumps.circle_jump(j, z)[..., 1, 0]
            assert np.all(got == want)
            low = expo.real < -746.0
            assert 0.5 < np.mean(low) < 1.0 and np.all(got[low] == 0.0)

    def test_nan_exponent_fails_its_index_alone(self, spec_two_band):
        # a NaN in g at one circle point, for n = 1005 only, must reach the
        # exponential and fail that index, as not finite
        ns = list(range(1000, 1012))
        ctx = SolveContext(spec_two_band)
        clean = solve_matrix_rhp(spec_two_band, ctx.contours,
                                 JumpAssembly([ctx.aux(n) for n in ns], ctx.jump_values))

        class PoisonedG:
            def circle(self, j, z):
                sign, R, transforms, g, w = ctx.jump_values.circle(j, z)
                g = np.repeat(g[None], len(ns), axis=0)
                if j == 0:
                    g[ns.index(1005), 7] = np.nan
                return sign, R, transforms, g, w

            def band_weight(self, j, x):
                return ctx.jump_values.band_weight(j, x)

        block = solve_matrix_rhp(spec_two_band, ctx.contours,
                                 JumpAssembly([ctx.aux(n) for n in ns], PoisonedG()))
        failed = block.solutions[1005]
        assert isinstance(failed, SolverError) and "not finite" in str(failed)
        for n in ns:
            if n != 1005:
                want = clean[n]
                got = block[n]
                assert got.residual == want.residual and not got.circle_coeffs
                for x, y in zip(got.band_coeffs, want.band_coeffs):
                    assert np.array_equal(x, y)


def _real_solve_case(name, spec_two_band, spec_genus3):
    """(context, indices) of the three geometries the real solve is checked on:
    circles kept and dropped on two bands, every circle kept on genus 3, and
    one U band under e^(2x) (whose solve at n = 0 is under-resolved at any
    ppi: its circle keeps 12 positive modes)."""
    if name == "two bands":
        return SolveContext(spec_two_band), (3, 60, 1000)
    if name == "genus 3":
        return SolveContext(spec_genus3), (0, 5)
    return SolveContext(WeightSpec.single(ChebKind.U).with_exp_factor(2.0)), (1, 4)


def _full_kernels(op, circ):
    """The bands' column-1 kernels at every node of circ, lower ones included,
    then a column of ones: the operator's circle_K over the whole circle."""
    kernels = _reference_kernels(op, 1, circ.nodes())[0]
    return np.column_stack([kernels, np.ones(len(kernels))])


def _full_coupling(op, j, v):
    """G diag(v) K over every node of circle j, in complex arithmetic: the
    untruncated Laurent table at the band nodes times the DFT of v K."""
    circ = op.circles[j]
    n = circ.n_points
    Z = np.fft.fft(v[:, None] * _full_kernels(op, circ), axis=0)[circ.exponents % n] / n
    return _full_circle_table(circ, np.concatenate(op.band_nodes)) @ Z


def _full_band_tables(op, m):
    """(plus, minus): the complex column-m tables at every band node, from
    above and from below, each band's points alone (_reference_kernels)."""
    per_band = [_reference_kernels(op, m, z, own=p) for p, z in enumerate(op.band_nodes)]
    return tuple(np.vstack(side) for side in zip(*per_band))


def _complex_system(op, F, v, kept):
    """The complex 2T x 2T collocation system in the band unknowns of one
    index, both columns' equations, with the circles of `kept` eliminated
    (their full complex coupling); F the band jumps at the band nodes, v[j]
    circle j's jump entry F_10 at its nodes."""
    T = F.shape[0]
    tables = [_full_band_tables(op, m) for m in range(2)]
    coupling = np.zeros((T, T + 1), dtype=complex)
    for j in kept:
        coupling += _full_coupling(op, j, v[j])
    A = np.zeros((2 * T, 2 * T), dtype=complex)
    rhs = np.zeros((2 * T, 2), dtype=complex)
    eye = np.eye(2)
    for m in range(2):
        rows = slice(m * T, (m + 1) * T)
        for m2 in range(2):
            cols = slice(m2 * T, (m2 + 1) * T)
            plus, minus = tables[m2]
            A[rows, cols] = -F[:, m2, m, None] * minus + eye[m, m2] * plus
        rhs[rows] = F[:, :, m] - eye[:, m]
        scale = eye[0, m] - F[:, 0, m]
        A[rows, T:] += scale[:, None] * coupling[:, :T]
        rhs[rows, 1] -= scale * coupling[:, T]
    return A, rhs


class TestRealSolve:
    @pytest.fixture(scope="class", params=["two bands", "genus 3", "U band under exp(2x)"])
    def case(self, request, spec_two_band, spec_genus3):
        """(context, [(index, solution, F, v)]): F the band jumps at the band
        nodes, v[j] circle j's jump entry F_10 at its nodes."""
        ctx, ns = _real_solve_case(request.param, spec_two_band, spec_genus3)
        op = _operator(ctx)
        solves = []
        for n in ns:
            jumps = JumpAssembly([ctx.aux(n)], ctx.jump_values)
            F = np.concatenate([_band_matrices(jumps, q, x) for q, x in enumerate(op.band_nodes)])
            v = [jumps.circle_entry(j, c.nodes())[0] for j, c in enumerate(op.circles)]
            solves.append((n, ctx.solution(n), F, v))
        return ctx, solves

    def test_matches_complex_collocation_solve(self, case):
        ctx, solves = case
        for _, sol, F, v in solves:
            A, rhs = _complex_system(_operator(ctx), F, v, sol.circle_coeffs)
            want = np.linalg.solve(A, rhs)
            got = np.concatenate([np.concatenate([c[:, m, :].T for c in sol.band_coeffs])
                                  for m in range(2)])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_column_1_rows_are_conjugates_of_column_0_rows(self, case):
        # with column 0's unknowns taken times i (and row 1's right-hand
        # side times -i), as in the real system, column 1's equation at a
        # band node is conj(column 0's) / F_10 there
        ctx, solves = case
        for _, sol, F, v in solves:
            A, rhs = _complex_system(_operator(ctx), F, v, sol.circle_coeffs)
            T = len(F)
            rows = np.hstack([A * np.repeat([1j, 1.0], T), rhs * [1.0, -1j]])
            col0, col1 = rows[:T], rows[T:]
            want = np.conj(col0) / F[:, 1, 0, None]
            assert np.all(np.abs(col1 - want) <= 1e-15 * np.max(np.abs(col1), axis=1)[:, None])

    def test_half_circle_coupling_matches_full_product(self, case):
        # to rounding for a jump entry of the symmetric form, the lower half
        # -conj of the upper: the sum cancels (at n = 60 on two bands the
        # result is 1e-4 of the sum of |G| |v| |K|), so each entry is held
        # to that sum's rounding.  The computed entry departs from the
        # symmetric form by its own rounding, amplified by n in the
        # exponent, and moves the full product by that departure times
        # |G| |K|.
        ctx, solves = case
        op = _operator(ctx)
        kept = 0
        for _, sol, _, v in solves:
            for j in sol.circle_coeffs:
                kept += 1
                circ = op.circles[j]
                n = circ.n_points
                G = _full_circle_table(circ, np.concatenate(op.band_nodes)) \
                    @ np.fft.fft(np.eye(n), axis=0)[circ.exponents % n] / n
                K = _full_kernels(op, circ)
                mirrored = v[j].copy()
                mirrored[n // 2 + 1:] = -np.conj(v[j][1:n // 2][::-1])
                got = op.coupling(j, v[j])
                assert np.array_equal(got, op.coupling(j, mirrored))
                departure = np.abs(G) @ (np.abs(v[j] - mirrored)[:, None] * np.abs(K))
                for data, slack in ((mirrored, 0.0), (v[j], departure)):
                    want = _full_coupling(op, j, data)
                    want = np.column_stack([want[:, :-1].real, want[:, -1].imag])
                    bound = 1e-14 * (np.abs(G) @ (np.abs(data)[:, None] * np.abs(K))) + slack
                    assert np.all(np.abs(got - want) <= bound)
        assert kept

    def test_lower_nodes_are_exact_conjugates(self, case):
        ctx, _ = case
        for circ in ctx.contours.circles:
            n = circ.n_points
            k = np.arange(n)
            nodes, test_nodes = circ.nodes(), circ.test_nodes()
            off_axis = k[(k > 0) & (2 * k != n)]
            assert np.array_equal(nodes[n - off_axis], np.conj(nodes[off_axis]))
            assert np.array_equal(test_nodes[n - 1 - k], np.conj(test_nodes[k]))

    @pytest.mark.parametrize("where", ["test nodes", "nodes and test nodes"])
    def test_band_jump_with_a_diagonal_shows_in_residual(self, case, where):
        # the real system reads only Re F_10 at the band nodes; a band jump of
        # another form shows in the residual, never as a silent success.  A
        # diagonal cannot be expressed in the entries (F_01, F_10), so the
        # jump is taken off its form by 0.1 added to (a) F_01, so that
        # F_01 F_10 != -1, and (b) 0.1i to F_10, so that it is not real
        ctx, solves = case
        op = _operator(ctx)
        points = np.concatenate(op.band_test_nodes if where == "test nodes"
                                else op.band_nodes + op.band_test_nodes)

        class OffItsForm(JumpAssembly):
            def band_jump(self, j, x):
                entries = super().band_jump(j, x)
                entries[self.entry][:, np.isin(x, points)] += self.shift
                return entries

        for entry, shift in ((0, 0.1), (1, 0.1j)):
            for n, _, _, _ in solves:
                jumps = OffItsForm([ctx.aux(n)], ctx.jump_values)
                jumps.entry, jumps.shift = entry, shift
                with pytest.warns(ResidualWarning, match=f"n={n}"):
                    sol = solve_matrix_rhp(ctx.jump_values.spec, ctx.contours, jumps)[n]
                assert sol.residual.off_collocation > 1e-3


# Every h type of the config grammar, each positive on (0.5, 1.3) and without
# a zero or pole in that band's deformation disk.
_H_CONFIGS = {
    "one": {"type": "one"},
    "exp_scale": {"type": "exp_scale", "c": 0.7, "offset": 0.2},
    "poly": {"type": "poly", "coeffs": [2.0, 0.5, 0.3]},
    "rational": {"type": "rational", "num_coeffs": [1.0, 0.1], "den_coeffs": [4.0, 0.0, 1.0]},
    "product": [{"type": "exp_scale", "c": -0.4}, {"type": "poly", "coeffs": [3.0, 1.0]}],
}


def _off_axis_upper(circ):
    """circ's upper points strictly above the real axis."""
    return circ.upper[circ.upper.imag > 0.0]


def _assert_reflects(at_conj, reflected):
    """at_conj equals reflected to 1e-14 relative, point by point."""
    assert np.all(np.abs(at_conj - reflected) <= 1e-14 * np.abs(reflected))


@pytest.mark.parametrize("kind", "TUVW")
@pytest.mark.parametrize("h", _H_CONFIGS)
def test_weight_value_reflects(kind, h):
    # w(conj z) = conj w(z) for every kind and h: the circle entry's weight
    # below the axis is the conjugate of the one above
    spec = WeightSpec.single(ChebKind(kind), (0.5, 1.3), h_from_config(_H_CONFIGS[h]))
    z = _off_axis_upper(build_contours(spec, 16).circles[0])
    _assert_reflects(spec.weight_value(0, np.conj(z)), np.conj(spec.weight_value(0, z)))


class TestSchwarzSymmetry:
    """What computing on the upper half-circle only relies on, checked on the
    recip4 weight (genus 3, kinds T/U/V/W), one U band under e^(2x) and three
    T bands, against values computed directly at the lower points."""

    @pytest.fixture(scope="class", params=["genus 3", "U band under exp(2x)", "three T bands"])
    def ctx(self, request, spec_genus3):
        if request.param == "genus 3":
            return SolveContext(spec_genus3)
        if request.param == "three T bands":
            # at ppi 16 its residual, 2.7e-6 at n = 1, warns
            bands = [(-3.0, -1.0), (-0.5, 0.5), (1.0, 3.0)]
            return SolveContext(WeightSpec.build(bands, "TTT"), 24)
        return SolveContext(WeightSpec.single(ChebKind.U).with_exp_factor(2.0))

    def test_geometry_reflects(self, ctx):
        # R and g conjugate, the h basis (Cauchy transforms of real
        # densities) anti-conjugates
        z = np.concatenate([_off_axis_upper(c) for c in ctx.contours.circles])
        R, transforms = auxiliary.h_basis(ctx.green, z)
        R_below, transforms_below = auxiliary.h_basis(ctx.green, np.conj(z))
        _assert_reflects(R_below, np.conj(R))
        _assert_reflects(transforms_below, -np.conj(transforms))
        _assert_reflects(green.eval_g(ctx.green, np.conj(z)), np.conj(green.eval_g(ctx.green, z)))

    def test_circle_entry_below_is_minus_conj_above(self, ctx):
        # at small n, where every circle is kept; the exponent's rounding
        # grows with n
        for n in (0, 1, 4):
            jumps = JumpAssembly([ctx.aux(n)], ctx.jump_values)
            for j, circ in enumerate(ctx.contours.circles):
                m = circ.n_points
                k = np.arange(m // 2)
                v = jumps.circle_entry(j, circ.nodes())[0]
                _assert_reflects(v[m - k[1:]], -np.conj(v[k[1:]]))
                v = jumps.circle_entry(j, circ.test_nodes())[0]
                _assert_reflects(v[m - 1 - k], -np.conj(v[k]))

    def test_halved_residual_matches_full_circle(self, ctx):
        # the residual from the upper test nodes against the two-sided defect
        # from circle_jump at every test node of every piece
        for n in (1, 4):
            sol = ctx.solution(n)
            want = _two_sided_residual(sol, ctx.contours,
                                       JumpAssembly([ctx.aux(n)], ctx.jump_values))
            assert abs(sol.residual.off_collocation - want) <= 1e-13

    def test_coefficients_match_full_fft(self, ctx):
        # each kept circle's column-0 coefficients, from Hermitian FFTs of
        # the upper nodes' data, against the full DFT of v (K u_B1 + [r == 1])
        # made at every node, lower ones included
        op = _operator(ctx)
        for n in (1, 4):
            sol = ctx.solution(n)
            jumps = JumpAssembly([ctx.aux(n)], ctx.jump_values)
            u_B1 = np.concatenate([c[:, 1, :] for c in sol.band_coeffs], axis=1)
            Xe = np.vstack([u_B1.T, [0.0, 1.0]])
            assert sol.circle_coeffs
            for j, coeff in sol.circle_coeffs.items():
                circ = op.circles[j]
                m = circ.n_points
                v = jumps.circle_entry(j, circ.nodes())[0]
                data = v[:, None] * (_full_kernels(op, circ) @ Xe)
                want = np.fft.fft(data, axis=0)[circ.exponents % m].T / m
                assert coeff.shape == want.shape == (2, m)
                assert np.max(np.abs(coeff - want)) <= 1e-14 * np.max(np.abs(want))

    def test_poisoned_entry_at_an_upper_test_node_warns(self, ctx):
        jumps = _PoisonedAtATestNode(ctx.contours, [ctx.aux(4)], ctx.jump_values)
        with pytest.warns(ResidualWarning, match="n=4"):
            sol = solve_matrix_rhp(ctx.jump_values.spec, ctx.contours, jumps)[4]
        assert sol.residual.off_collocation > 1e-3
