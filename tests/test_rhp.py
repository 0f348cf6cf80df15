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
from rhjacobi.weights import HPoly, HRational, WeightSpec


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

    def circle_jump(self, j, z):
        out = np.zeros((1, len(np.atleast_1d(z)), 2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        return out

    band_jump = circle_jump


class _IdentityAtNodesOnly(JumpAssembly):
    """Circle jumps that are I at the collocation nodes and not between them."""

    def __init__(self, contours, *args):
        super().__init__(*args)
        self.contours = contours

    def circle_jump(self, j, z):
        out = super().circle_jump(j, z)
        out[..., 1, 0] = np.where(np.isin(z, self.contours.circles[j].nodes()), 0.0, 0.1)
        return out


class _UpperEntryOnCircles(JumpAssembly):
    """Circle jumps with a nonzero (0, 1) entry: no longer unit lower-triangular."""

    def circle_jump(self, j, z):
        out = super().circle_jump(j, z)
        out[..., 0, 1] = 0.1
        return out


class _UpperEntryAtTestNodes(_IdentityAtNodesOnly):
    """Circle jumps that are unit lower-triangular at the nodes but not at the
    test nodes between them."""

    def circle_jump(self, j, z):
        out = JumpAssembly.circle_jump(self, j, z)
        out[..., 0, 1] = np.where(np.isin(z, self.contours.circles[j].test_nodes()), 0.1, 0.0)
        return out


class TestMatrixSolve:
    def test_identity_jumps_give_zero(self, spec_u):
        ct = build_contours(spec_u, 8)
        sol = solve_matrix_rhp(spec_u, ct, _IdentityJumps())[0]
        for cc in list(sol.circle_coeffs.values()) + sol.band_coeffs:
            np.testing.assert_allclose(cc, 0.0, atol=1e-13)
        np.testing.assert_allclose(first_order(sol), 0.0, atol=1e-13)
        np.testing.assert_allclose(sol.eval(0.2 + 3.4j), np.eye(2), atol=1e-13)

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
        jumps = _UpperEntryOnCircles([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        with pytest.raises(SolverError):
            solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[3]

    def test_circle_jump_checked_at_test_nodes(self, ctx_two_band, spec_two_band):
        # the residual on a circle assumes the triangular form there too
        jumps = _UpperEntryAtTestNodes(ctx_two_band.contours, [ctx_two_band.aux(3)],
                                       ctx_two_band.jump_values)
        F = jumps.circle_jump(0, ctx_two_band.contours.circles[0].nodes())
        assert np.all(F[..., 0, 1] == 0.0)
        with pytest.raises(SolverError, match="test nodes"):
            solve_matrix_rhp(spec_two_band, ctx_two_band.contours, jumps)[3]


class TestJumpAssembly:
    def test_band_jump_involution(self, ctx_two_band, spec_two_band):
        jumps = JumpAssembly([ctx_two_band.aux(3)], ctx_two_band.jump_values)
        x = np.linspace(2.1, 2.9, 7)
        F = jumps.band_jump(1, x)[0]
        dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        np.testing.assert_allclose(dets, 1.0, atol=1e-12)
        np.testing.assert_allclose(F[:, 0, 0], 0.0, atol=1e-15)

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


class TestColdPath:
    def test_operator_matches_per_point_set_tables(self, spec_genus3):
        op = _operator(SolveContext(spec_genus3))
        for m in range(2):
            for p, span in enumerate(op.spans):
                for z, above, below in ((op.band_nodes[p], op.plus[m], op.minus[m]),
                                        (op.band_test_nodes[p], op.test_plus[m], op.test_minus[m])):
                    want_plus, want_minus = _reference_kernels(op, m, z, own=p)
                    _assert_close(above[span], want_plus)
                    _assert_close(below[span], want_minus)
        for circ, z, K in zip(op.circles, op.circle_points, op.circle_K):
            np.testing.assert_array_equal(z, np.concatenate([circ.nodes(), circ.test_nodes()]))
            np.testing.assert_array_equal(K[:, :-1], _reference_kernels(op, 1, z)[0])
            np.testing.assert_array_equal(K[:, -1], 1.0)

    @pytest.mark.parametrize("spec_name", ["spec_two_band", "spec_genus3"])
    def test_tables_from_below_reflect_those_from_above(self, spec_name, request):
        # on a band's own points the table from below is -conj of the one
        # from above, bit for bit, for every kind (T, U, V, W on genus 3)
        op = _operator(SolveContext(request.getfixturevalue(spec_name)))
        for m in range(2):
            for p, (bp, span) in enumerate(zip(op.bands, op.spans)):
                for z, above, below in ((op.band_nodes[p], op.plus[m], op.minus[m]),
                                        (op.band_test_nodes[p], op.test_plus[m], op.test_minus[m])):
                    own_below = below[span, span]
                    assert np.array_equal(own_below, -np.conj(above[span, span]))
                    assert np.array_equal(own_below, cauchy_cheb_table(
                        op.bases[p][m], bp.n_points, bp.interval, z, Side.MINUS))

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


def _two_sided_residual(sol, contours, jumps):
    """Max |Phi_+ - Phi_- F| over the test nodes of every piece of contours,
    with both boundary values summed from every density of sol: the defect
    that the residual of solve_matrix_rhp reports."""
    op = sol.operator
    kept = {op.circles[j]: coeff for j, coeff in sol.circle_coeffs.items()}
    band_u = [np.concatenate([c[:, m, :] for c in sol.band_coeffs], axis=1) for m in range(2)]
    pieces = [(c.test_nodes(), jumps.circle_jump(j, c.test_nodes())[0], c, None)
              for j, c in enumerate(contours.circles)]
    pieces += [(bp.test_nodes(), jumps.band_jump(p, bp.test_nodes())[0], None, p)
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
            for circ, coeff in kept.items():
                if circ == own_circle:
                    # the nonnegative powers inside, the negated negative ones outside
                    powers = ((z - circ.center) / circ.radius)[:, None] ** circ.exponents
                    inside = circ.exponents >= 0
                    plus[:, :, m] += powers[:, inside] @ coeff[:, m, inside].T
                    minus[:, :, m] -= powers[:, ~inside] @ coeff[:, m, ~inside].T
                else:
                    part = _full_circle_table(circ, z) @ coeff[:, m, :].T
                    plus[:, :, m] += part
                    minus[:, :, m] += part
        worst = max(worst, np.max(np.abs(plus - minus @ F)))
    return worst


class TestOneSidedResidual:
    def test_coupling_matches_fft_reference(self, spec_genus3, rng):
        ctx = SolveContext(spec_genus3)
        ctx.solution(0)
        op = _operator(ctx)
        band_nodes = np.concatenate(op.band_nodes)
        for j, circ in enumerate(ctx.contours.circles):
            n = circ.n_points
            G, _, _ = op.circle_tables(j)
            K = op.circle_K[j][:n]
            jump = JumpAssembly([ctx.aux(0)], ctx.jump_values).circle_jump(j, circ.nodes())
            for v in (jump[0, :, 1, 0], rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                Z = np.fft.fft(v[:, None] * K, axis=0)[circ.exponents % n] / n
                want = _full_circle_table(circ, band_nodes) @ Z
                got = G @ (v[:, None] * K)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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
        # At n = 1005 the band jump is diag(1, -1) on band 0 and the identity
        # on band 1.  Band 0's degree-0 first-kind kernel is real on its own
        # points and reflects to its negative, and the other bands' kernels
        # are the same from both sides, so its column of the system cancels
        # to exact zeros.
        clean = recurrence_range(spec_two_band, 1000, 1010)
        original = JumpAssembly.band_jump

        def singular(self, j, x):
            out = original(self, j, x)
            out[self.ns == 1005] = np.diag([1.0, -1.0 if j == 0 else 1.0])
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
