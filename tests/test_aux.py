import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rhjacobi.auxiliary import build_hsystem, eval_h, solve_aux, wrap_angle
from rhjacobi.cauchy import Side
from rhjacobi.chebyshev import ChebKind
from rhjacobi.green import build_green, eval_R
from rhjacobi.weights import WeightSpec


@pytest.fixture(scope="module")
def sym(spec_symmetric):
    gd = build_green(spec_symmetric)
    hs = build_hsystem(spec_symmetric, gd)
    return spec_symmetric, gd, hs


class TestWrapAngle:
    def test_principal_interval(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi       # boundary maps to +pi
        assert wrap_angle(3 * np.pi) == np.pi
        assert wrap_angle(1.5 * np.pi) == pytest.approx(-0.5 * np.pi)

    @given(theta=st.floats(-1e4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_is_principal_log_of_phase(self, theta):
        w = wrap_angle(theta)
        assert -np.pi < w <= np.pi + 1e-15
        assert abs(np.exp(1j * w) - np.exp(1j * theta)) < 1e-7

    def test_near_multiples_snap(self):
        # rational-phase weights must wrap deterministically under rounding
        assert wrap_angle(7 * np.pi * (1 + 1e-13)) == np.pi
        assert wrap_angle(7 * np.pi * (1 - 1e-13)) == np.pi
        assert wrap_angle(6 * np.pi * (1 + 1e-13)) == 0.0


class TestHSystem:
    def test_single_interval_matrix(self, spec_u):
        gd = build_green(spec_u)
        hs = build_hsystem(spec_u, gd)
        assert hs.H.shape == (2, 1)
        assert abs(hs.H[0, 0]) == pytest.approx(np.pi, abs=1e-12)

    def test_row_sums(self, sym, spec_two_band, green_two_band, hsys_two_band):
        for hs, g in ((sym[2], 1), (hsys_two_band, 1)):
            sums = hs.H[: g + 1, :].sum(axis=1)
            np.testing.assert_allclose(sums[:g], 0.0, atol=1e-11)
            assert abs(abs(sums[g]) - np.pi) < 1e-11
            assert abs(sums[g].real) < 1e-11

    def test_entries_against_reference_quadrature(self, sym):
        # 1/R_plus on band j = -i/(sqrt sqrt times the other bands' factor);
        # the smooth part stays finite at the endpoints for QUADPACK.
        from rhjacobi.cauchy import sqrt_cut
        spec, gd, hs = sym
        for j, band in enumerate(spec.bands):
            def other(x):
                out = 1.0
                for k2, b2 in enumerate(spec.bands):
                    if k2 != j:
                        out = out * np.real(sqrt_cut(x, b2, Side.PLUS))
                return out
            for k in (1, 2):
                val, _ = quad(lambda x: x ** (k - 1) / other(x), band.a, band.b,
                              weight="alg", wvar=(-0.5, -0.5))
                assert hs.H[k - 1, j] == pytest.approx(-1j * val, abs=1e-12)


class TestSolveAux:
    def test_n_zero_trivial(self, sym):
        spec, gd, hs = sym
        aux = solve_aux(hs, gd, 0)
        np.testing.assert_array_equal(aux.A, 0.0)
        np.testing.assert_array_equal(aux.nu, 0.0)
        assert aux.h1 == 0.0

    def test_single_interval_identically_zero(self, spec_u, rng):
        gd = build_green(spec_u)
        hs = build_hsystem(spec_u, gd)
        for n in (0, 3, 17):
            aux = solve_aux(hs, gd, n)
            np.testing.assert_array_equal(aux.A, 0.0)
            assert aux.h1 == 0.0
            z = rng.standard_normal(5) + 1j * rng.uniform(0.5, 2, 5)
            np.testing.assert_array_equal(eval_h(gd, aux, z), 0.0)

    def test_constants_real_and_bounded_over_sweep(self, sym):
        spec, gd, hs = sym
        amax = 0.0
        for n in range(0, 1001, 7):
            aux = solve_aux(hs, gd, n)
            amax = max(amax, np.max(np.abs(aux.A)))
        assert amax < 50.0

    def test_periodicity_for_rational_phase(self, sym):
        spec, gd, hs = sym
        for n in (0, 1, 5, 12):
            a1 = solve_aux(hs, gd, n).A
            a2 = solve_aux(hs, gd, n + 2).A
            np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_nu_is_wrapped_phase(self, spec_two_band, green_two_band, hsys_two_band):
        n = 37
        aux = solve_aux(hsys_two_band, green_two_band, n)
        expected = 1j * wrap_angle(n * green_two_band.deltas[0].imag)
        assert aux.nu[0] == expected
        assert -np.pi < aux.nu[0].imag <= np.pi


class TestEvalH:
    def test_band_sum_identity(self, sym):
        spec, gd, hs = sym
        aux = solve_aux(hs, gd, 3)
        for j, band in enumerate(spec.bands):
            x = np.linspace(band.a + 0.04, band.b - 0.04, 11)
            s = eval_h(gd, aux, x, Side.PLUS) + eval_h(gd, aux, x, Side.MINUS)
            assert np.max(np.abs(s - aux.A[j])) < 1e-10

    def test_gap_jump_identity(self, spec_two_band, green_two_band, hsys_two_band):
        aux = solve_aux(hsys_two_band, green_two_band, 9)
        gap = spec_two_band.gaps[0]
        x = np.linspace(gap.a + 0.05, gap.b - 0.05, 11)
        d = (eval_h(green_two_band, aux, x, Side.PLUS)
             - eval_h(green_two_band, aux, x, Side.MINUS))
        assert np.max(np.abs(d - aux.nu[0])) < 1e-10

    def test_large_z_first_order(self, sym):
        spec, gd, hs = sym
        aux = solve_aux(hs, gd, 1)
        z = 1e4 * (1 + 0.5j)
        assert abs(z * eval_h(gd, aux, z) - aux.h1) < 1e-6

    def test_decay_like_one_over_z(self, sym):
        spec, gd, hs = sym
        aux = solve_aux(hs, gd, 5)
        vals = [abs(eval_h(gd, aux, r * (1 + 1j))) for r in (1e2, 1e3, 1e4)]
        assert vals[0] / vals[1] == pytest.approx(10.0, rel=0.05)
        assert vals[1] / vals[2] == pytest.approx(10.0, rel=0.05)

    def test_bounded_on_contours(self, spec_two_band, green_two_band, hsys_two_band):
        from rhjacobi.rhp import build_contours
        ct = build_contours(spec_two_band, 8)
        for n in (1, 10, 100, 1000):
            aux = solve_aux(hsys_two_band, green_two_band, n)
            for circ in ct.circles:
                z = circ.nodes()
                vals = eval_h(green_two_band, aux, z[np.abs(z.imag) > 0])
                assert np.max(np.abs(np.exp(vals))) < 1e3
                assert np.max(np.abs(np.exp(-vals))) < 1e3
