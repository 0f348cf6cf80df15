import numpy as np
import pytest

from rhjacobi.cauchy import Side
from rhjacobi.chebyshev import ChebKind, Interval, band_integral
from rhjacobi.green import build_green, eval_R, eval_g, solve_Q
from rhjacobi.weights import WeightSpec


class TestEvalR:
    def test_single_band(self):
        spec = WeightSpec.single(ChebKind.T)
        assert eval_R(spec, 2.0, Side.PLUS) == pytest.approx(np.sqrt(3.0))

    def test_two_band_monic_growth(self, spec_symmetric):
        # R^2 has degree 2(g+1) = 4, so R itself grows like z^2 with + sign
        x = 1e4
        val = eval_R(spec_symmetric, x, Side.PLUS)
        assert val.real > 0
        assert val == pytest.approx(x ** 2, rel=1e-3)

    def test_gap_value_matches_continuation(self, spec_symmetric):
        x = 0.0
        lim = eval_R(spec_symmetric, x + 1e-8j, Side.OFF)
        val = eval_R(spec_symmetric, x, Side.PLUS)
        assert val == pytest.approx(lim, abs=1e-6)
        # one band to the right of the gap point contributes one sign flip
        assert val.real == pytest.approx(-np.sqrt(3 * 2 * 2 * 3), rel=1e-12)


class TestSolveQ:
    def test_single_interval_trivial(self, spec_u):
        np.testing.assert_array_equal(solve_Q(spec_u), [1.0])

    def test_symmetric_root_at_zero(self, spec_symmetric):
        q = solve_Q(spec_symmetric)
        assert q[1] == 1.0
        assert abs(q[0]) < 1e-14

    def test_asymmetric_root_inside_gap_and_residual(self, spec_two_band):
        q = solve_Q(spec_two_band)
        root = -q[0] / q[1]
        assert -1.0 < root < 2.0
        gap = Interval(-1.0, 2.0)

        def f(x):
            smooth = np.sqrt(x + 1) * np.sqrt(2 - x) / np.real(eval_R(spec_two_band, x, Side.PLUS))
            return np.polynomial.polynomial.polyval(x, q) * smooth
        assert abs(np.pi * band_integral(f, gap)) < 1e-12


class TestBuildGreen:
    def test_single_interval_exact_exponential(self, rng):
        spec = WeightSpec.single(ChebKind.U)
        gd = build_green(spec)
        z = rng.standard_normal(20) * 3 + 1j * np.sign(rng.standard_normal(20)) * rng.uniform(0.1, 2, 20)
        phi = z + np.sqrt(z - 1) * np.sqrt(z + 1)
        np.testing.assert_allclose(np.exp(eval_g(gd, z)), phi, atol=1e-12)

    def test_single_interval_constants(self):
        gd = build_green(WeightSpec.single(ChebKind.T))
        assert abs(gd.g1) < 1e-14
        assert gd.cap_const == pytest.approx(2.0, abs=1e-13)

    def test_capacity_single_general_interval(self):
        gd = build_green(WeightSpec.single(ChebKind.V, (2.0, 7.5)))
        assert gd.cap_const == pytest.approx(4.0 / 5.5, abs=1e-12)
        assert gd.g1 == pytest.approx(-(2.0 + 7.5) / 2, abs=1e-12)

    def test_symmetric_delta_magnitude(self, green_symmetric):
        assert len(green_symmetric.deltas) == 1
        assert abs(green_symmetric.deltas[0].imag) == pytest.approx(np.pi, abs=1e-12)

    def test_deltas_purely_imaginary(self, green_two_band):
        assert np.max(np.abs(green_two_band.deltas.real)) < 1e-10

    def test_equilibrium_masses_sum_to_one(self, green_two_band):
        assert np.sum(green_two_band.alpha0).real == pytest.approx(1.0, abs=1e-13)


class TestEvalG:
    def test_band_identity(self, spec_two_band, green_two_band):
        for band in spec_two_band.bands:
            x = np.linspace(band.a + 0.03, band.b - 0.03, 13)
            s = eval_g(green_two_band, x, Side.PLUS) + eval_g(green_two_band, x, Side.MINUS)
            assert np.max(np.abs(s)) < 1e-11

    def test_gap_jump_constant_equals_delta(self, spec_two_band, green_two_band):
        gap = spec_two_band.gaps[0]
        x = np.linspace(gap.a + 0.05, gap.b - 0.05, 17)
        jump = eval_g(green_two_band, x, Side.PLUS) - eval_g(green_two_band, x, Side.MINUS)
        assert np.max(np.abs(jump - green_two_band.deltas[0])) < 1e-11
        assert np.max(np.abs(jump - jump[0])) < 1e-11

    def test_positive_real_part_on_circles(self, spec_two_band, green_two_band):
        from rhjacobi.rhp import build_contours
        ct = build_contours(spec_two_band, 8, 10)
        for circ in ct.circles:
            z = circ.nodes()
            mask = np.abs(z.imag) > 0
            vals = eval_g(green_two_band, z[mask])
            assert np.min(vals.real) > 0

    def test_normalization_at_leftmost_endpoint(self, green_two_band):
        # real part vanishes; the imaginary part is the intrinsic pi phase
        val = eval_g(green_two_band, green_two_band.bands[0].a, Side.PLUS)
        assert abs(val.real) < 1e-12
        assert val.imag == pytest.approx(np.pi, abs=1e-12)

    def test_derivative_consistency(self, green_two_band, spec_two_band):
        z = 6.0 + 3.0j
        fd = (eval_g(green_two_band, z * (1 + 1e-6)) - eval_g(green_two_band, z)) / (z * 1e-6)
        exact = np.polynomial.polynomial.polyval(z, green_two_band.q_coeffs) \
            / eval_R(spec_two_band, z)
        assert abs(fd - exact) / abs(exact) < 1e-6

    def test_log_asymptotics(self, green_two_band):
        z = 1e6 * (1.0 + 0.4j)
        assert abs(eval_g(green_two_band, z) - np.log(green_two_band.cap_const * z)) < 1e-4

    def test_schwarz_symmetry(self, green_two_band, rng):
        z = rng.standard_normal(9) * 2 + 1j * rng.uniform(0.2, 2.0, 9)
        np.testing.assert_allclose(eval_g(green_two_band, np.conj(z)),
                                   np.conj(eval_g(green_two_band, z)), atol=1e-13)


@pytest.fixture(scope="module")
def green_symmetric(spec_symmetric):
    return build_green(spec_symmetric)
