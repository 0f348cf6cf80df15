import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rhjacobi.chebyshev import (SQRT2, ChebKind, ChebSeries, Interval, Intervals, UNIT,
                                adaptive_dct, cheb_eval, cheb_t_nodes, dct_coeffs,
                                gauss_cheb_rule, moments)
from rhjacobi.errors import ConvergenceError, DomainError, WeightError

ALL_KINDS = list(ChebKind)


class TestChebEval:
    def test_t_zero_is_one(self):
        assert cheb_eval(ChebKind.T, 0, 0.3) == 1.0

    def test_t_normalization_at_one(self):
        assert cheb_eval(ChebKind.T, 5, 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_u1_vanishes_at_zero(self):
        assert abs(cheb_eval(ChebKind.U, 1, 0.0)) < 1e-15

    @pytest.mark.parametrize("kind,hi,lo", [
        (ChebKind.U, 4.0, -4.0),
        (ChebKind.V, 1.0, -7.0),
        (ChebKind.W, 7.0, -1.0),
    ])
    def test_endpoint_limits_degree3(self, kind, hi, lo):
        assert cheb_eval(kind, 3, 1.0) == pytest.approx(hi, abs=1e-12)
        assert cheb_eval(kind, 3, -1.0) == pytest.approx(lo, abs=1e-12)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            cheb_eval(ChebKind.T, 2, 1.5)

    def test_negative_degree_raises(self):
        with pytest.raises(DomainError):
            cheb_eval(ChebKind.U, -1, 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_three_term_recurrence_pointwise(self, kind, rng):
        # x p_k = b_{k-1} p_{k-1} + a_k p_k + b_k p_{k+1} with the classical entries.
        x = rng.uniform(-1, 1, 17)
        a0 = {"T": 0.0, "U": 0.0, "V": 0.5, "W": -0.5}[kind.value]
        b0 = {"T": 1 / SQRT2, "U": 0.5, "V": 0.5, "W": 0.5}[kind.value]
        p0, p1 = cheb_eval(kind, 0, x), cheb_eval(kind, 1, x)
        np.testing.assert_allclose(x * p0, a0 * p0 + b0 * p1, atol=1e-13)
        for k in range(1, 8):
            pkm, pk, pkp = (cheb_eval(kind, k - 1, x), cheb_eval(kind, k, x),
                            cheb_eval(kind, k + 1, x))
            bkm = b0 if k == 1 else 0.5
            np.testing.assert_allclose(x * pk, bkm * pkm + 0.5 * pkp, atol=1e-12)


class TestDct:
    def test_constant(self):
        ser = dct_coeffs(np.ones(8))
        assert ser.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(ser.coeffs[1:], 0.0, atol=5e-15)

    def test_linear_has_only_degree_one(self):
        ser = dct_coeffs(cheb_t_nodes(8))
        assert ser.coeffs[1] == pytest.approx(1 / SQRT2, abs=1e-15)
        assert abs(ser.coeffs[0]) < 5e-15 and np.max(np.abs(ser.coeffs[2:])) < 5e-15

    def test_random_degree5_roundtrip(self, rng):
        c = rng.standard_normal(6)
        f = lambda x: np.polynomial.polynomial.polyval(x, c)
        ser = dct_coeffs(f(cheb_t_nodes(16)))
        x = np.linspace(-1, 1, 41)
        assert np.max(np.abs(ser(x) - f(x))) < 1e-13

    @given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_roundtrip_property(self, coeffs):
        c = np.asarray(coeffs)
        f = lambda x: np.polynomial.polynomial.polyval(x, c)
        m = max(len(c) + 2, 8)
        ser = dct_coeffs(f(cheb_t_nodes(m)))
        x = np.linspace(-1, 1, 31)
        assert np.max(np.abs(ser(x) - f(x))) <= 1e-13 * max(1.0, np.max(np.abs(f(x))))

    def test_mapped_interval(self):
        iv = Interval(2.0, 5.0)
        f = lambda x: np.sin(x)
        ser = dct_coeffs(f(cheb_t_nodes(32, iv)), iv)
        x = np.linspace(2.0, 5.0, 19)
        np.testing.assert_allclose(ser(x), f(x), atol=1e-14)

    def test_truncated_drops_trailing_noise(self):
        ser = ChebSeries(UNIT, np.array([1.0, 0.5, 1e-18, 1e-19]))
        assert len(ser.truncated()) == 2


class TestBandIntegral:
    # Integrals against the normalized first-kind weight, by ChebSeries.moments.
    def test_constant_is_one(self):
        assert ChebSeries(Interval(2.0, 7.0), [1.0]).moments(1)[0] == pytest.approx(1.0)

    def test_odd_vanishes(self):
        assert abs(ChebSeries(UNIT, [1.0]).moments(2)[1]) < 1e-15
        assert abs(ChebSeries(UNIT, [0.0, 1.0]).moments(1)[0]) < 1e-15

    def test_square(self):
        # closed form: mean of x^2 against 1/(pi sqrt(1-x^2)) is 1/2
        assert ChebSeries(UNIT, [1.0]).moments(3)[2] == pytest.approx(0.5, abs=1e-14)

    def test_matches_reference_quadrature(self):
        ser = adaptive_dct(lambda s: np.exp(s) * np.cos(2 * s))
        for k, moment in enumerate(ser.moments(4)):
            ref, _ = quad(lambda s: s ** k * np.exp(s) * np.cos(2 * s), -1, 1,
                          weight="alg", wvar=(-0.5, -0.5))
            assert moment == pytest.approx(ref / np.pi, abs=1e-12)

    def test_nonsmooth_fails_to_converge(self):
        with pytest.raises(ConvergenceError):
            adaptive_dct(np.abs)

    def test_stacked_row_that_never_converges_is_named(self):
        # in a stack the other rows stop early; the error names the interval
        # whose row is still short of the tail test at DCT_CAP, and only it
        ivs = Intervals([Interval(-1.0, 1.0), Interval(-0.5, 2.0), Interval(3.0, 4.0)])
        funcs = [np.exp, np.abs, np.cos]
        with pytest.raises(ConvergenceError, match=r"on Interval\(a=-0\.5, b=2\.0\)$"):
            adaptive_dct(lambda x, rows: np.array([funcs[r](t) for r, t in zip(rows, x)]), ivs)


def _chebval_moments(ser, count):
    """ChebSeries.moments by its per-series formula: one Gauss-Chebyshev rule
    and numpy's chebval of this series alone."""
    x = cheb_t_nodes((len(ser) + count) // 2 + 1, ser.interval)
    c = ser.coeffs.copy()
    c[1:] *= SQRT2
    values = np.polynomial.chebyshev.chebval(ser.interval.to_unit(x), c)
    return np.mean(x ** np.arange(count)[:, None] * values, axis=1)


class TestStackedMoments:
    # moments takes every series in one Clenshaw pass over zero-padded rows,
    # each series at its own node count; each row must be its own
    # chebval's, bit for bit, whatever the other lengths.
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_rows_are_each_series_own(self, count):
        rng = np.random.default_rng(5)
        lengths = [1, 2, 3, 17, 33, 40]
        series = [ChebSeries(Interval(-1.0 - k, 0.5 + 2 * k),
                             rng.standard_normal(n) + 1j * rng.standard_normal(n))
                  for k, n in enumerate(lengths)]
        got = moments(series, count)
        assert got.shape == (len(series), count)
        for order in (series, series[::-1]):
            for row, ser in zip(moments(order, count), order):
                assert np.array_equal(row, _chebval_moments(ser, count))
        for row, ser in zip(got, series):
            assert np.array_equal(ser.moments(count), row)

    def test_no_series(self):
        assert moments([], 3).shape == (0, 3)


class TestGaussChebRule:
    @pytest.mark.parametrize("kind,mass", [
        (ChebKind.T, np.pi), (ChebKind.U, np.pi / 2),
        (ChebKind.V, np.pi), (ChebKind.W, np.pi),
    ])
    def test_total_mass(self, kind, mass):
        _, w = gauss_cheb_rule(kind, UNIT, 9)
        assert w.sum() == pytest.approx(mass, abs=1e-13)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_polynomial_exactness(self, kind):
        # degree <= 2m-1 moments against scipy's algebraic-weight quadrature
        m = 6
        x, w = gauss_cheb_rule(kind, Interval(-1.0, 1.0), m)
        wa = {"T": -0.5, "U": 0.5, "V": 0.5, "W": -0.5}[kind.value]
        wb = {"T": -0.5, "U": 0.5, "V": -0.5, "W": 0.5}[kind.value]
        for deg in range(2 * m):
            ref, _ = quad(lambda s, d=deg: s ** d, -1, 1, weight="alg", wvar=(wa, wb))
            assert (w * x ** deg).sum() == pytest.approx(ref, abs=2e-13), deg

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_orthonormality(self, kind):
        # Normalized weight = scale * unnormalized, so rescale the rule's mass;
        # the identity Gram over degrees <= 30 pins every family's normalization.
        x, w = gauss_cheb_rule(kind, UNIT, 64)
        scale = {"T": 1 / np.pi, "U": 2 / np.pi, "V": 1 / np.pi, "W": 1 / np.pi}[kind.value]
        wn = w * scale
        P = np.stack([cheb_eval(kind, k, x) for k in range(31)])
        gram = (P * wn) @ P.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-12

    def test_mapped_with_h_matches_reference(self):
        iv = Interval(2.0, 3.0)
        x, w = gauss_cheb_rule(ChebKind.T, iv, 64, h=np.exp)
        ref, _ = quad(np.exp, 2, 3, weight="alg", wvar=(-0.5, -0.5))
        assert w.sum() == pytest.approx(ref, abs=1e-12)

    def test_nonpositive_h_raises(self):
        with pytest.raises(WeightError):
            gauss_cheb_rule(ChebKind.U, UNIT, 8, h=lambda x: x)

    def test_nodes_ascend(self):
        for kind in ALL_KINDS:
            x, _ = gauss_cheb_rule(kind, Interval(-2.0, 5.0), 11)
            assert np.all(np.diff(x) > 0)


class TestKindAlgebra:
    def test_exponent_bijection(self):
        seen = set()
        for kind in ALL_KINDS:
            a, b = kind.exponents
            assert a in (-1, 1) and b in (-1, 1)
            seen.add((a, b))
            assert ChebKind.from_exponents(a, b) is kind
        assert len(seen) == 4

    def test_flipped(self):
        assert ChebKind.T.flipped is ChebKind.U
        assert ChebKind.V.flipped is ChebKind.W

    def test_bad_exponents(self):
        with pytest.raises(WeightError):
            ChebKind.from_exponents(0, 1)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            Interval(2.0, 2.0)
        with pytest.raises(DomainError):
            Interval(0.0, np.inf)
