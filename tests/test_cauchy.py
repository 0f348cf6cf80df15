import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cauchy_quad, normalized_weight
from rhjacobi.cauchy import (Side, cauchy_cheb, cauchy_cheb_series, cauchy_cheb_table,
                             joukowsky_inv, log_joukowsky_inv, sqrt_cut)
from rhjacobi.chebyshev import SQRT2, ChebKind, Interval, Intervals, UNIT, cheb_eval
from rhjacobi.errors import EndpointError

ALL_KINDS = list(ChebKind)
I2PI = 1j / (2 * np.pi)

intervals_st = st.tuples(st.floats(-5, 4.5), st.floats(0.2, 4.0)).map(
    lambda ab: Interval(ab[0], ab[0] + ab[1]))


class TestSqrtCut:
    def test_real_exterior(self):
        assert sqrt_cut(2.0) == pytest.approx(np.sqrt(3.0))

    def test_plus_at_zero(self):
        assert sqrt_cut(0.0, UNIT, Side.PLUS) == pytest.approx(1j)

    def test_minus_is_conjugate(self, rng):
        x = rng.uniform(-0.99, 0.99, 19)
        np.testing.assert_allclose(sqrt_cut(x, UNIT, Side.MINUS),
                                   np.conj(sqrt_cut(x, UNIT, Side.PLUS)), atol=1e-15)

    def test_endpoints_exact_zero(self):
        iv = Interval(-2.0, 3.0)
        for side in Side:
            assert sqrt_cut(-2.0, iv, side) == 0.0
            assert sqrt_cut(3.0, iv, side) == 0.0

    def test_left_of_interval_negative(self):
        iv = Interval(1.0, 2.0)
        val = sqrt_cut(0.0, iv, Side.PLUS)
        assert val == pytest.approx(-np.sqrt(2.0))

    def test_boundary_is_limit_of_off_values(self, rng):
        iv = Interval(-1.5, 0.5)
        x = rng.uniform(-1.4, 0.4, 11)
        off = sqrt_cut(x + 1e-9j, iv, Side.OFF)
        np.testing.assert_allclose(off, sqrt_cut(x, iv, Side.PLUS), atol=1e-8)


class TestJoukowsky:
    def test_value_at_two(self):
        assert joukowsky_inv(2.0) == pytest.approx(2 - np.sqrt(3.0))

    def test_boundary_values(self, rng):
        x = rng.uniform(-0.99, 0.99, 23)
        jp = joukowsky_inv(x, Side.PLUS)
        np.testing.assert_allclose(jp, x - 1j * np.sqrt(1 - x ** 2), atol=1e-14)
        np.testing.assert_allclose(np.abs(jp), 1.0, atol=1e-14)
        np.testing.assert_allclose(joukowsky_inv(x, Side.MINUS), np.conj(jp), atol=1e-14)

    def test_roundtrip_at_10i(self):
        w = joukowsky_inv(10j)
        assert abs((w + 1 / w) / 2 - 10j) < 1e-14

    @given(re=st.floats(-50, 50), im=st.floats(0.05, 50))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_contraction_property(self, re, im):
        z = complex(re, im)
        w = joukowsky_inv(z)
        assert abs(w) < 1.0
        assert abs((w + 1 / w) / 2 - z) <= 1e-12 * max(1.0, abs(z))

    def test_exact_limit_at_minus_one(self):
        # the stabilized reciprocal form hits the non-Lipschitz point exactly
        assert joukowsky_inv(-1.0, Side.PLUS) == -1.0

    def test_log_branch_left_of_cut(self):
        val = log_joukowsky_inv(-2.0, Side.PLUS)
        assert val.imag == pytest.approx(-np.pi)
        assert log_joukowsky_inv(-2.0, Side.MINUS).imag == pytest.approx(np.pi)


class TestCauchyCheb:
    def test_t0_against_closed_form_and_quadrature(self):
        z = 2j
        got = cauchy_cheb(ChebKind.T, 0, UNIT, z)
        closed = 1j / (2 * np.pi * np.sqrt(z - 1) * np.sqrt(z + 1))
        assert got == pytest.approx(closed, abs=1e-15)
        assert got == pytest.approx(cauchy_quad(ChebKind.T, 0, UNIT, z), abs=1e-11)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_against_quadrature_mapped(self, kind, k):
        iv = Interval(2.0, 5.0)
        z = 3.0 + 1.5j
        assert cauchy_cheb(kind, k, iv, z) == pytest.approx(
            cauchy_quad(kind, k, iv, z), abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_leading_asymptotics(self, kind):
        z = 2e7 * (1 + 0.6j)
        for iv in (UNIT, Interval(2.0, 3.0)):
            assert z * cauchy_cheb(kind, 0, iv, z) == pytest.approx(I2PI, abs=1e-6)
            assert abs(z * cauchy_cheb(kind, 3, iv, z)) < 1e-6

    def test_v3_plemelj_spec_point(self):
        iv = Interval(2.0, 5.0)
        x = 3.5
        jump = (cauchy_cheb(ChebKind.V, 3, iv, x, Side.PLUS)
                - cauchy_cheb(ChebKind.V, 3, iv, x, Side.MINUS))
        dens = cheb_eval(ChebKind.V, 3, iv.to_unit(x)) * normalized_weight(ChebKind.V, iv, x)
        assert jump == pytest.approx(dens, abs=1e-13)

    @given(kind=st.sampled_from(ALL_KINDS), k=st.integers(0, 20),
           iv=intervals_st, t=st.floats(-0.95, 0.95))
    @settings(max_examples=120, deadline=None)
    def test_plemelj_property(self, kind, k, iv, t):
        x = iv.from_unit(t)
        jump = (cauchy_cheb(kind, k, iv, x, Side.PLUS)
                - cauchy_cheb(kind, k, iv, x, Side.MINUS))
        dens = cheb_eval(kind, k, t) * normalized_weight(kind, iv, x)
        assert abs(jump - dens) <= 1e-11 * max(1.0, abs(dens))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_interval_recurrence_of_transforms(self, kind, rng):
        # z C_k = b_{k-1} C_{k-1} + a_k C_k + b_k C_{k+1}, with the degree-0
        # mass term for the normalized weight; mapped Jacobi entries.
        iv = Interval(-1.5, 2.5)
        z = rng.standard_normal(10) + 1j * (rng.uniform(0.3, 2, 10))
        a0u = {"T": 0.0, "U": 0.0, "V": 0.5, "W": -0.5}[kind.value]
        b0u = {"T": 1 / SQRT2, "U": 0.5, "V": 0.5, "W": 0.5}[kind.value]
        a0, an = iv.from_unit(a0u), iv.mid
        b0, bn = iv.half * b0u, iv.half * 0.5
        C = [cauchy_cheb(kind, k, iv, z) for k in range(9)]
        lhs0 = z * C[0]
        rhs0 = a0 * C[0] + b0 * C[1] - 1 / (2j * np.pi)
        np.testing.assert_allclose(lhs0, rhs0, atol=1e-12)
        for k in range(1, 8):
            bkm = b0 if k == 1 else bn
            np.testing.assert_allclose(z * C[k], bkm * C[k - 1] + an * C[k] + bn * C[k + 1],
                                       atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_geometric_decay_on_circle(self, kind):
        iv = Interval(-1.0, 1.0)
        theta = np.linspace(0.1, 2 * np.pi, 17)
        z = 1.25 * np.exp(1j * theta)
        rho = np.abs(joukowsky_inv(z))
        vals0 = np.abs(cauchy_cheb_table(kind, 1, iv, z)[:, 0])
        for k in (5, 12, 20):
            vals = np.abs(cauchy_cheb(kind, k, iv, z))
            assert np.all(vals <= 4.0 * vals0 * rho ** k + 1e-300)

    def test_schwarz_antisymmetry(self, rng):
        # with the 1/(2 pi i) normalization, conjugating z conjugates and negates
        iv = Interval(0.5, 2.0)
        z = rng.standard_normal(9) + 1j * rng.uniform(0.2, 2, 9)
        for kind in ALL_KINDS:
            v = cauchy_cheb(kind, 3, iv, z)
            vc = cauchy_cheb(kind, 3, iv, np.conj(z))
            np.testing.assert_allclose(vc, -np.conj(v), atol=1e-15)

    def test_endpoint_unbounded_errors(self):
        iv = Interval(-1.0, 1.0)
        for kind, bad in ((ChebKind.T, -1.0), (ChebKind.T, 1.0),
                          (ChebKind.V, 1.0), (ChebKind.W, -1.0)):
            with pytest.raises(EndpointError):
                cauchy_cheb(kind, 2, iv, bad)
        # U is bounded at both endpoints: finite values, no error
        assert np.isfinite(cauchy_cheb(ChebKind.U, 2, iv, 1.0))
        assert np.isfinite(cauchy_cheb(ChebKind.V, 2, iv, -1.0))


class TestSeries:
    """cauchy_cheb_series against the table it replaces, table @ coeffs.  The
    two round differently by about eps times sum_k |c_k| |kernel_k|; the
    bound is 1e-15 sum_k |c_k|, times the largest kernel value at the point
    where that exceeds 1 (the T kernel grows like the inverse square root of
    the distance to an endpoint)."""

    IV = Interval(-0.6, 1.3)

    def points(self, rng):
        iv = self.IV
        off = np.concatenate([rng.standard_normal(40) * 3 + 1j * rng.standard_normal(40),
                              1e4 * np.exp(2j * np.pi * rng.random(8)),
                              iv.a + 1e-9 * np.exp(1j * rng.uniform(-3, 3, 4)),
                              [iv.b + 1e-12j, iv.a - 1e-13, iv.b + 1e-9]])
        on = np.concatenate([np.linspace(iv.a, iv.b, 25)[1:-1],
                             [iv.a + 1e-14, iv.b - 1e-14, iv.b + 1e-12, iv.a - 0.3, -1e4, 1e4]])
        return {Side.OFF: off, Side.PLUS: on, Side.MINUS: on}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_matches_table(self, kind, n, rng):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for side, z in self.points(rng).items():
            table = cauchy_cheb_table(kind, n, self.IV, z, side)
            got = cauchy_cheb_series(kind, coeffs, self.IV, z, side)
            bound = 1e-15 * np.sum(np.abs(coeffs)) * np.maximum(1.0, np.max(np.abs(table), axis=1))
            assert np.all(np.abs(got - table @ coeffs) <= bound)

    def test_scalar_point(self):
        coeffs = np.array([0.5, -0.25, 0.125])
        got = cauchy_cheb_series(ChebKind.U, coeffs, UNIT, 2.0 + 1.0j)
        assert isinstance(got, complex)
        assert got == pytest.approx(cauchy_cheb_table(ChebKind.U, 3, UNIT, 2.0 + 1.0j) @ coeffs,
                                    abs=1e-16)

    def test_value_depends_on_its_point_only(self, rng):
        z = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        coeffs = rng.standard_normal(12)
        whole = cauchy_cheb_series(ChebKind.T, coeffs, UNIT, z)
        for part in (slice(0, 1), slice(5, 6), slice(3, 20)):
            np.testing.assert_array_equal(cauchy_cheb_series(ChebKind.T, coeffs, UNIT, z[part]),
                                          whole[part])

    @pytest.mark.parametrize("side", list(Side))
    def test_stacked_table_is_each_intervals_own(self, side, rng):
        # a stack of intervals of mixed kinds, at the same points (1-d z) or
        # at each interval's own row of points, in one call: each row is its
        # interval's own table, bit for bit, and the degrees-by-points view
        # of the stack is the table's memory
        ivs = [Interval(-1.0, 0.5), Interval(1.0, 2.5), Interval(3.0, 3.5)]
        kinds = [ChebKind.T, ChebKind.U, ChebKind.W]
        if side is Side.OFF:
            shared = rng.standard_normal(20) * 3 + 1j * rng.standard_normal(20)
        else:
            shared = np.linspace(-2.0, 4.0, 20)
        rows = np.array([iv.from_unit(rng.uniform(-0.9, 0.9, 7)) for iv in ivs])
        for z in (shared, rows):
            table = cauchy_cheb_table(kinds, 5, Intervals(ivs), z, side)
            assert table.shape == (3, z.shape[-1], 5)
            for i, (kind, iv) in enumerate(zip(kinds, ivs)):
                want = cauchy_cheb_table(kind, 5, iv, z if z.ndim == 1 else z[i], side)
                assert np.array_equal(table[i], want)
            assert np.shares_memory(table.transpose(0, 2, 1).reshape(15, -1), table)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("end", [-1.0, 1.0])
    def test_endpoint_errors_like_table(self, side, end):
        # T is unbounded at both endpoints, U bounded at both
        z = np.array([0.5, end])
        coeffs = [1.0, 2.0, 3.0]
        with pytest.raises(EndpointError):
            cauchy_cheb_table(ChebKind.T, 3, UNIT, z, side)
        with pytest.raises(EndpointError):
            cauchy_cheb_series(ChebKind.T, coeffs, UNIT, z, side)
        got = cauchy_cheb_series(ChebKind.U, coeffs, UNIT, z, side)
        np.testing.assert_allclose(got, cauchy_cheb_table(ChebKind.U, 3, UNIT, z, side) @ coeffs,
                                   rtol=0, atol=1e-15)


class TestFirstOrder:
    """The 1/z coefficient that first_order reads off the band kernels: i/(2 pi)
    at degree 0 and zero above, for every kind and interval.  z times the
    transform at large z differs from it by O(|s|/|z|)."""

    Z = 1e6 * (1.0 + 0.6j)

    def test_degree_zero(self):
        assert self.Z * cauchy_cheb(ChebKind.T, 0, Interval(2.0, 3.0), self.Z) == \
            pytest.approx(I2PI, abs=1e-5)

    def test_higher_degrees_vanish(self):
        assert abs(self.Z * cauchy_cheb(ChebKind.W, 4, UNIT, self.Z)) < 1e-9

    def test_interval_independent(self):
        for iv in (Interval(-7.0, -1.0), Interval(10.0, 11.0)):
            assert self.Z * cauchy_cheb(ChebKind.U, 0, iv, self.Z) == \
                pytest.approx(I2PI, abs=1e-5)
