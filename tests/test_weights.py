import numpy as np
import pytest

from rhjacobi.cauchy import Side
from rhjacobi.chebyshev import ChebKind, Interval
from rhjacobi.errors import WeightError
from rhjacobi.weights import (HExpScale, HOne, HPoly, HProduct, HRational,
                              WeightSpec, h_from_config)


class TestHFunctions:
    def test_one(self):
        h = HOne()
        assert np.all(h(np.array([0.0, 2.0])) == 1.0)
        assert h.zero_locations().size == 0

    def test_exp_scale(self):
        h = HExpScale(2.0)
        assert h(0.5) == pytest.approx(np.e)
        assert h.zero_locations().size == 0

    def test_exp_scale_offset_zeros(self):
        h = HExpScale(1.0, offset=1.0)
        zeros = h.zero_locations()
        for z in zeros:
            assert abs(h(z)) < 1e-12

    def test_poly_and_rational(self):
        p = HPoly((4.0, 0.0, 1.0))
        assert p(2.0) == pytest.approx(8.0)
        np.testing.assert_allclose(sorted(p.zero_locations(), key=lambda z: z.imag),
                                   [-2j, 2j], atol=1e-12)
        r = HRational((1.0,), (4.0, 0.0, 1.0))
        assert r(2.0) == pytest.approx(1.0 / 8.0)
        assert r.zero_locations().size == 0
        np.testing.assert_allclose(sorted(r.pole_locations(), key=lambda z: z.imag),
                                   [-2j, 2j], atol=1e-12)
        assert p.pole_locations().size == 0

    def test_product(self):
        h = HProduct((HExpScale(1.0), HPoly((1.0, 1.0))))
        assert h(1.0) == pytest.approx(2 * np.e)
        assert h.pole_locations().size == 0
        h = HProduct((HRational((1.0,), (1.0, 2.0)), HRational((1.0,), (3.0, 1.0))))
        np.testing.assert_allclose(sorted(h.pole_locations(), key=lambda z: z.real),
                                   [-3.0, -0.5])

    def test_from_config_variants(self):
        assert isinstance(h_from_config({"type": "one"}), HOne)
        h = h_from_config({"type": "exp_scale", "c": 2.0, "offset": 1.0})
        assert h == HExpScale(2.0, 1.0)
        h = h_from_config({"type": "product", "factors": [
            {"type": "exp_scale", "c": 1.0, "offset": 1.0},
            {"type": "rational", "num_coeffs": [1.0], "den_coeffs": [4.0, 0.0, 1.0]}]})
        assert h(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [
        {"type": "exp_scale"},
        {"type": "poly"},
        {"type": "rational", "num_coeffs": [1.0]},
        {"type": "unknown"},
        {"no_type": 1},
    ])
    def test_from_config_errors(self, bad):
        with pytest.raises(WeightError):
            h_from_config(bad)


class TestWeightSpec:
    def test_overlapping_bands_rejected(self):
        with pytest.raises(WeightError):
            WeightSpec.build([(0.0, 1.0), (0.5, 2.0)], ["T", "T"])

    def test_touching_bands_rejected(self):
        with pytest.raises(WeightError):
            WeightSpec.build([(0.0, 1.0), (1.0, 2.0)], ["T", "T"])

    def test_nonpositive_h_rejected(self):
        with pytest.raises(WeightError):
            WeightSpec.single(ChebKind.U, h=HPoly((0.0, 1.0)))  # h(x) = x

    def test_length_mismatch(self):
        with pytest.raises(WeightError):
            WeightSpec.build([(0.0, 1.0)], ["T", "T"])

    def test_genus_and_gaps(self):
        spec = WeightSpec.build([(-3, -2), (0, 1), (2, 3)], ["T", "U", "V"])
        assert spec.genus == 2
        assert spec.gaps == (Interval(-2.0, 0.0), Interval(1.0, 2.0))

    def test_weight_value_real_positive_on_band(self):
        spec = WeightSpec.build([(2.0, 3.0)], ["V"])
        x = np.linspace(2.1, 2.9, 7)
        w = spec.weight_value(0, x, Side.PLUS)
        assert np.all(np.abs(w.imag) < 1e-14) and np.all(w.real > 0)

    def test_weight_value_sides_conjugate_outside(self):
        # Off the band the two one-sided limits are sign-flipped conjugates.
        spec = WeightSpec.build([(-1.0, 1.0)], ["T"])
        for x in (1.5, -1.7):
            wp = spec.weight_value(0, x, Side.PLUS)
            wm = spec.weight_value(0, x, Side.MINUS)
            assert wp == pytest.approx(np.conj(wm))
            assert wp == pytest.approx(-wm)

    def test_weight_value_matches_offaxis_limit(self):
        spec = WeightSpec.build([(-1.0, 1.0)], ["W"])
        for x in (0.3, 1.4, -2.2):
            lim = spec.weight_value(0, x + 1e-10j, Side.OFF)
            val = spec.weight_value(0, x, Side.PLUS)
            assert val == pytest.approx(lim, abs=1e-8)

    @pytest.mark.parametrize("kind", "TUVW")
    def test_weight_value_at_x_plus_0j_is_the_limit_from_above(self, kind):
        # x + 0j off the axis is the limit from above, bit for bit, left of,
        # on and right of the band: b - z is taken as -(z - b), which keeps
        # the zero imaginary part's sign (b - z would flip the weight's sign
        # left of the band)
        h = HProduct((HExpScale(0.3), HPoly((2.0, 0.5))))
        spec = WeightSpec.build([(-1.0, 1.0)], [kind], [h])
        x = np.array([-2.5, -1.3, -0.4, 0.7, 1.2, 3.0])
        want = spec.weight_value(0, x, Side.PLUS)
        assert np.array_equal(spec.weight_value(0, x + 0j, Side.OFF), want)
        assert np.all(want[[0, 1, 4, 5]].imag != 0.0)

    def test_weight_on_sigma(self):
        spec = WeightSpec.build([(-1.0, 1.0), (2.0, 3.0)], ["U", "U"])
        assert spec.weight_value(0, 0.0, Side.PLUS) == pytest.approx(1.0)   # sqrt(1) sqrt(1)
        assert spec.weight_value(1, 2.5, Side.PLUS) == pytest.approx(0.5)   # sqrt(.5) sqrt(.5)

    def test_with_exp_factor(self):
        spec = WeightSpec.single(ChebKind.U)
        scaled = spec.with_exp_factor(1.5)
        assert scaled.weight_value(0, 0.5, Side.PLUS) == pytest.approx(
            np.exp(0.75) * spec.weight_value(0, 0.5, Side.PLUS))
        assert spec.with_exp_factor(0.0) is spec
