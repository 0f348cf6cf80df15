import numpy as np
import pytest

from rhjacobi import auxiliary, chebyshev, green
from rhjacobi.auxiliary import h_basis
from rhjacobi.cauchy import (CutGeometry, Side, _kernel_factors, cauchy_cheb_series,
                             log_joukowsky_inv, sqrt_cut, unit_variable)
from rhjacobi.chebyshev import SQRT2, ChebKind, Interval, Intervals, adaptive_dct
from rhjacobi.green import build_green, densities, eval_R, eval_g
from rhjacobi.rhp import build_contours
from rhjacobi.weights import WeightSpec


class TestEvalR:
    def test_single_band(self):
        spec = WeightSpec.single(ChebKind.T)
        assert eval_R(spec.bands, 2.0, Side.PLUS) == pytest.approx(np.sqrt(3.0))

    def test_two_band_monic_growth(self, spec_symmetric):
        # R^2 has degree 2(g+1) = 4, so R itself grows like z^2 with + sign
        x = 1e4
        val = eval_R(spec_symmetric.bands, x, Side.PLUS)
        assert val.real > 0
        assert val == pytest.approx(x ** 2, rel=1e-3)

    def test_gap_value_matches_continuation(self, spec_symmetric):
        x = 0.0
        lim = eval_R(spec_symmetric.bands, x + 1e-8j, Side.OFF)
        val = eval_R(spec_symmetric.bands, x, Side.PLUS)
        assert val == pytest.approx(lim, abs=1e-6)
        # one band to the right of the gap point contributes one sign flip
        assert val.real == pytest.approx(-np.sqrt(3 * 2 * 2 * 3), rel=1e-12)


class TestSolveQ:
    def test_single_interval_trivial(self, spec_u):
        np.testing.assert_array_equal(build_green(spec_u).q_coeffs, [1.0])

    def test_symmetric_root_at_zero(self, green_symmetric):
        q = green_symmetric.q_coeffs
        assert q[1] == 1.0
        assert abs(q[0]) < 1e-14

    def test_asymmetric_root_inside_gap_and_residual(self, spec_two_band, green_two_band):
        q = green_two_band.q_coeffs
        root = -q[0] / q[1]
        assert -1.0 < root < 2.0
        gap = Interval(-1.0, 2.0)

        def dens(x):
            return (np.sqrt(x - gap.a) * np.sqrt(gap.b - x)
                    / np.real(eval_R(spec_two_band.bands, x, Side.PLUS)))

        # the gap integral of Q/R, by its own expansion rather than the moments
        ser = adaptive_dct(lambda x: np.polynomial.polynomial.polyval(x, q) * dens(x), gap)
        assert abs(np.pi * ser.coeffs[0]) < 1e-12


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
        masses = [ser.coeffs[0] for ser in green_two_band.band_series]
        assert np.sum(masses).real == pytest.approx(1.0, abs=1e-13)

    def test_series_short_and_accurate(self, spec_genus3):
        # Every series the set-up keeps, all of them build_green's, on
        # the genus-3 weight and 10 copies with jittered endpoints, against its
        # density written out here.  A DCT whose rounding exceeds the tail test
        # doubles on and keeps ~124 coefficients of noise.
        rng = np.random.default_rng(11)
        specs = [spec_genus3] + [
            WeightSpec(tuple(Interval(b.a + rng.uniform(-0.02, 0.02),
                                      b.b + rng.uniform(-0.02, 0.02))
                             for b in spec_genus3.bands), spec_genus3.kinds, spec_genus3.h)
            for _ in range(10)]
        for spec in specs:
            gd = build_green(spec)
            checks = []
            for iv, beta, ser in zip(spec.bands, gd.band_beta, gd.band_series):
                x = np.linspace(iv.a, iv.b, 101)[1:-1]
                dens = 1j * np.sqrt(x - iv.a) * np.sqrt(iv.b - x) / eval_R(spec.bands, x, Side.PLUS)
                q = np.polynomial.polynomial.polyval(x, gd.q_coeffs)
                checks += [(beta, x, dens), (ser, x, q * dens)]
            for iv, gamma in zip(spec.gaps, gd.gap_beta):
                x = np.linspace(iv.a, iv.b, 101)[1:-1]
                dens = np.sqrt(x - iv.a) * np.sqrt(iv.b - x) / np.real(eval_R(spec.bands, x, Side.PLUS))
                checks.append((gamma, x, dens))
            assert len(checks) == 11
            for ser, x, dens in checks:
                assert len(ser) <= 40
                assert np.max(np.abs(ser(x) - dens)) <= 1e-13


def _equal_bands(count):
    """count T bands of equal length on [-1, 1], with equal gaps."""
    ends = np.linspace(-1.0, 1.0, 2 * count)
    return WeightSpec.build(list(zip(ends[::2], ends[1::2])), "T" * count)


class TestStackedExpansion:
    """build_green expands every band and gap density in one stacked
    adaptive_dct call, then Q times every band density in one more; each
    series must be the one its own interval's call gives, bit for bit."""

    @pytest.fixture(params=["one band", "two bands", "genus 3", "12 bands"])
    def spec(self, request):
        if request.param == "one band":
            return WeightSpec.single(ChebKind.T, (0.5, 2.0))
        if request.param == "12 bands":
            return _equal_bands(12)
        return request.getfixturevalue({"two bands": "spec_two_band",
                                        "genus 3": "spec_genus3"}[request.param])

    def test_stacked_series_are_each_intervals_own(self, spec):
        intervals = Intervals(spec.bands + spec.gaps)
        bands = len(spec.bands)
        gd = build_green(spec)
        q = gd.q_coeffs
        stops = [{}, {}]

        def stacked(pass_, f, stack):
            def sampled(x, rows):
                stops[pass_].update(dict.fromkeys(rows, x.shape[-1]))
                return f(x, rows)
            return adaptive_dct(sampled, stack)

        dens = stacked(0, lambda x, rows: densities(spec, intervals, x, rows), intervals)
        times_q = stacked(1, lambda x, rows: (np.polynomial.polynomial.polyval(x, q)
                                              * densities(spec, intervals, x, rows)),
                          intervals[:bands])
        # build_green's, with the second call's densities read from the first
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(dens + times_q, gd.band_beta + gd.gap_beta + gd.band_series))
        for row, iv in enumerate(intervals.intervals):
            own = adaptive_dct(lambda x: densities(spec, intervals, x[None], [row])[0], iv)
            assert dens[row].interval == iv and np.array_equal(dens[row].coeffs, own.coeffs)
            if row < bands:
                own = adaptive_dct(lambda x: (np.polynomial.polynomial.polyval(x, q)
                                              * densities(spec, intervals, x[None], [row])[0]), iv)
                assert np.array_equal(times_q[row].coeffs, own.coeffs)
        if bands == 12:
            # Q times the densities: rows stop at 32, 64 and 256 samples
            assert sorted(set(stops[1].values())) == [32, 64, 256]

    def test_two_expansions_and_two_density_passes(self, spec_genus3, count_calls):
        # genus 3: every density of the first call is resolved by m = 32, and
        # the second call reuses its samples at m = 16 and 32
        dcts = count_calls(chebyshev.adaptive_dct)
        Rs = count_calls(green.eval_R)
        build_green(spec_genus3)
        assert len(dcts) == 2 and len(Rs) == 2


GEOMETRIES = ["two bands", "genus 3", "U band", "TTT bands"]


def _geometry(name, request):
    """The weight named by an entry of GEOMETRIES."""
    if name == "TTT bands":
        return WeightSpec.build([(-3.0, -1.0), (-0.5, 0.5), (1.0, 3.0)], "TTT")
    return request.getfixturevalue({"two bands": "spec_two_band", "genus 3": "spec_genus3",
                                    "U band": "spec_u"}[name])


class TestEvalG:
    def test_band_identity(self, request):
        # g+ + g- = 0 on every band holds only for the right phi_ref, which
        # this checks apart from where build_green reads phi_ref
        for name in GEOMETRIES:
            spec = _geometry(name, request)
            gd = build_green(spec)
            for band in spec.bands:
                x = np.linspace(band.a + 0.03, band.b - 0.03, 13)
                s = eval_g(gd, x, Side.PLUS) + eval_g(gd, x, Side.MINUS)
                assert np.max(np.abs(s)) < 1e-11, name

    def test_gap_jump_constant_equals_delta(self, spec_two_band, green_two_band):
        gap = spec_two_band.gaps[0]
        x = np.linspace(gap.a + 0.05, gap.b - 0.05, 17)
        jump = eval_g(green_two_band, x, Side.PLUS) - eval_g(green_two_band, x, Side.MINUS)
        assert np.max(np.abs(jump - green_two_band.deltas[0])) < 1e-11
        assert np.max(np.abs(jump - jump[0])) < 1e-11

    def test_positive_real_part_on_circles(self, spec_two_band, green_two_band):
        from rhjacobi.rhp import build_contours
        ct = build_contours(spec_two_band, 8)
        for circ in ct.circles:
            z = circ.nodes()
            mask = np.abs(z.imag) > 0
            vals = eval_g(green_two_band, z[mask])
            assert np.min(vals.real) > 0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_normalization_at_leftmost_endpoint(self, geometry, request):
        # build_green reads phi_ref from eval_g at this point, so the real part
        # vanishes by construction; the imaginary part is the intrinsic pi phase
        gd = build_green(_geometry(geometry, request))
        val = eval_g(gd, gd.bands[0].a, Side.PLUS)
        assert val.real == 0.0
        assert val.imag == pytest.approx(np.pi, abs=1e-12)

    def test_derivative_consistency(self, green_two_band, spec_two_band):
        z = 6.0 + 3.0j
        fd = (eval_g(green_two_band, z * (1 + 1e-6)) - eval_g(green_two_band, z)) / (z * 1e-6)
        exact = np.polynomial.polynomial.polyval(z, green_two_band.q_coeffs) \
            / eval_R(spec_two_band.bands, z)
        assert abs(fd - exact) / abs(exact) < 1e-6

    def test_log_asymptotics(self, request):
        # cap_const, formed from phi_ref, against g far out
        z = 1e6 * (1.0 + 0.4j)
        for name in GEOMETRIES:
            gd = build_green(_geometry(name, request))
            assert abs(eval_g(gd, z) - np.log(gd.cap_const * z)) < 1e-4, name

    def test_schwarz_symmetry(self, green_two_band, rng):
        z = rng.standard_normal(9) * 2 + 1j * rng.uniform(0.2, 2.0, 9)
        np.testing.assert_allclose(eval_g(green_two_band, np.conj(z)),
                                   np.conj(eval_g(green_two_band, z)), atol=1e-13)


@pytest.fixture(scope="module")
def green_symmetric(spec_symmetric):
    return build_green(spec_symmetric)


def _reference_R(bands, z, side):
    out = None
    for band in bands:
        factor = sqrt_cut(z, band, side)
        out = factor if out is None else out * factor
    return out


def _reference_h(green, z, side):
    """h_basis one interval at a time, from the per-interval formulas."""
    transforms = np.array([cauchy_cheb_series(ChebKind.T, ser.coeffs, ser.interval, z, side)
                           for ser in green.band_beta + green.gap_beta])
    return _reference_R(green.bands, z, side), transforms


def _reference_g(green, z, side):
    """eval_g one band at a time, from the per-interval formulas."""
    total = np.zeros(z.shape, dtype=complex)
    for band, ser in zip(green.bands, green.band_series):
        c = ser.coeffs
        total = total - c[0] * log_joukowsky_inv(unit_variable(band, z, side), side)
        if len(c) > 1:
            ks = np.arange(1, len(c))
            wts = c[1:] * (np.pi * 1j / ks) * (band.length / SQRT2)
            total = total + cauchy_cheb_series(ChebKind.U, wts, band, z, side)
    return total - green.phi_ref


def _padded_series_at(kind, coeffs, geo):
    """cauchy.series_at by a Horner sum over every row from the last
    column of the zero-padded coefficients."""
    J, first, factor = _kernel_factors(kind, geo)
    out = first * coeffs[..., 0, None]
    if coeffs.shape[-1] > 1:
        acc = np.empty(J.shape, dtype=complex)
        acc[...] = coeffs[..., -1, None]
        for k in range(coeffs.shape[-1] - 2, 0, -1):
            acc *= J
            acc += coeffs[..., k, None]
        out = out + factor * J * acc
    return out


class TestStackedGeometry:
    """h_basis, eval_R and eval_g take every band and gap in one pass; each
    value must be the one the per-interval formulas give, bit for bit."""

    @pytest.fixture(params=["two bands", "genus 3"])
    def cloud(self, request, spec_two_band, spec_genus3):
        spec = spec_two_band if request.param == "two bands" else spec_genus3
        z = np.concatenate([p for c in build_contours(spec, 16).circles
                            for p in (c.nodes(), c.test_nodes())])
        # the circle points off the axis, and on the axis the real parts of
        # every circle point: bands, gaps and beyond
        return build_green(spec), {Side.OFF: z[z.imag != 0.0], Side.PLUS: np.real(z),
                                   Side.MINUS: np.real(z)}

    @pytest.mark.parametrize("side", [Side.OFF, Side.PLUS, Side.MINUS])
    def test_bitwise_at_circle_cloud(self, cloud, side):
        gd, points = cloud
        z = points[side]
        R, transforms = h_basis(gd, z, side)
        want_R, want_transforms = _reference_h(gd, z, side)
        assert transforms.shape == (2 * len(gd.bands) - 1, len(z))
        assert np.array_equal(R, want_R) and np.array_equal(transforms, want_transforms)
        assert np.array_equal(eval_R(gd.bands, z, side), want_R)
        assert np.array_equal(eval_g(gd, z, side), _reference_g(gd, z, side))

    def test_shared_geometry_gives_the_same_values(self, cloud):
        # h_basis and eval_g from one CutGeometry of the bands then the gaps
        # (as ContourSet.circle_geometry) read its J and S, bit for bit what
        # each makes from the points, and compute them once
        gd, points = cloud
        z = points[Side.OFF]
        intervals, _ = gd.h_series
        geo = CutGeometry(intervals, z)
        R, transforms = h_basis(gd, geo)
        J = geo.J
        want_R, want_transforms = h_basis(gd, z)
        assert np.array_equal(R, want_R) and np.array_equal(transforms, want_transforms)
        assert np.array_equal(eval_g(gd, geo), eval_g(gd, z))
        assert geo.J is J

    @pytest.mark.parametrize("side", [Side.OFF, Side.PLUS, Side.MINUS])
    def test_padding_skipped_bitwise(self, spec_genus3, side, monkeypatch):
        # series_at starts each row at its own last coefficient; the
        # zero-padded Horner sum over every row gives the same h_basis and
        # eval_g at the genus-3 circle cloud, bit for bit
        gd = build_green(spec_genus3)
        z = np.concatenate([p for c in build_contours(spec_genus3, 16).circles
                            for p in (c.nodes(), c.test_nodes())])
        z = z[z.imag != 0.0] if side is Side.OFF else np.real(z)
        assert len({len(s) for s in gd.band_beta + gd.gap_beta}) > 1
        got = h_basis(gd, z, side), eval_g(gd, z, side)
        for module in (auxiliary, green):
            monkeypatch.setattr(module, "series_at", _padded_series_at)
        want = h_basis(gd, z, side), eval_g(gd, z, side)
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("side", [Side.OFF, Side.PLUS, Side.MINUS])
    def test_bitwise_at_a_scalar(self, cloud, side):
        gd, points = cloud
        z = points[side][len(points[side]) // 3]
        zz = np.atleast_1d(z)
        R, transforms = h_basis(gd, z, side)
        want_R, want_transforms = _reference_h(gd, zz, side)
        assert np.array_equal(R, want_R) and np.array_equal(transforms, want_transforms)
        got = eval_R(gd.bands, z, side)
        assert isinstance(got, complex) and got == _reference_R(gd.bands, zz, side)[0]
        got = eval_g(gd, z, side)
        assert isinstance(got, complex) and got == _reference_g(gd, zz, side)[0]
