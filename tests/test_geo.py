"""Geodesic and angular primitive tests.

Reference distances were computed independently with a high-order ODE
integrator of the ellipsoid geodesic equations (DOP853, rtol 1e-13) and
are frozen here; the implementation must agree far inside 0.5%.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kharita import geo
from kharita.geo import (
    _haversine_m,
    angle_diff_deg,
    angle_diff_deg_many,
    circular_mean_deg,
    combined_distance_m_many,
    heading_variability_deg,
    initial_bearing_deg,
    lon_delta,
    lon_delta_many,
    normalize_heading,
    valid_latlon,
    vincenty_m,
    vincenty_m_many,
    wrap_lon,
    wrap_lon_many,
)

LONS = st.floats(-180.0, 180.0)
WIDE_LONS = st.floats(-1000.0, 1000.0)
# just below -180, where the remainder rounds up to 360
BELOW_SEAM = float(np.nextafter(-180.0, -np.inf))

# (lat1, lon1, lat2, lon2, meters)
REFERENCE_DISTANCES = [
    (25.0, 51.0, 25.0, 51.000991180, 100.059710),        # ~100 m east
    (25.0, 51.0, 25.000903500, 51.0, 100.083309),        # ~100 m north
    (25.2798, 51.5205, 25.3548, 51.4244, 12753.737951),  # ~13 km city scale
    (0.0, 0.0, 0.0, 1.0, 111319.490793),                 # equatorial arc
    (10.0, 20.0, 11.0, 20.0, 110611.186562),             # meridian arc
    (40.7128, -74.0060, 34.0522, -118.2437, 3944422.231490),
    (-33.8688, 151.2093, 51.5074, -0.1278, 16989295.770541),
    (25.0, 51.0, 25.00001, 51.00001, 1.498718),          # ~1.5 m
    (25.0, 51.0, 25.000903500, 51.000991180, 141.522228),
]


class TestVincenty:
    @pytest.mark.parametrize("lat1,lon1,lat2,lon2,ref", REFERENCE_DISTANCES)
    def test_matches_reference(self, lat1, lon1, lat2, lon2, ref):
        d = vincenty_m(lat1, lon1, lat2, lon2)
        assert d == pytest.approx(ref, rel=0.005)   # required envelope
        assert d == pytest.approx(ref, rel=1e-6)    # actual agreement

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(42)
        lat1 = rng.uniform(-60, 60, 300)
        lon1 = rng.uniform(-179, 179, 300)
        lat2 = lat1 + rng.uniform(-0.5, 0.5, 300)
        lon2 = lon1 + rng.uniform(-0.5, 0.5, 300)
        vec = vincenty_m_many(lat1, lon1, lat2, lon2)
        for i in range(300):
            assert vec[i] == pytest.approx(
                vincenty_m(lat1[i], lon1[i], lat2[i], lon2[i]), abs=1e-9)

    def test_coincident_is_zero(self):
        assert vincenty_m(25.3, 51.2, 25.3, 51.2) == 0.0
        assert vincenty_m_many([25.3], [51.2], [25.3], [51.2])[0] == 0.0

    def test_symmetry(self):
        d1 = vincenty_m(25.0, 51.0, 25.1, 51.1)
        d2 = vincenty_m(25.1, 51.1, 25.0, 51.0)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_equatorial_pair_converges(self):
        # both points on the equator: cos^2(alpha) == 0 path
        d = vincenty_m(0.0, 10.0, 0.0, 10.5)
        assert d == pytest.approx(0.5 * 111319.490793, rel=1e-9)

    def test_near_antipodal_falls_back(self):
        d = vincenty_m(0.0, 0.0, 0.5, 179.5)
        assert 1.95e7 < d < 2.05e7

    def test_vectorized_mixed_batch(self):
        # coincident, short, antipodal in one call
        d = vincenty_m_many([25.0, 25.0, 0.0], [51.0, 51.0, 0.0],
                            [25.0, 25.001, 0.5], [51.0, 51.0, 179.5])
        assert d[0] == 0.0
        assert d[1] == pytest.approx(vincenty_m(25.0, 51.0, 25.001, 51.0), abs=1e-9)
        assert 1.95e7 < d[2] < 2.05e7

    def test_batch_gives_each_pair_its_own_bits(self):
        # near-antipodal pairs iterate long or never converge, while the
        # rest converge in a few iterations and stop being iterated; every
        # pair must get the bits it gets alone
        rng = np.random.default_rng(19)
        lat1 = rng.uniform(-89.0, 89.0, 2000)
        lon1 = rng.uniform(-180.0, 180.0, 2000)
        lat2 = lat1 + rng.uniform(-0.01, 0.01, 2000)
        lon2 = lon1 + rng.uniform(-0.01, 0.01, 2000)
        lat2[:300] = rng.uniform(-90.0, 90.0, 300)
        lon2[:300] = rng.uniform(-180.0, 180.0, 300)
        lat2[300:450] = -lat1[300:450] + rng.uniform(-0.5, 0.5, 150)
        lon2[300:450] = lon1[300:450] + 180.0 + rng.uniform(-0.5, 0.5, 150)
        lat2[450:500], lon2[450:500] = lat1[450:500], lon1[450:500]
        order = rng.permutation(2000)
        args = [x[order] for x in (lat1, lon1, lat2, lon2)]
        batch = vincenty_m_many(*args)
        alone = np.array([vincenty_m_many(*(x[i] for x in args))
                          for i in range(2000)])
        np.testing.assert_array_equal(batch, alone)
        assert np.count_nonzero(batch == 0.0) == 50
        # some pairs never converge and take the great-circle distance
        pairs = [tuple(float(x[i]) for x in args) for i in range(2000)]
        assert any(vincenty_m(*p) == _haversine_m(*p) for p in pairs)


    @pytest.mark.parametrize("at", range(4))
    @pytest.mark.parametrize("pair", [(25.0, 51.0, 25.001, 51.001),
                                      (0.0, 0.0, 0.5, 179.5)],
                             ids=["short", "near_antipodal"])
    def test_nan_in_any_position_gives_nan(self, at, pair):
        args = list(pair)
        args[at] = math.nan
        assert math.isnan(vincenty_m(*args))
        assert math.isnan(_haversine_m(*args))
        assert math.isnan(initial_bearing_deg(*args))
        # the array form agrees, alone and beside finite pairs
        rows = np.array([args, pair, args])
        batch = vincenty_m_many(*rows.T)
        assert np.isnan(batch).tolist() == [True, False, True]
        assert batch[1] == pytest.approx(vincenty_m(*pair), abs=1e-9)
        assert np.isnan(vincenty_m_many(*args))

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_change_no_bit(self, block, monkeypatch):
        # the default block holds these pairs at once; blocks of 1 and 7
        # pairs split them everywhere, by pair and across pair kinds
        rng = np.random.default_rng(23)
        n = 420
        lat1 = rng.uniform(-89.0, 89.0, n)
        lon1 = rng.uniform(-180.0, 180.0, n)
        lat2 = lat1 + rng.uniform(-0.01, 0.01, n)     # short
        lon2 = lon1 + rng.uniform(-0.01, 0.01, n)
        lat2[:60] = rng.uniform(-90.0, 90.0, 60)       # long
        lon2[:60] = rng.uniform(-180.0, 180.0, 60)
        # near-antipodal: some iterate long, some never converge
        lat2[60:140] = -lat1[60:140] + rng.uniform(-0.5, 0.5, 80)
        lon2[60:140] = lon1[60:140] + 180.0 + rng.uniform(-0.5, 0.5, 80)
        lat2[140:160], lon2[140:160] = lat1[140:160], lon1[140:160]
        # polar, within 0.01 degree of either pole
        pole = rng.choice([-1.0, 1.0], 40)
        lat1[160:200] = pole * rng.uniform(89.99, 90.0, 40)
        lat2[160:200] = pole * rng.uniform(89.99, 90.0, 40)
        # across the antimeridian, either way round
        lon1[200:240] = rng.choice([-180.0, 180.0], 40) * rng.uniform(
            0.9999, 1.0, 40)
        lon2[200:240] = -lon1[200:240]
        order = rng.permutation(n)
        args = [x[order] for x in (lat1, lon1, lat2, lon2)]

        def every_form():
            return [vincenty_m_many(*args),
                    vincenty_m_many(args[0][0], args[1][0], args[2], args[3]),
                    vincenty_m_many(args[0][:20, None], args[1][:20, None],
                                    args[2][None, :30], args[3][None, :30])]

        want = every_form()
        assert want[2].shape == (20, 30)
        monkeypatch.setattr(geo, "_VINCENTY_BLOCK", block)
        for got, exp in zip(every_form(), want):
            assert got.shape == exp.shape
            np.testing.assert_array_equal(got, exp)
        # the batch has coincident pairs and pairs that took the
        # great-circle fallback
        assert np.count_nonzero(want[0] == 0.0) == 20
        pairs = [tuple(float(x[i]) for x in args) for i in range(n)]
        assert any(vincenty_m(*p) == _haversine_m(*p) for p in pairs)


class TestAngles:
    def test_wraparound(self):
        assert angle_diff_deg(350.0, 10.0) == pytest.approx(20.0)
        assert angle_diff_deg(10.0, 350.0) == pytest.approx(20.0)

    def test_identity_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = rng.uniform(0, 360, 2)
            d = angle_diff_deg(a, b)
            assert 0.0 <= d <= 180.0
            assert d == pytest.approx(angle_diff_deg(b, a))
        assert angle_diff_deg(123.4, 123.4) == 0.0
        assert angle_diff_deg(0.0, 180.0) == 180.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = np.concatenate([rng.uniform(-720, 720, 300), [0.0, 90.0, 359.0]])
        b = np.concatenate([rng.uniform(0, 360, 300), [180.0, 270.0, 1.0]])
        vec = angle_diff_deg_many(a, b)
        assert vec.tolist() == [angle_diff_deg(x, y) for x, y in zip(a, b)]
        assert angle_diff_deg_many(a, 45.0).tolist() == \
               [angle_diff_deg(x, 45.0) for x in a]

    @given(st.data(), st.integers(0, 12))
    @example(None, 0)
    def test_many_matches_the_remainder_formula(self, data, n):
        # the formula with the remainder always taken, bit for bit: in
        # range, at 360 and -0.0, and with NaN, negative and >360 inputs
        if data is None:
            pairs = [(360.0, 0.0), (0.0, 360.0), (-0.0, 0.0), (0.0, -0.0),
                     (math.nan, 10.0), (-5.0, 355.0), (725.0, 1.0),
                     (math.inf, 0.0), (361.0, 0.0), (0.0, 400.0),
                     (-10.0, 355.0), (math.nextafter(360.0, 361.0), 0.0)]
        else:
            heading = st.one_of(
                st.floats(0.0, 360.0),
                st.sampled_from([0.0, -0.0, 180.0, 360.0, math.nan, -10.0,
                                 361.0, 720.0, -1e-300]),
                st.floats(allow_nan=True, allow_infinity=True))
            pairs = data.draw(st.lists(st.tuples(heading, heading),
                                       min_size=n, max_size=n))
        # whether the remainder is taken depends on the whole array, so
        # each pair goes alone too
        for chunk in [pairs] + [[p] for p in pairs]:
            a = np.array([p[0] for p in chunk], dtype=np.float64)
            b = np.array([p[1] for p in chunk], dtype=np.float64)
            with np.errstate(invalid="ignore"):
                want = np.remainder(np.abs(a - b), 360.0)
                want = np.where(want > 180.0, 360.0 - want, want)
                got = angle_diff_deg_many(a, b)
            assert got.tobytes() == want.tobytes()

    def test_normalize_heading(self):
        assert normalize_heading(360.0) == 0.0
        assert normalize_heading(-90.0) == 270.0
        assert normalize_heading(725.0) == pytest.approx(5.0)
        assert 0.0 <= normalize_heading(-1e-9) < 360.0
        # -1e-20 + 360 rounds to 360 itself
        assert normalize_heading(-1e-20) == 0.0
        assert math.isnan(normalize_heading(math.nan))


def same_mod_360(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0) <= 1e-9


class TestLongitude:
    @given(WIDE_LONS)
    @example(BELOW_SEAM)
    @example(180.0)
    @example(-0.0)
    def test_wrap_lon_lands_in_range_and_keeps_in_range_values(self, lon):
        w = wrap_lon(lon)
        assert -180.0 <= w < 180.0
        assert same_mod_360(w, lon)
        if -180.0 <= lon < 180.0:
            assert w.hex() == lon.hex()

    @given(LONS, LONS)
    @example(-180.0, 180.0)
    @example(179.99999, -179.99999)
    def test_lon_delta_is_the_short_way_round(self, a, b):
        d = lon_delta(a, b)
        assert -180.0 <= d <= 180.0
        assert same_mod_360(a + d, b)

    @given(st.lists(st.tuples(LONS, LONS, WIDE_LONS), min_size=1, max_size=30))
    def test_array_forms_match_scalar(self, rows):
        a, b, wide = (np.array(col) for col in zip(*rows))
        want = [lon_delta(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert lon_delta_many(a, b).tolist() == want
        lon_delta_many(a, b, out=b)
        assert b.tolist() == want
        wide = np.append(wide, BELOW_SEAM)
        assert wrap_lon_many(wide).tolist() == [wrap_lon(x) for x in wide.tolist()]

    @pytest.mark.parametrize("lon", [10.0, 180.0, -180.0, 181.0, -181.0,
                                     540.0, BELOW_SEAM, np.float64(-540.0)])
    def test_zero_d_input_matches_scalar(self, lon):
        w = wrap_lon_many(lon)
        assert w.shape == () and float(w) == wrap_lon(float(lon))


class TestCombinedDistance:
    def test_worked_values(self):
        # same location, opposite headings, theta 40 -> exactly theta
        d = combined_distance_m_many(25.0, 51.0, 0.0, 25.0, 51.0, 180.0, 40.0)
        assert d == pytest.approx(40.0, abs=1e-9)
        # 30 m apart, 90 deg apart, theta 40 -> sqrt(30^2 + 20^2)
        lat2 = 25.0 + 30.0 / 111319.49 * (30.0 / vincenty_m(25.0, 51.0, 25.0 + 30.0 / 111319.49, 51.0))
        d = combined_distance_m_many(25.0, 51.0, 0.0, lat2, 51.0, 90.0, 40.0)
        assert d == pytest.approx(math.sqrt(30.0 ** 2 + 20.0 ** 2), rel=1e-4)

    def test_theta_zero_reduces_to_geodesic(self):
        d = combined_distance_m_many(25.0, 51.0, 10.0, 25.001, 51.0, 200.0, 0.0)
        assert d == pytest.approx(vincenty_m(25.0, 51.0, 25.001, 51.0), abs=1e-9)

    def test_metric_axioms_random(self):
        """Identity, symmetry, triangle inequality on random triples."""
        rng = np.random.default_rng(123)
        for _ in range(300):
            lats = rng.uniform(25.0, 25.09, 3)
            lons = rng.uniform(51.0, 51.09, 3)
            hs = rng.uniform(0, 360, 3)
            theta = rng.choice([10.0, 40.0, 100.0])

            def d(i, j):
                return float(combined_distance_m_many(
                    lats[i], lons[i], hs[i], lats[j], lons[j], hs[j], theta))

            assert d(0, 0) == 0.0
            assert d(0, 1) == pytest.approx(d(1, 0), abs=1e-9)
            assert d(0, 1) >= 0.0
            assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-6

    # three points around a base: a pole, where the longitudes span the
    # whole circle and pairs pass over the pole, or the antimeridian
    @given(st.sampled_from([(89.999, 0.0, 180.0), (-89.9995, 45.0, 180.0),
                            (0.0, 180.0, 0.01), (65.0, -180.0, 0.01)]),
           st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.floats(0.0, 360.0, exclude_max=True)),
                    min_size=3, max_size=3),
           st.sampled_from([0.0, 10.0, 40.0, 100.0]))
    def test_array_form_is_a_metric(self, base, offsets, theta):
        """k-means bounds rest on the array form being a metric."""
        lat0, lon0, span = base
        lat = np.clip([lat0 + 0.005 * a for a, _, _ in offsets], -90.0, 90.0)
        lon = wrap_lon_many([lon0 + span * b for _, b, _ in offsets])
        h = np.array([c for _, _, c in offsets])
        i, j = np.indices((3, 3))
        d = combined_distance_m_many(lat[i], lon[i], h[i],
                                     lat[j], lon[j], h[j], theta)
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_allclose(d, d.T, rtol=1e-9, atol=1e-12)
        # d[a, c] <= d[a, b] + d[b, c] for every a, b, c
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-6)


class TestCircularMean:
    def test_wraparound_pair(self):
        assert circular_mean_deg([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_plain_average_when_no_wrap(self):
        assert circular_mean_deg([80.0, 100.0]) == pytest.approx(90.0, abs=1e-9)

    def test_result_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = rng.uniform(0, 360, rng.integers(1, 12))
            m = circular_mean_deg(h)
            assert 0.0 <= m < 360.0

    def test_degenerate_warns_and_returns_first(self):
        with pytest.warns(RuntimeWarning):
            m = circular_mean_deg([0.0, 180.0])
        assert m == 0.0
        with pytest.warns(RuntimeWarning):
            m = circular_mean_deg([45.0, 135.0, 225.0, 315.0])
        assert m == 45.0

    def test_single_value(self):
        assert circular_mean_deg([123.0]) == pytest.approx(123.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            circular_mean_deg([])

    def test_minimizes_cosine_cost(self):
        """The mean direction must minimize sum(1 - cos(h - m)) over a
        0.1-degree grid (brute-force check)."""
        rng = np.random.default_rng(99)
        grid = np.arange(0.0, 360.0, 0.1)
        for _ in range(50):
            h = rng.uniform(0, 360, rng.integers(2, 15))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    m = circular_mean_deg(h)
                except RuntimeWarning:
                    continue
            cost = np.sum(1.0 - np.cos(np.radians(h[None, :] - grid[:, None])), axis=1)
            best = grid[int(np.argmin(cost))]
            d = abs(m - best) % 360.0
            assert min(d, 360.0 - d) <= 0.1 + 1e-9


class TestHeadingVariability:
    def test_symmetric_pair(self):
        # mean of {80, 100} is 90; each deviates 10
        assert heading_variability_deg([80.0, 100.0]) == pytest.approx(10.0, abs=1e-9)

    def test_identical_headings(self):
        assert heading_variability_deg([33.0, 33.0, 33.0]) == 0.0

    def test_wraparound(self):
        assert heading_variability_deg([350.0, 10.0]) == pytest.approx(10.0, abs=1e-9)


class TestBearing:
    def test_cardinal_directions(self):
        assert initial_bearing_deg(25.0, 51.0, 25.01, 51.0) == pytest.approx(0.0, abs=1e-6)
        assert initial_bearing_deg(25.0, 51.0, 25.0, 51.01) == pytest.approx(90.0, abs=0.01)
        assert initial_bearing_deg(25.0, 51.0, 24.99, 51.0) == pytest.approx(180.0, abs=1e-6)
        assert initial_bearing_deg(25.0, 51.0, 25.0, 50.99) == pytest.approx(270.0, abs=0.01)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            initial_bearing_deg(25.0, 51.0, 25.0, 51.0)


def test_valid_latlon():
    assert valid_latlon(25.0, 51.0)
    assert valid_latlon(-90.0, 180.0)
    assert not valid_latlon(90.5, 0.0)
    assert not valid_latlon(0.0, -180.5)
    assert not valid_latlon(float("nan"), 0.0)
    assert not valid_latlon(0.0, float("inf"))
