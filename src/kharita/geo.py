"""Geodesic and angular primitives shared by every other module.

Distances are meters on the WGS-84 ellipsoid, headings are degrees
clockwise from true north in [0, 360).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# WGS-84
EARTH_A = 6378137.0
EARTH_B = 6356752.314245
EARTH_F = 1.0 / 298.257223563
# mean radius (2a + b) / 3, used by the great-circle fallback
EARTH_R = (2.0 * EARTH_A + EARTH_B) / 3.0
# meters per degree of latitude, good enough for grid bucketing
M_PER_DEG_LAT = math.pi * EARTH_A / 180.0
# the meridian arc per degree varies ~110574..111694 m with latitude;
# grid math that must never undersize a cell divides by this lower bound
M_PER_DEG_LAT_MIN = 110500.0

_VINCENTY_TOL = 1e-12
_VINCENTY_MAX_ITER = 100
# two fixes measured at or under this many meters apart count as one
# place: they give no bearing of their own
COINCIDENT_M = 1e-9
# a sum or mean of unit heading vectors whose two components both lie
# under this has no direction: the headings cancel
NULL_RESULTANT = 1e-12


@dataclass(slots=True, frozen=True)
class GpsPoint:
    """One GPS fix. heading/speed may be absent until inferred."""

    vehicle_id: str
    timestamp: float          # epoch seconds
    lat: float
    lon: float
    speed_kmh: float | None = None
    heading_deg: float | None = None


def valid_latlon(lat: float, lon: float) -> bool:
    return (math.isfinite(lat) and math.isfinite(lon)
            and -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0)


def normalize_heading(deg: float) -> float:
    """Wrap a heading in degrees into [0, 360)."""
    h = math.fmod(deg, 360.0)
    if h < 0.0:
        h += 360.0
    return 0.0 if h == 360.0 else h


def wrap_lon(lon: float) -> float:
    """Wrap a longitude in degrees into [-180, 180).

    A value already in range comes back unchanged, bit for bit, so
    callers wrap unconditionally at no cost to ordinary inputs.
    """
    if -180.0 <= lon < 180.0:
        return lon
    w = (lon + 180.0) % 360.0 - 180.0
    # the remainder can round up to the divisor itself
    return w if w < 180.0 else -180.0


def wrap_lon_many(lon) -> np.ndarray:
    """Vectorized wrap_lon."""
    lon = np.asarray(lon, dtype=np.float64)
    w = np.remainder(lon + 180.0, 360.0) - 180.0
    w = np.where(w >= 180.0, -180.0, w)
    return np.where((lon >= -180.0) & (lon < 180.0), lon, w)


def lon_delta(a: float, b: float) -> float:
    """b - a for longitudes in [-180, 180], taken the short way round
    the antimeridian; in [-180, 180]."""
    d = b - a
    if d > 180.0:
        return d - 360.0
    if d < -180.0:
        return d + 360.0
    return d


def lon_delta_many(a, b, out=None) -> np.ndarray:
    """Vectorized lon_delta. out may be a or b itself, which spares the
    batch searches one temporary as long as their inputs."""
    d = np.subtract(b, a, out=out)
    # a may be a temporary as long as b: free it before the masks
    del a
    np.subtract(d, 360.0, out=d, where=d > 180.0)
    return np.add(d, 360.0, out=d, where=d < -180.0)


def angle_diff_deg(a: float, b: float) -> float:
    """Circular distance between two headings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return d if d <= 180.0 else 360.0 - d


def angle_diff_deg_many(a, b) -> np.ndarray:
    """Vectorized angle_diff_deg (broadcast to a common shape), done in
    place on one array: k-means passes inputs millions long."""
    d = np.asarray(np.subtract(a, b), dtype=np.float64)
    np.abs(d, out=d)
    # headings in [0, 360] differ by at most 360, which the remainder
    # would turn to 0 and the last step turns to 0 as well; a NaN fails
    # the test and keeps the remainder
    if d.size and not d.max() <= 360.0:
        np.remainder(d, 360.0, out=d)
    return np.subtract(360.0, d, out=d, where=d > 180.0)


def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    s = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_R * math.asin(min(math.sqrt(s), 1.0))


def _series(sin_sigma, cos_sigma, sigma, cos_sq_alpha, cos_2sm):
    """Vincenty's closing series on the converged state, floats or arrays."""
    u_sq = cos_sq_alpha * (EARTH_A ** 2 - EARTH_B ** 2) / EARTH_B ** 2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = big_b * sin_sigma * (
        cos_2sm + big_b / 4.0 * (
            cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)
            - big_b / 6.0 * cos_2sm * (-3.0 + 4.0 * sin_sigma ** 2) * (-3.0 + 4.0 * cos_2sm ** 2)))
    return EARTH_B * big_a * (sigma - delta_sigma)


def vincenty_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Inverse geodesic distance in meters (Vincenty, WGS-84).

    Iterates to 1e-12 with a 100-iteration cap; the rare non-convergent
    near-antipodal pairs fall back to the great-circle distance.
    """
    if lat1 == lat2 and lon1 == lon2:
        return 0.0
    u1 = math.atan((1.0 - EARTH_F) * math.tan(math.radians(lat1)))
    u2 = math.atan((1.0 - EARTH_F) * math.tan(math.radians(lat2)))
    ell = math.radians(lon2 - lon1)
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam = ell
    for _ in range(_VINCENTY_MAX_ITER):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.sqrt((cos_u2 * sin_lam) ** 2
                              + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2)
        if sin_sigma == 0.0:
            return 0.0
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
        if cos_sq_alpha == 0.0:
            cos_2sm = 0.0          # equatorial line
        else:
            cos_2sm = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = EARTH_F / 16.0 * cos_sq_alpha * (4.0 + EARTH_F * (4.0 - 3.0 * cos_sq_alpha))
        lam_prev = lam
        lam = ell + (1.0 - c) * EARTH_F * sin_alpha * (
            sigma + c * sin_sigma * (cos_2sm + c * cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)))
        if abs(lam - lam_prev) < _VINCENTY_TOL:
            break
    else:
        return _haversine_m(lat1, lon1, lat2, lon2)

    return _series(sin_sigma, cos_sigma, sigma, cos_sq_alpha, cos_2sm)


# pairs that vincenty_m_many hands its kernel at a time. The kernel
# keeps about 27 temporaries as long as its input alive: 7 MB at 2^15
# pairs, about 108 MB for 500k. In blocks of 2^15, 500k short pairs
# took half the time of one block (130 vs 250 ms, best of 5, 2 vCPU
# Xeon, numpy 2.4.6); 2^13 to 2^15 ran alike, 2^16 and up slower. The
# batch searches hand it the pairs of one chunk, about 2^15, and k-means
# its moved points 2^13 at a time, so blocks of 2^13 and 2^15 peaked
# alike: offline_city at 67.2-67.5 and 67.1-67.2 MB RSS, eval_topo at
# 51.7 and 51.6-51.8 MB; k-means on city 0 took 0.840 and 0.827 s
# (least of 10 interleaved passes)
_VINCENTY_BLOCK = 1 << 15


def vincenty_m_many(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized Vincenty over numpy arrays (broadcast to a common shape).

    Same contract as vincenty_m: 1e-12 tolerance, 100-iteration cap,
    great-circle fallback for pairs that fail to converge. The pairs,
    flattened, go through the kernel _VINCENTY_BLOCK at a time into one
    output; a pair's arithmetic is its own, so no bit depends on the
    block size.
    """
    lat1, lon1, lat2, lon2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.float64) for x in (lat1, lon1, lat2, lon2)))
    shape = lat1.shape
    flat = [x.ravel() for x in (lat1, lon1, lat2, lon2)]
    out = np.empty(lat1.size)
    for at in range(0, out.size, _VINCENTY_BLOCK):
        block = slice(at, at + _VINCENTY_BLOCK)
        out[block] = _vincenty_kernel(*(x[block] for x in flat))
    return out.reshape(shape)


def _vincenty_kernel(lat1, lon1, lat2, lon2) -> np.ndarray:
    """vincenty_m_many on flat arrays of one length."""
    u1 = np.arctan((1.0 - EARTH_F) * np.tan(np.radians(lat1)))
    u2 = np.arctan((1.0 - EARTH_F) * np.tan(np.radians(lat2)))
    ell = np.radians(lon2 - lon1)
    su1, cu1 = np.sin(u1), np.cos(u1)
    su2, cu2 = np.sin(u2), np.cos(u2)

    # each pair iterates until it converges and keeps the state of that
    # iteration. Once most of the pairs iterated have converged, only
    # the rest go on, so a few slow pairs do not hold up the batch; a
    # pair's arithmetic is its own, so its result is the same bits
    at = None    # indices of the pairs iterated; None while it is all
    lam = ell
    state = [np.empty_like(lam) for _ in range(5)]
    live = np.ones(lam.shape, dtype=bool)
    for _ in range(_VINCENTY_MAX_ITER):
        sin_lam = np.sin(lam); cos_lam = np.cos(lam)
        ss = np.hypot(cu2 * sin_lam, cu1 * su2 - su1 * cu2 * cos_lam)
        cs = su1 * su2 + cu1 * cu2 * cos_lam
        sg = np.arctan2(ss, cs)
        coincident = ss == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_alpha = np.where(coincident, 0.0, cu1 * cu2 * sin_lam / ss)
        csa = 1.0 - sin_alpha * sin_alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = np.where(csa == 0.0, 0.0, cs - 2.0 * su1 * su2 / np.where(csa == 0.0, 1.0, csa))
        c = EARTH_F / 16.0 * csa * (4.0 + EARTH_F * (4.0 - 3.0 * csa))
        lam_new = ell + (1.0 - c) * EARTH_F * sin_alpha * (
            sg + c * ss * (c2 + c * cs * (-1.0 + 2.0 * c2 ** 2)))
        for dst, src in zip(state, (ss, cs, sg, csa, c2)):
            if at is None:
                np.copyto(dst, src, where=live)
            else:
                dst[at[live]] = src[live]
        live &= ~((np.abs(lam_new - lam) < _VINCENTY_TOL) | coincident)
        lam = lam_new
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if 2 * n_live < live.size:
            keep = np.flatnonzero(live)
            at = keep if at is None else at[keep]
            ell, su1, cu1, su2, cu2, lam = (
                x[keep] for x in (ell, su1, cu1, su2, cu2, lam))
            live = np.ones(keep.size, dtype=bool)
    sin_sigma, cos_sigma, sigma, cos_sq_alpha, cos_2sm = state
    failed = live    # the pairs that never converged
    if at is not None:
        failed = np.zeros(lat1.shape, dtype=bool)
        failed[at[live]] = True

    out = _series(sin_sigma, cos_sigma, sigma, cos_sq_alpha, cos_2sm)
    out[sin_sigma == 0.0] = 0.0

    if failed.any():
        p1 = np.radians(lat1[failed]); p2 = np.radians(lat2[failed])
        dl = np.radians(lon2[failed] - lon1[failed])
        s = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
        out[failed] = 2.0 * EARTH_R * np.arcsin(np.minimum(1.0, np.sqrt(s)))
    return out


def combined_distance_m(lat1: float, lon1: float, h1: float,
                        lat2: float, lon2: float, h2: float,
                        theta_m: float) -> float:
    """Joint location+heading distance in meters.

    Euclidean combination of the geodesic separation and the heading
    separation scaled so that 180 degrees apart costs theta_m meters.
    """
    dg = vincenty_m(lat1, lon1, lat2, lon2)
    da = theta_m * angle_diff_deg(h1, h2) / 180.0
    return math.hypot(dg, da)


def combined_distance_m_many(lat1, lon1, h1, lat2, lon2, h2,
                             theta_m: float) -> np.ndarray:
    """Vectorized combined_distance_m (broadcast to a common shape)."""
    return np.hypot(vincenty_m_many(lat1, lon1, lat2, lon2),
                    theta_m * angle_diff_deg_many(h1, h2) / 180.0)


def circular_mean_deg(headings) -> float:
    """Mean direction of headings in degrees, in [0, 360).

    For a degenerate set whose mean resultant vector vanishes (e.g. two
    opposite headings) the mean direction is undefined; the first input
    heading is returned and a RuntimeWarning is emitted.
    """
    h = np.asarray(headings, dtype=np.float64)
    if h.size == 0:
        raise ValueError("circular_mean_deg of an empty set")
    r = np.radians(h)
    s = float(np.mean(np.sin(r)))
    c = float(np.mean(np.cos(r)))
    if abs(s) < NULL_RESULTANT and abs(c) < NULL_RESULTANT:
        warnings.warn("degenerate heading set: mean resultant is zero, "
                      "falling back to first heading", RuntimeWarning, stacklevel=2)
        return normalize_heading(float(h.flat[0]))
    return normalize_heading(math.degrees(math.atan2(s, c)))


def heading_variability_deg(headings, mean_deg: float | None = None) -> float:
    """Mean circular deviation of headings from their circular mean."""
    h = np.asarray(headings, dtype=np.float64)
    if h.size == 0:
        raise ValueError("heading_variability_deg of an empty set")
    if mean_deg is None:
        mean_deg = circular_mean_deg(h)
    return float(np.mean(angle_diff_deg_many(h, mean_deg)))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Forward azimuth from the first point to the second, in [0, 360).

    Undefined for coincident points; raises ValueError there.
    """
    if lat1 == lat2 and lon1 == lon2:
        raise ValueError("bearing undefined for coincident points")
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return normalize_heading(math.degrees(math.atan2(y, x)))
