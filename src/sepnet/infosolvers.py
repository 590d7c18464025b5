"""Iterative solvers for channel capacity and the rate-distortion function.

Both solvers are alternating-maximization (Blahut-Arimoto style) iterations
with certified stopping bounds; all rates are in bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .probkit import Kernel, ProbVector, entropy

_EPS = 1e-300
_RD_TOL = 1e-12    # stopping bound of one slope evaluation, bits


class InfeasibleTarget(ValueError):
    pass


@dataclass(frozen=True)
class CapacityResult:
    capacity: float          # bits per channel use (certified lower bound)
    optimal_input: ProbVector
    iterations: int
    gap: float               # upper minus lower capacity bound
    converged: bool = True


@dataclass(frozen=True)
class RdResult:
    rate: float              # bits per source symbol
    distortion: float
    test_channel: Kernel
    iterations: int          # _rd_point iterations, bracket search included
    gap: float               # rate certificate log2 max_j c_j, final slope
    converged: bool = True


def _relative_entropies(w, q):
    """Per-input-row D( w(.|x) || q ) in bits; rows with w=0 contribute 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * (np.log2(np.maximum(w, _EPS)) -
                                     np.log2(np.maximum(q, _EPS))[None, :]), 0.0)
    return terms.sum(axis=1)


def _check_tol(tol):
    """The one stopping-tolerance check of the solvers."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive, got %r" % (tol,))


def blahut_capacity(channel, tol=1e-9, max_iters=100000):
    """Maximize I(X;Y) over the input law for a fixed kernel.

    Returns a CapacityResult whose `capacity` is the achieved mutual
    information and whose `gap` bounds the distance to the true maximum:
    I(r) <= C <= max_x D(p(.|x)||q).
    """
    _check_tol(tol)
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    w = channel.matrix
    r = np.full(channel.input_size, 1.0 / channel.input_size)
    for iters in range(1, max_iters + 1):
        d = _relative_entropies(w, r @ w)
        active = r > 0
        lower = float((r[active] * d[active]).sum())
        upper = float(d[active].max())
        if upper - lower <= tol or iters == max_iters:
            break
        # zero-probability inputs are retained but never revived
        r = r * np.where(active, np.exp2(d - upper), 0.0)
        r = r / r.sum()
    return CapacityResult(lower, ProbVector(r), iters, upper - lower,
                          upper - lower <= tol)


def _rd_point(p, d, s, q, max_iters):
    """Rate-distortion point at slope s >= 0 from the starting output law
    q: (rate in bits, distortion, test channel, iterations, gap, output
    law), gap being the rate certificate."""
    # row factors cancel in c and cond; dropping them stops underflow
    a = np.exp2(-s * (d - d.min(axis=1, keepdims=True)))
    for iters in range(1, max_iters + 1):
        denom = a @ q
        c = (p / denom) @ a  # c_j = sum_x p_x a[x,j] / denom_x
        gap = float(np.log2(np.maximum(c, _EPS).max()))
        if gap <= _RD_TOL or iters == max_iters:
            break
        q = q * c
        q = q / q.sum()
    cond = a * q[None, :] / denom[:, None]  # test channel p(xhat|x)
    dist = float((p[:, None] * cond * d).sum())
    rate = float(p @ _relative_entropies(cond, q))
    return max(rate, 0.0), dist, cond, iters, gap, q


def _find_slope(f, lo, f_lo):
    """Last slope tested in the search over s > lo for the root of f, which
    rises in s from f(lo) = f_lo and is None once its target is met: s - lo
    doubles from 1 until f(s) > 0, then Illinois regula falsi steps shrink
    the bracket, halving it whenever a step would leave it, until f(s) is
    None or the bracket is at float resolution."""
    hi, f_hi, step, s, moved = math.inf, math.nan, 1.0, lo, 0
    while True:
        t = lo + step if hi == math.inf else 0.5 * (lo + hi)
        if not lo < t < hi:
            return s
        if f_hi > f_lo:
            secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            t = secant if lo < secant < hi else t
        if t > 1e9:
            raise InfeasibleTarget("slope search diverged")
        s, value = t, f(t)
        if value is None:
            return s
        # Illinois: an end kept for a second step in a row has its value
        # halved, so that the secant moves it too
        if value > 0:
            f_lo = f_lo / 2 if moved > 0 else f_lo
            hi, f_hi, moved = s, value, 1
        else:
            f_hi = f_hi / 2 if moved < 0 else f_hi
            lo, f_lo, step, moved = s, value, 2.0 * step, -1


def _slope_search(p, d, key, target, tol, max_iters=100000):
    """Search the slope s of _rd_point until its rate (key 0, rising in s)
    or distortion (key 1, falling in s) is within tol / 100 of target, each
    evaluation starting from the previous one's output law. Returns the
    last point, its slope and the _rd_point iterations spent. The bracket
    starts at the zero-rate slope s0, where Blahut's iteration stalls: the
    largest s at which the point mass on zero = argmin_j E d(X, j) passes
    _rd_point's stopping test (a convex condition, true at s = 0), that is
    at which log2 E 2^(-s (d(X, j) - d(X, zero))) <= _RD_TOL for all j. It
    is 0 at j = zero for every s, so that column is left out: the value
    then rises through 0 smoothly, and regula falsi steps do not crawl
    along a flat -_RD_TOL."""
    zero = int((p @ d).argmin())
    excess = np.delete(d - d[:, [zero]], zero, axis=1)
    with np.errstate(over="ignore"):
        s0 = _find_slope(lambda s: float(np.log2(
            (p @ np.exp2(-s * excess)).max())) - _RD_TOL, 0.0, -_RD_TOL)
    uniform = np.full(d.shape[1], 1.0 / d.shape[1])
    points = []

    def rising(s):
        q = points[-1][5] if points else uniform
        # a multiplicative update never revives a zero
        points.append(_rd_point(p, d, s, q if q.all() else uniform,
                                max_iters))
        miss = points[-1][key] - target
        if abs(miss) <= tol * 1e-2:
            return None
        return miss if key == 0 else -miss

    # at s0 the curve is at its zero-rate point (0, E d(X, zero))
    s = _find_slope(rising, s0, -target if key == 0 else
                    target - float(p @ d[:, zero]))
    return points[-1], s, sum(point[3] for point in points)


def _rd_problem(source, distortion_fn, target, tol):
    """Checked (p, d, d_min, d_floor); d_floor is the zero-rate distortion."""
    _check_tol(tol)
    p = source.probs if isinstance(source, ProbVector) else ProbVector(source).probs
    d = np.asarray(distortion_fn, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.size:
        raise ValueError("distortion matrix shape does not match source")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distortion matrix must be finite and nonnegative")
    if not math.isfinite(target):
        raise ValueError("target %r is not finite" % (target,))
    return p, d, float((p * d.min(axis=1)).sum()), float((p @ d).min())


def blahut_rate_distortion(source, distortion_fn, target_d, tol=1e-9,
                           max_iters=100000):
    """R(D) for a finite source at a target expected distortion, by the
    slope search on the distortion."""
    p, d, d_min, d_floor = _rd_problem(source, distortion_fn, target_d, tol)
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if target_d < d_min - tol or target_d > d.max() + tol:
        raise InfeasibleTarget("target distortion %r outside [%r, %r]"
                               % (target_d, d_min, d.max()))
    if target_d >= d_floor - tol:
        cond = np.eye(d.shape[1])[np.full(p.size, (p @ d).argmin())]
        return RdResult(0.0, d_floor, Kernel(cond), 0, 0.0)
    if target_d <= d_min + tol:
        cond = np.eye(d.shape[1])[d.argmin(axis=1)]  # ties broken low
        return RdResult(entropy(p @ cond), d_min, Kernel(cond), 0, 0.0)
    (rate, dist, cond, _, gap, _), s, iters = _slope_search(
        p, d, 1, target_d, tol, max_iters)
    # first-order correction along the supporting line of slope -s
    rate = max(rate + s * (dist - target_d), 0.0)
    return RdResult(rate, dist, Kernel(cond), iters, gap, gap <= _RD_TOL)


def invert_rate_distortion(source, distortion_fn, target_rate, tol=1e-9):
    """Distortion D with R(D) = target_rate, by slope search on the rate."""
    p, d, d_min, d_floor = _rd_problem(source, distortion_fn, target_rate,
                                       tol)
    if target_rate <= 0:
        return d_floor
    push = p @ np.eye(d.shape[1])[d.argmin(axis=1)]
    if d_floor - d_min <= tol or target_rate >= entropy(push):
        return d_min
    (rate, dist, *_), s, _ = _slope_search(p, d, 0, target_rate, tol)
    # first-order correction along the supporting line of slope -s
    return min(max(dist + (rate - target_rate) / s, d_min), d_floor)
