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


def _rd_point(p, d, s, max_iters):
    """Rate-distortion point at slope s >= 0: (rate in bits, distortion,
    test channel, iterations, gap), gap being the rate certificate."""
    # row factors cancel in c and cond; dropping them stops underflow
    a = np.exp2(-s * (d - d.min(axis=1, keepdims=True)))
    q = np.full(d.shape[1], 1.0 / d.shape[1])
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
    return max(rate, 0.0), dist, cond, iters, gap


def _bisect_slope(above, lo):
    """Last slope tested in the search over s > lo for where the monotone
    test above(s) turns true: s - lo doubles from 1 until it holds, then the
    bracket halves until above(s) is None (met) or at float resolution."""
    hi, step, s = math.inf, 1.0, lo
    while True:
        t = lo + step if hi == math.inf else 0.5 * (lo + hi)
        if not lo < t < hi:
            return s
        if t > 1e9:
            raise InfeasibleTarget("slope search diverged")
        s, side = t, above(t)
        if side is None:
            return s
        if side:
            hi = s
        else:
            lo, step = s, 2.0 * step


def _slope_search(p, d, key, target, tol, max_iters=100000):
    """Bisect the slope s of _rd_point until its rate (key 0, rising in s)
    or distortion (key 1, falling in s) is within tol / 100 of target.
    Returns the last point, its slope and the _rd_point iterations spent.
    The bracket starts at the zero-rate slope s0, where Blahut's iteration
    stalls: the largest s at which the point mass on argmin_j E d(X, j)
    passes _rd_point's stopping test (a convex condition, true at s = 0)."""
    excess = d - d[:, [int((p @ d).argmin())]]
    with np.errstate(over="ignore"):
        s0 = _bisect_slope(lambda s: np.log2(
            (p @ np.exp2(-s * excess)).max()) > _RD_TOL, 0.0)
    points = []

    def above(s):
        points.append(_rd_point(p, d, s, max_iters))
        miss = points[-1][key] - target
        if abs(miss) <= tol * 1e-2:
            return None
        return (miss > 0) == (key == 0)

    s = _bisect_slope(above, s0)
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
    (rate, dist, cond, _, gap), s, iters = _slope_search(
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
    (rate, dist, _, _, _), s, _ = _slope_search(p, d, 0, target_rate, tol)
    # first-order correction along the supporting line of slope -s
    return min(max(dist + (rate - target_rate) / s, d_min), d_floor)
