"""Independent checks of workload results.

Every expected value here is computed by the benchmark from a closed form or
from a property the method must have; nothing is compared against a stored
copy of earlier output. Each checker returns a list of problems, empty when
the result passes.
"""

import math

import numpy as np

Z_CRIT = 2.58                     # the lemma-1 report's two-sided threshold
LEMMA1_FALSE_ALARM = 1e-6         # per round, for the binomial bound


def h2(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def h2_inverse(h):
    """The D in [0, 1/2] with h2(D) = h, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h2(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bernoulli_rd(pi, d):
    """R(D) of a Bernoulli(pi) source under Hamming distortion."""
    return max(h2(pi) - h2(d), 0.0) if d < min(pi, 1.0 - pi) else 0.0


def bernoulli_distortion_at(pi, rate):
    """The inverse of bernoulli_rd on (0, h2(pi))."""
    return h2_inverse(h2(pi) - rate)


def binary_capacity(matrix):
    """Capacity of a nonsingular binary-input binary-output channel.

    With c = -W^-1 h, where h holds the row entropies, C = log2 sum_j 2^c_j;
    the optimal input of such a channel is interior, so the closed form
    holds for every nonsingular 2 x 2 kernel."""
    w = np.asarray(matrix, dtype=float)
    h = np.array([h2(w[0, 1]), h2(w[1, 0])])
    c = -np.linalg.solve(w, h)
    return float(np.log2(np.exp2(c).sum()))


def z_channel_capacity(eps):
    """Capacity of the Z-channel that flips a 1 to 0 with probability eps."""
    return math.log2(1.0 + (1.0 - eps) * eps ** (eps / (1.0 - eps)))


def close(name, got, want, tol):
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        return ["%s = %r, expected %r within %g" % (name, got, want, tol)]
    return []


# -- stack-check -------------------------------------------------------------

def stacked_equivalence(res):
    out = []
    if res.get("exact_match") is not True:
        out.append("exact_match is %r" % res.get("exact_match"))
    if res["stacked_distortion"] != res["destacked_distortion"]:
        out.append("stacked distortion %r != de-stacked %r"
                   % (res["stacked_distortion"], res["destacked_distortion"]))
    return out


def uncoded_distortion(name, got, stderr, p):
    """Uncoded Hamming distortion over a BSC(p) has mean p."""
    if abs(got - p) > 4 * stderr:
        return ["%s distortion %r is %.2f stderr from p = %r"
                % (name, got, abs(got - p) / stderr, p)]
    return []


def stderr_plausible(name, stderr, expected, trials):
    """The reported stderr must be near its closed form before it serves as
    the 4-stderr yardstick; an inflated one would pass anything. A sample
    standard deviation over n trials has relative spread about
    1 / sqrt(2 (n - 1)); the window is six of those."""
    tol = 6.0 / math.sqrt(2.0 * (trials - 1))
    if not (1.0 - tol) * expected <= stderr <= (1.0 + tol) * expected:
        return ["%s stderr %r, closed form %r" % (name, stderr, expected)]
    return []


def relay_stack_check(res, p, symbols_per_trial):
    n = res["trials"] * symbols_per_trial
    # stderr pools the stacked and de-stacked per-trial variances
    expected = math.sqrt(2 * p * (1 - p) / n)
    return (stacked_equivalence(res)
            + stderr_plausible("relay", res["stderr"], expected,
                               res["trials"])
            + uncoded_distortion("relay", res["stacked_distortion"],
                                 res["stderr"], p))


def relay_simulate(res, p, block_length):
    out = []
    values, stderr = np.asarray(res["matrix"]), np.asarray(res["stderr"])
    n = res["trials"] * block_length
    out += stderr_plausible("simulate", float(stderr[0, 1]),
                            math.sqrt(p * (1 - p) / n), res["trials"])
    out += uncoded_distortion("simulate", float(values[0, 1]),
                              float(stderr[0, 1]), p)
    off = values.copy()
    off[0, 1] = 0.0
    if np.any(off != 0.0):
        out.append("non-demanded distortion entries are not zero")
    return out


# -- coded-links -------------------------------------------------------------

def link_replacement(res):
    out = []
    if res["distortion_pipe"] != 0.0:
        out.append("bit-pipe line distortion %r, expected exactly 0"
                   % res["distortion_pipe"])
    report = res["link_report"]
    out += close("excess_bound", res["excess_bound"],
                 report["n_edges"] * max(report["p_e"].values())
                 * report["d_max"], 1e-12)
    limit = res["excess_bound"] + 3 * res["pooled_stderr"]
    if res["excess"] > limit:
        out.append("excess %r above bound + 3 stderr %r"
                   % (res["excess"], limit))
    return out


def separation(res, p, kappa):
    cap = 1.0 - h2(p)
    out = close("capacity", res["capacity"], cap, 1e-6)
    out += close("D_target", res["D_target"], h2_inverse(1.0 - cap / kappa),
                 1e-6)
    for row in res["rows"]:
        k = row["quantizer_bits"]
        d_rate = h2_inverse(1.0 - k / row["block_length"])
        if row["D_pipe"] < d_rate - 3 * row["stderr_pipe"]:
            out.append("D_pipe %r below D(R) %r at %d bits"
                       % (row["D_pipe"], d_rate, k))
        gap = abs(row["D_noisy"] - row["D_pipe"])
        if gap > row["excess_bound"] + 3 * row["pooled_stderr"]:
            out.append("noisy/pipe gap %r above bound at %d bits" % (gap, k))
    return out


def min_distance_decoding(res, codebook, words):
    """Every decoded index attains the minimum Hamming distance to its word
    (ML decoding over a BSC with p < 1/2)."""
    dist = (words[:, None, :] != codebook[None, :, :]).sum(axis=2)
    best = dist.min(axis=1)
    out = []
    for key in ("batch", "single"):
        idx = np.asarray(res[key], dtype=np.int64)
        got = dist[np.arange(len(idx)), idx]
        bad = int((got != best[:len(idx)]).sum())
        if bad:
            out.append("%d of %d %s decodes miss the minimum distance"
                       % (bad, len(idx), key))
    return out


# -- synthesis ---------------------------------------------------------------

def induction(res):
    out = []
    if not res["tv"] <= 0.1:
        out.append("induction TV %r above 0.1" % res["tv"])
    want = res["trials"] * res["replicates"] * res["N"]
    if res["samples"] != want:
        out.append("induction pooled %r samples, expected %r"
                   % (res["samples"], want))
    return out


def lemma1_tests(report):
    """The independent tests of a lemma-1 report, as their largest |z|.

    For a binary output, the two z-scores of a cell are equal and opposite,
    and the two cells that split one (t, x) by y_prev compare the same two
    groups, so each (t, x) carries one test whatever the count of z-scores.
    """
    tests = {}
    for key, cell in report["cells"].items():
        t, x = (int(v) for v in key.strip("()").split(",")[:2])
        tests[t, x] = max(tests.get((t, x), 0.0),
                          max(abs(z) for z in cell["z"]))
    return tests


def lemma1_seed(res, n_times):
    out = []
    expected_cells = 4 * (n_times - 1)
    pos, neg = res["positive"], res["negative"]
    if len(pos["cells"]) != expected_cells:
        out.append("positive control has %d cells, expected %d"
                   % (len(pos["cells"]), expected_cells))
    if len(neg["cells"]) != expected_cells or neg["passed"]:
        out.append("negative control passed or was inconclusive")
    if not res["negative_failed"]:
        out.append("negative_failed is false")
    return out


def binomial_allowance(tests, p_single, alpha=LEMMA1_FALSE_ALARM):
    """Smallest c with P(Binomial(tests, p_single) > c) <= alpha."""
    tail = 1.0
    for c in range(tests + 1):
        tail -= math.comb(tests, c) * p_single ** c \
            * (1 - p_single) ** (tests - c)
        if tail <= alpha:
            return c
    return tests


def lemma1_positive_controls(results):
    """Positive-control exceedances across seeds stay within a binomial
    bound, one test per (t, x) (see lemma1_tests)."""
    p_single = math.erfc(Z_CRIT / math.sqrt(2.0))
    zs = [z for res in results for z in lemma1_tests(res["positive"]).values()]
    exceed = sum(1 for z in zs if z > Z_CRIT)
    allowed = binomial_allowance(len(zs), p_single)
    if exceed > allowed:
        return ["%d of %d positive-control tests exceed |z| > %g; %d allowed"
                % (exceed, len(zs), Z_CRIT, allowed)]
    return []


# -- solvers -----------------------------------------------------------------

def capacity(res, want):
    out = close("capacity", res["capacity"], want, 1e-6)
    if not res["gap"] >= 0.0:
        out.append("negative capacity gap %r" % res["gap"])
    if not res["converged"]:
        out.append("capacity solver did not converge")
    return out


def rate_distortion(res, pi, d):
    return (close("rate", res["rate"], bernoulli_rd(pi, d), 1e-6)
            + close("distortion", res["distortion"], d, 1e-6))


def inversion(res, pi, rate):
    d = res["distortion"]
    return (close("inverted D", d, bernoulli_distortion_at(pi, rate), 1e-6)
            + close("R(D) at inverted D", bernoulli_rd(pi, d), rate, 1e-6))
