import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import infosolvers
from sepnet.experiments import capacity_report, rd_report
from sepnet.infosolvers import (InfeasibleTarget, blahut_capacity,
                                blahut_rate_distortion,
                                invert_rate_distortion)
from sepnet.probkit import Kernel, ProbVector, entropy, mutual_information

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIFORM2 = ProbVector([0.5, 0.5])


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


# ---------------------------------------------------------------------------
# capacity

def test_capacity_bsc_closed_form():
    for p in np.arange(0.0, 0.501, 0.05):
        res = blahut_capacity(Kernel.bsc(float(p)))
        assert res.capacity == pytest.approx(1 - h2(float(p)), abs=1e-6)
        assert res.gap <= 1e-9
        assert res.converged


def test_capacity_bec_closed_form():
    for eps in np.arange(0.0, 0.901, 0.1):
        res = blahut_capacity(Kernel.bec(float(eps)))
        assert res.capacity == pytest.approx(1 - float(eps), abs=1e-6)


def test_capacity_certificate_brackets_truth():
    res = blahut_capacity(Kernel.bsc(0.11), tol=1e-6)
    truth = 1 - h2(0.11)
    assert res.capacity <= truth + 1e-12
    assert res.capacity + res.gap >= truth - 1e-12


def test_capacity_optimizer_achieves_value():
    k = Kernel([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.4, 0.5, 0.1]])
    res = blahut_capacity(k)
    assert mutual_information(res.optimal_input, k) == \
        pytest.approx(res.capacity, abs=1e-9)


def test_capacity_permutation_invariance():
    k = Kernel([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.4, 0.5, 0.1]])
    c0 = blahut_capacity(k).capacity
    perm_rows = Kernel(k.matrix[[2, 0, 1]])
    perm_cols = Kernel(k.matrix[:, [1, 2, 0]])
    assert blahut_capacity(perm_rows).capacity == pytest.approx(c0, abs=1e-8)
    assert blahut_capacity(perm_cols).capacity == pytest.approx(c0, abs=1e-8)


def test_capacity_bounds_and_degenerate():
    assert blahut_capacity(Kernel.identity(4)).capacity == \
        pytest.approx(2.0, abs=1e-6)
    # useless channel: all rows identical
    res = blahut_capacity(Kernel([[0.3, 0.7], [0.3, 0.7]]))
    assert res.capacity == pytest.approx(0.0, abs=1e-9)


def test_capacity_rejects_bad_tol():
    with pytest.raises(ValueError):
        blahut_capacity(Kernel.bsc(0.1), tol=0.0)


# ---------------------------------------------------------------------------
# rate-distortion

def test_rd_binary_hamming_closed_form():
    for dd in np.linspace(0.02, 0.48, 20):
        res = blahut_rate_distortion(UNIFORM2, HAMMING, float(dd))
        assert res.rate == pytest.approx(1 - h2(float(dd)), abs=1e-6)


def test_rd_endpoints():
    res0 = blahut_rate_distortion(UNIFORM2, HAMMING, 0.0)
    assert res0.rate == pytest.approx(1.0, abs=1e-9)
    assert res0.distortion == 0.0
    res1 = blahut_rate_distortion(UNIFORM2, HAMMING, 0.5)
    assert res1.rate == 0.0
    assert res1.distortion == pytest.approx(0.5)


def test_rd_zero_distortion_rate_is_pushforward_entropy():
    src = ProbVector([0.2, 0.3, 0.5])
    d = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    res = blahut_rate_distortion(src, d, 0.0)
    # symbols 1 and 2 share a zero-distortion reproduction
    assert res.rate == pytest.approx(entropy([0.2, 0.8]), abs=1e-9)


def test_rd_monotone_and_convex():
    grid = np.linspace(0.05, 0.45, 9)
    rates = [blahut_rate_distortion(UNIFORM2, HAMMING, float(dd)).rate
             for dd in grid]
    assert all(r1 >= r2 - 1e-9 for r1, r2 in zip(rates, rates[1:]))
    # midpoint convexity on the grid
    for i in range(1, len(grid) - 1):
        assert rates[i] <= 0.5 * (rates[i - 1] + rates[i + 1]) + 1e-7


def test_rd_test_channel_consistency():
    res = blahut_rate_distortion(UNIFORM2, HAMMING, 0.2)
    cond = res.test_channel.matrix
    dist = float((UNIFORM2.probs[:, None] * cond * HAMMING).sum())
    assert dist == pytest.approx(res.distortion, abs=1e-9)
    assert np.allclose(cond.sum(axis=1), 1.0)


def test_rd_infeasible_targets():
    with pytest.raises(InfeasibleTarget):
        blahut_rate_distortion(UNIFORM2, HAMMING, -0.1)
    with pytest.raises(InfeasibleTarget):
        blahut_rate_distortion(UNIFORM2, HAMMING, 1.5)
    with pytest.raises(ValueError):
        blahut_rate_distortion(UNIFORM2, np.array([[0.0, 1.0]]), 0.1)
    with pytest.raises(ValueError):
        blahut_rate_distortion(UNIFORM2, np.array([[0.0, -1.0], [1.0, 0.0]]),
                               0.1)


def test_invert_rd_round_trip():
    for rate in (0.2, 0.5, 0.8):
        dd = invert_rate_distortion(UNIFORM2, HAMMING, rate)
        back = blahut_rate_distortion(UNIFORM2, HAMMING, dd).rate
        assert back == pytest.approx(rate, abs=1e-6)


def test_invert_rd_extremes():
    assert invert_rate_distortion(UNIFORM2, HAMMING, 0.0) == \
        pytest.approx(0.5)
    assert invert_rate_distortion(UNIFORM2, HAMMING, 2.0) == \
        pytest.approx(0.0)


def test_invert_rd_matches_closed_form():
    # D with 1 - h(D) = 1 - h(0.11) is D = 0.11
    c = 1 - h2(0.11)
    assert invert_rate_distortion(UNIFORM2, HAMMING, c) == \
        pytest.approx(0.11, abs=1e-6)


# ---------------------------------------------------------------------------
# input validation, certificates and the zero-rate slope

BERNOULLI_02 = ProbVector([0.2, 0.8])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rd_rejects_non_finite_targets(bad):
    with pytest.raises(ValueError, match="not finite"):
        blahut_rate_distortion(UNIFORM2, HAMMING, bad)
    with pytest.raises(ValueError, match="not finite"):
        invert_rate_distortion(UNIFORM2, HAMMING, bad)


@pytest.mark.parametrize("solver, target", [(blahut_rate_distortion, 0.1),
                                            (invert_rate_distortion, 0.5)])
def test_rd_solvers_share_input_checks(solver, target):
    with pytest.raises(ValueError, match="shape"):
        solver(UNIFORM2, np.array([[0.0, 1.0]]), target)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solver(UNIFORM2, np.array([[0.0, -1.0], [1.0, 0.0]]), target)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solver(UNIFORM2, np.array([[0.0, np.nan], [1.0, 0.0]]), target)


def count_rd_point_iterations(monkeypatch, gaps=None):
    """Wrap the slope evaluation so a test can count every iteration and,
    given a list gaps, read every point's rate certificate."""
    spent = []
    inner = infosolvers._rd_point

    def counted(*args, **kwargs):
        point = inner(*args, **kwargs)
        spent.append(point[3])
        if gaps is not None:
            gaps.append(point[4])
        return point

    monkeypatch.setattr(infosolvers, "_rd_point", counted)
    return spent


def test_rd_certificate_counts_every_iteration(monkeypatch):
    spent = count_rd_point_iterations(monkeypatch)
    res = blahut_rate_distortion(ProbVector([0.3, 0.7]), HAMMING, 0.1)
    assert res.iterations == sum(spent) > 0
    assert res.converged
    assert res.gap <= 1e-12
    # a point mass is certified exactly at the endpoints
    end = blahut_rate_distortion(UNIFORM2, HAMMING, 0.5)
    assert (end.iterations, end.gap, end.converged) == (0, 0.0, True)


def test_rd_unconverged_point_is_flagged():
    res = blahut_rate_distortion(ProbVector([0.3, 0.7]), HAMMING, 0.1,
                                 max_iters=3)
    assert not res.converged
    assert res.gap > 1e-12
    with pytest.raises(ValueError):
        blahut_rate_distortion(UNIFORM2, HAMMING, 0.1, max_iters=0)


def test_reports_carry_certificates():
    cap = capacity_report(Kernel.bsc(0.11))
    assert cap["converged"] is True and cap["gap"] <= 1e-9
    rd = rd_report(BERNOULLI_02, HAMMING, 0.04)
    assert rd["converged"] is True
    assert rd["gap"] <= 1e-12
    assert rd["iterations"] > 0


def test_rd_zero_rate_slope_is_not_evaluated(monkeypatch):
    # Bernoulli(0.2) has zero-rate slope log2(0.8 / 0.2) = 2, where
    # Blahut's iteration converges only sublinearly; both solvers must stay
    # clear of it.
    spent = count_rd_point_iterations(monkeypatch)
    res = blahut_rate_distortion(BERNOULLI_02, HAMMING, 0.04)
    assert res.rate == pytest.approx(h2(0.2) - h2(0.04), abs=1e-6)
    assert res.converged
    assert res.iterations == sum(spent) <= 10000
    del spent[:]
    dd = invert_rate_distortion(BERNOULLI_02, HAMMING, 0.3)
    assert h2(0.2) - h2(dd) == pytest.approx(0.3, abs=1e-6)
    assert sum(spent) <= 10000


@settings(max_examples=25, deadline=None)
@given(pi=st.floats(0.05, 0.5), share=st.floats(0.05, 0.95))
def test_invert_rd_round_trip_on_bernoulli_sources(pi, share):
    # Shares of h2(pi) near 0 sit next to the zero-rate slope s0, where
    # Blahut's iteration is slow: a cold evaluation needs about
    # 30 / (s - s0) iterations, and warm-started ones near the root still
    # hundreds to thousands each.
    src = ProbVector([pi, 1 - pi])
    rate = share * h2(pi)
    dd = invert_rate_distortion(src, HAMMING, rate)
    assert h2(pi) - h2(dd) == pytest.approx(rate, abs=1e-6)
    res = blahut_rate_distortion(src, HAMMING, dd)
    assert res.converged
    assert res.rate == pytest.approx(rate, abs=1e-6)


@pytest.mark.parametrize("solve, rate, before", [
    (lambda: blahut_rate_distortion(BERNOULLI_02, HAMMING, 0.19).rate,
     h2(0.2) - h2(0.19), 17104),
    (lambda: blahut_rate_distortion(BERNOULLI_02, HAMMING, 0.199).rate,
     h2(0.2) - h2(0.199), 111390),
    (lambda: h2(0.2) - h2(invert_rate_distortion(BERNOULLI_02, HAMMING,
                                                 0.001)), 0.001, 212219),
], ids=["D=0.19", "D=0.199", "invert-R=0.001"])
def test_slopes_near_the_zero_rate_slope_are_affordable(monkeypatch, solve,
                                                        rate, before):
    # `before` is what bisecting the slope from cold starts spends on each
    # of these targets next to s0 = 2; the slope search must need at most
    # half of it, and still certify its last point.
    gaps = []
    spent = count_rd_point_iterations(monkeypatch, gaps)
    assert solve() == pytest.approx(rate, abs=1e-6)
    assert gaps[-1] <= 1e-12
    assert sum(spent) <= before // 2


# p = (0.649, 0.008, 0.343) under D3: the optimal output law loses a
# reproduction letter along the curve. R(D) at ten targets evenly inside
# (d_min, d_floor) and D(R) at R = 0.05, 0.2 and 0.5, as computed by
# bisecting the slope from cold starts.
SOURCE3 = ProbVector([0.649, 0.008, 0.343])
D3 = np.array([[0.82, 1.97, 1.6], [0.11, 0.38, 0.9], [1.41, 0.66, 0.72]])
RD3 = [0.7394730937717471, 0.611728006688607, 0.5060564406298439,
       0.41477253100330486, 0.3343088370345509, 0.26260394759635797,
       0.1983202147725222, 0.13935226216679128, 0.08542454807885096,
       0.03915689091597333]
INVERTED3 = {0.05: 0.9874772231811294, 0.2: 0.9225005209495207,
             0.5: 0.8310555257154606}


def test_warm_starts_follow_a_letter_out_of_the_support(monkeypatch):
    p = SOURCE3.probs
    d_min, d_floor = (p * D3.min(axis=1)).sum(), (p @ D3).min()
    for target, rate in zip(np.linspace(d_min, d_floor, 12)[1:-1], RD3):
        res = blahut_rate_distortion(SOURCE3, D3, float(target))
        assert res.converged and res.gap <= 1e-12
        assert res.rate == pytest.approx(rate, abs=1e-9)
    gaps = []
    count_rd_point_iterations(monkeypatch, gaps)
    for rate, dist in INVERTED3.items():
        assert invert_rate_distortion(SOURCE3, D3, rate) == \
            pytest.approx(dist, abs=1e-9)
        assert gaps[-1] <= 1e-12


def test_rd_is_unchanged_by_a_distortion_offset():
    # a constant added to every distortion only shifts D; large offsets
    # must not underflow the slope evaluation
    for dd in (0.02, 0.2):
        res = blahut_rate_distortion(UNIFORM2, HAMMING + 200.0, 200.0 + dd)
        assert res.converged
        assert res.rate == pytest.approx(1 - h2(dd), abs=1e-6)
    assert invert_rate_distortion(UNIFORM2, HAMMING + 200.0, 0.5) == \
        pytest.approx(200.0 + invert_rate_distortion(UNIFORM2, HAMMING, 0.5),
                      abs=1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("solve", [
    lambda tol: blahut_capacity(Kernel.bsc(0.11), tol=tol),
    lambda tol: blahut_rate_distortion(UNIFORM2, HAMMING, 0.11, tol=tol),
    lambda tol: invert_rate_distortion(UNIFORM2, HAMMING, 0.5, tol=tol),
], ids=["capacity", "rd", "invert"])
def test_solvers_share_the_tolerance_check(solve, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve(tol)
