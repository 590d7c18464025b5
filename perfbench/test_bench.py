"""Quick tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

assert run.use_checkout_sources()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


WORKLOADS = list(workloads.WORKLOADS)


def part_round(part, tmp_path, seed=3):
    return workloads.PARTS[part](seed, str(tmp_path),
                                 workloads.SIZES["tiny"][part])


def op_result(part, tmp_path, index):
    return part_round(part, tmp_path).operations[index].call()


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS
    assert sorted(p for parts in workloads.WORKLOADS.values()
                  for p in parts) == sorted(workloads.PARTS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_at_tiny_size(workload):
    result, problems = run.run(workload, seed=5, seconds=0, trace=0,
                               size="tiny", setup_repeats=1)
    assert problems == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, problems = run.run(workload, seed=5, seconds=0, trace=1,
                               size="tiny")
    assert problems == [] and result["correct"] is True
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_results_equal_untraced_byte_for_byte(workload, tmp_path):
    rnd = workloads.setup(workload, 3, str(tmp_path), "tiny")
    _, plain, failed, problems = run.run_round(rnd)
    assert failed == 0 and problems == []
    tracer = Tracer()
    with tracer:
        _, traced, _, _ = run.run_round(rnd)
    assert tracer.spans
    assert json.dumps(traced, sort_keys=True) == \
        json.dumps(plain, sort_keys=True)


def test_tracer_restores_every_patched_name():
    from sepnet import experiments, linkcodes, probkit
    before = (experiments.build_channel_code, linkcodes.build_channel_code,
              probkit.RngStream.generator, linkcodes.ChannelCode.decode)
    with Tracer():
        assert experiments.build_channel_code is not before[0]
        assert linkcodes.build_channel_code is not before[1]
    assert (experiments.build_channel_code, linkcodes.build_channel_code,
            probkit.RngStream.generator,
            linkcodes.ChannelCode.decode) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.spans.extend([(outer, 0.0, 10.0, -1, 0, 0),
                         (inner, 1.0, 3.0, 0, 0, 0),
                         (inner, 4.0, 8.0, 0, 0, 0)])
    totals, nested = tracer.totals()
    assert totals["outer"]["s"] == 10.0
    assert totals["outer"]["self_s"] == 4.0
    assert totals["inner"]["calls"] == 2 and totals["inner"]["s"] == 6.0
    assert nested == {("outer", "inner"): 2}


# -- every checker rejects a corrupted result --------------------------------

def test_stack_check_rejects_a_mismatch(tmp_path):
    res = op_result("stack-check", tmp_path, 0)
    relay = json.loads((tmp_path / "relay.json").read_text())
    p = relay["edges"][0]["channel"]["kernel"][0][1]
    assert checks.relay_stack_check(res, p, 24) == []
    bad = dict(res, exact_match=False)
    assert checks.relay_stack_check(bad, p, 24)
    bad = dict(res, destacked_distortion=res["stacked_distortion"] + 1e-9)
    assert checks.stacked_equivalence(bad)
    bad = dict(res, stacked_distortion=p + 5 * res["stderr"],
               destacked_distortion=p + 5 * res["stderr"])
    assert checks.relay_stack_check(bad, p, 24)


def test_capacity_off_by_1e3_is_rejected():
    eps = 0.3
    want = checks.z_channel_capacity(eps)
    res = {"capacity": want, "gap": 1e-10, "converged": True}
    assert checks.capacity(res, want) == []
    assert checks.capacity(dict(res, capacity=want + 1e-3), want)
    assert checks.capacity(dict(res, gap=-1e-12), want)


def test_separation_rejects_a_wrong_capacity(tmp_path):
    sep = part_round("coded-links", tmp_path).operations[1]
    res = sep.call()
    assert sep.check(res) == []
    assert sep.check(dict(res, capacity=res["capacity"] + 1e-3))
    assert sep.check(dict(res, D_target=res["D_target"] + 1e-3))
    rows = copy.deepcopy(res["rows"])
    rows[0]["D_pipe"] = 0.0
    assert sep.check(dict(res, rows=rows))


def test_link_replacement_rejects_a_noisy_pipe(tmp_path):
    res = op_result("coded-links", tmp_path, 0)
    assert checks.link_replacement(res) == []
    assert checks.link_replacement(dict(res, distortion_pipe=1e-3))
    assert checks.link_replacement(dict(res, excess=res["excess_bound"] + 1))


def test_decoder_check_rejects_a_wrong_index():
    codebook = np.array([[0, 0, 0], [1, 1, 1]])
    words = np.array([[0, 0, 1], [1, 1, 0]])
    assert checks.min_distance_decoding(
        {"batch": [0, 1], "single": [0]}, codebook, words) == []
    assert checks.min_distance_decoding(
        {"batch": [0, 0], "single": [0]}, codebook, words)
    assert checks.min_distance_decoding(
        {"batch": [0, 1], "single": [1]}, codebook, words)


def test_negative_control_that_passed_is_rejected(tmp_path):
    lemma1 = part_round("synthesis", tmp_path).operations[1]
    res = lemma1.call()
    assert lemma1.check(res) == []
    bad = copy.deepcopy(res)
    bad["negative"]["passed"] = True
    bad["negative_failed"] = False
    assert lemma1.check(bad)


def test_positive_controls_reject_too_many_exceedances(tmp_path):
    # through the whole workload, so the part's slice of results is checked
    rnd = workloads.setup("engine-synthesis", 3, str(tmp_path), "tiny")
    results = [op.call() for op in rnd.operations]
    assert rnd.round_checks(results) == []
    bad = copy.deepcopy(results)
    for res in bad:
        for cell in res.get("positive", {}).get("cells", {}).values():
            cell["z"] = [3.0, -3.0]
    assert rnd.round_checks(bad)


def test_induction_rejects_a_large_tv(tmp_path):
    res = op_result("synthesis", tmp_path, 0)
    assert checks.induction(res) == []
    assert checks.induction(dict(res, tv=0.2))


def test_solver_checks_reject_off_values():
    pi, d = 0.3, 0.1
    rate = checks.bernoulli_rd(pi, d)
    assert checks.rate_distortion({"rate": rate, "distortion": d}, pi, d) == []
    assert checks.rate_distortion({"rate": rate + 1e-3, "distortion": d},
                                  pi, d)
    back = checks.bernoulli_distortion_at(pi, rate)
    assert checks.inversion({"distortion": back}, pi, rate) == []
    assert checks.inversion({"distortion": back + 1e-3}, pi, rate)


# -- closed forms ------------------------------------------------------------

def test_closed_forms_agree():
    for eps in (0.05, 0.3, 0.5):
        z = [[1.0, 0.0], [eps, 1.0 - eps]]
        assert checks.binary_capacity(z) == pytest.approx(
            checks.z_channel_capacity(eps), abs=1e-12)
    p = 0.11
    assert checks.binary_capacity([[1 - p, p], [p, 1 - p]]) == \
        pytest.approx(1 - checks.h2(p), abs=1e-12)
    assert checks.h2_inverse(checks.h2(p)) == pytest.approx(p, abs=1e-12)


def test_binomial_allowance():
    p = math.erfc(2.58 / math.sqrt(2))
    c = checks.binomial_allowance(12, p, 1e-6)
    tail = sum(math.comb(12, k) * p ** k * (1 - p) ** (12 - k)
               for k in range(c + 1, 13))
    below = sum(math.comb(12, k) * p ** k * (1 - p) ** (12 - k)
                for k in range(c, 13))
    assert tail <= 1e-6 < below


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coding-solvers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
