import argparse
import csv
import json
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet.cli import (EXPERIMENTS, SCENARIO_KEYS, build_parser, main,
                        run_scenario)
from sepnet.experiments import emit_plotdata, separation_experiment
from sepnet.netmodel import BitPipe, DmcChannel
from sepnet.scenario import (Scenario, ScenarioError, load_scenario,
                             write_json_atomic)

RELAY = {
    "nodes": [0, 1],
    "edges": [{"from": 0, "to": 1,
               "channel": {"type": "dmc",
                           "kernel": [[0.89, 0.11], [0.11, 0.89]]}}],
    "sources": {"type": "iid", "alphabet_sizes": [2, 1], "pmf": [0.5, 0.5]},
    "demands": [{"a": 0, "b": 1,
                 "distortion_matrix": [[0.0, 1.0], [1.0, 0.0]]}],
    "code": {"name": "uncoded_relay", "params": {"L": 4}},
    "experiment": "simulate",
    "trials": 200,
    "seed": 7,
}


def write_scenario(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def cli(*args):
    return subprocess.run([sys.executable, "-m", "sepnet.cli", *args],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# scenario files

def test_load_scenario_round_trip(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, RELAY))
    assert scn.experiment == "simulate"
    assert scn.code_name == "uncoded_relay"
    assert scn.trials == 200 and scn.seed == 7
    assert isinstance(scn.net.edges[0].channel, DmcChannel)
    assert scn.net.demands[(0, 1)][0][1] == 1.0


def test_load_scenario_parses_pipes(tmp_path):
    obj = dict(RELAY)
    obj["edges"] = [{"from": 0, "to": 1,
                     "channel": {"type": "pipe", "rate": 0.5}}]
    scn = load_scenario(write_scenario(tmp_path, obj))
    assert isinstance(scn.net.edges[0].channel, BitPipe)
    assert scn.net.edges[0].channel.rate == 0.5


def test_load_scenario_rejects_invalid_network(tmp_path):
    obj = dict(RELAY)
    obj["edges"] = [{"from": 0, "to": 0,
                     "channel": {"type": "pipe", "rate": 0.5}}]
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, obj))


def test_load_scenario_unknown_channel_type(tmp_path):
    obj = dict(RELAY)
    obj["edges"] = [{"from": 0, "to": 1, "channel": {"type": "awgn"}}]
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, obj))


def test_write_json_atomic(tmp_path):
    path = str(tmp_path / "sub" / "result.json")
    write_json_atomic({"b": 2, "a": 1}, path)
    raw = open(path, "rb").read()
    assert raw.endswith(b"\n") and b"\r" not in raw
    obj = json.loads(raw)
    assert obj == {"a": 1, "b": 2, "schema": "sepnet/v1"}
    # keys serialized in sorted order
    assert raw.index(b'"a"') < raw.index(b'"b"')
    assert not [f for f in os.listdir(tmp_path / "sub")
                if f.endswith(".tmp")]


def test_load_scenario_bare_solver_file(tmp_path):
    obj = {"kernel": [[0.89, 0.11], [0.11, 0.89]], "tol": 1e-9}
    scn = load_scenario(write_scenario(tmp_path, obj))
    assert scn.net is None
    assert scn.extra == obj and scn.experiment == "simulate"


def test_load_scenario_rejects_non_object(tmp_path):
    with pytest.raises(ScenarioError, match="JSON object"):
        load_scenario(write_scenario(tmp_path, [1, 2]))


# ---------------------------------------------------------------------------
# run_scenario dispatch

def test_run_scenario_bare_capacity(tmp_path):
    path = write_scenario(tmp_path, {"kernel": [[0.89, 0.11], [0.11, 0.89]]})
    res = run_scenario(path, "capacity")
    assert res["value"] == pytest.approx(0.500084041835472, abs=1e-6)
    assert res["gap"] <= 1e-9


def test_run_scenario_bare_rd(tmp_path):
    path = write_scenario(tmp_path, {
        "source": [0.5, 0.5],
        "distortion_matrix": [[0.0, 1.0], [1.0, 0.0]],
        "target_d": 0.11})
    res = run_scenario(path, "rd")
    assert res["value"] == pytest.approx(0.500084041835472, abs=1e-6)


def test_run_scenario_network_capacity(tmp_path):
    res = run_scenario(write_scenario(tmp_path, RELAY), "capacity")
    assert res["value"] == pytest.approx(0.500084041835472, abs=1e-6)


def test_run_scenario_overrides(tmp_path):
    path = write_scenario(tmp_path, RELAY)
    res = run_scenario(path, "simulate", seed=9, trials=50)
    assert res["seed"] == 9 and res["trials"] == 50


def test_run_scenario_unknown_experiment(tmp_path):
    with pytest.raises(ScenarioError):
        run_scenario(write_scenario(tmp_path, RELAY), "teleport")


def test_run_scenario_stack_check_n1_trivial(tmp_path):
    obj = dict(RELAY, experiment="stack-check", N=1, trials=20)
    res = run_scenario(write_scenario(tmp_path, obj))
    assert res["exact_match"] is True


@pytest.mark.parametrize("command", ["simulate", "stack-check",
                                     "chancode-sweep", "synth-sweep",
                                     "lemma1", "separation"])
def test_run_scenario_bare_file_needs_network(tmp_path, command):
    path = write_scenario(tmp_path, {"kernel": [[0.89, 0.11], [0.11, 0.89]]})
    with pytest.raises(ScenarioError, match="needs a network scenario"):
        run_scenario(path, command)


def test_run_scenario_looks_experiments_up_when_run(tmp_path, monkeypatch):
    calls = []

    def stub(net, code_name, code_params, N, trials, seed):
        calls.append((code_name, code_params, N, trials, seed))
        return {"experiment": "stack-check"}

    monkeypatch.setattr("sepnet.cli.stack_check", stub)
    path = write_scenario(tmp_path, dict(RELAY, N=3))
    assert run_scenario(path, "stack-check", seed=5) == {
        "experiment": "stack-check"}
    assert calls == [("uncoded_relay", {"L": 4}, 3, 200, 5)]


# ---------------------------------------------------------------------------
# the command table

# small enough for every command to run in well under a second
TINY = dict(RELAY, trials=20, N=2, Ns=[8], batches=1, codebooks=1, samples=1,
            n_times=2, target_d=0.11, quantizer_bits=[2])
PLOT_FILES = {"chancode-sweep": "chancode_sweep.csv",
              "synth-sweep": "synth_sweep.csv",
              "separation": "separation.csv"}


def test_parser_subcommands_are_the_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(EXPERIMENTS)


@pytest.mark.parametrize("command", list(EXPERIMENTS))
def test_cli_out_writes_csv_exactly_with_plot_data(tmp_path, capsys,
                                                   command):
    outdir = tmp_path / "out"
    argv = [command, "--scenario", write_scenario(tmp_path, TINY),
            "--out", str(outdir)]
    assert main(argv) == 0
    expected = {command + ".json"} | ({PLOT_FILES[command]}
                                      if command in PLOT_FILES else set())
    assert set(os.listdir(outdir)) == expected
    assert json.loads(capsys.readouterr().out)["experiment"] == command


# ---------------------------------------------------------------------------
# CLI process surface

def test_cli_capacity_stdout(tmp_path):
    path = write_scenario(tmp_path, {"kernel": [[0.89, 0.11], [0.11, 0.89]]})
    proc = cli("capacity", "--scenario", path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert abs(out["value"] - 0.500084) < 1e-5


def test_cli_simulate_writes_result(tmp_path):
    path = write_scenario(tmp_path, RELAY)
    outdir = str(tmp_path / "results")
    proc = cli("simulate", "--scenario", path, "--trials", "100",
               "--out", outdir)
    assert proc.returncode == 0
    saved = json.load(open(os.path.join(outdir, "simulate.json")))
    assert saved["schema"] == "sepnet/v1"
    assert saved["trials"] == 100


def test_cli_sweep_emits_csv(tmp_path):
    obj = dict(RELAY, experiment="chancode-sweep", Ns=[8, 12], R=0.25,
               trials=200)
    outdir = str(tmp_path / "results")
    proc = cli("chancode-sweep", "--scenario",
               write_scenario(tmp_path, obj), "--out", outdir)
    assert proc.returncode == 0
    rows = list(csv.DictReader(open(os.path.join(outdir,
                                                 "chancode_sweep.csv"))))
    assert len(rows) == 2
    assert set(rows[0]) == {"N", "R", "pe_mean", "pe_stderr", "seed_batch"}


def test_cli_malformed_json_fails(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    proc = cli("capacity", "--scenario", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_lemma1_zero_trials_fails_cleanly():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    res = cli("lemma1", "--scenario",
              os.path.join(root, "scenarios", "lemma1.json"), "--trials", "0")
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert "trials must be >= 1" in res.stderr


def test_cli_stack_check_zero_trials_fails_cleanly():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    res = cli("stack-check", "--scenario",
              os.path.join(root, "scenarios", "stack_check.json"),
              "--trials", "0")
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert "trials must be >= 1" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("key, value, message", [
    ("quantizer_bits", [0], "quantizer_bits must be positive integers"),
    ("quantizer_bits", [2.5], "quantizer_bits must be positive integers"),
    ("link_rate", 0, "link_rate must be finite and positive"),
    ("link_rate", float("nan"), "link_rate must be finite and positive"),
    ("quantizer_bits", [6, 23], "ceil(N*R)=23 exceeds cap 22"),
    ("link_rate", 1e-9, "symbols exceed cap 2^28"),
    ("kappa", float("nan"), "kappa must be finite and positive"),
    ("kappa", float("inf"), "kappa must be finite and positive"),
    ("kappa", -1.0, "kappa must be finite and positive"),
])
def test_cli_separation_rejects_bad_sizes(tmp_path, key, value, message):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", "separation.json")) as fh:
        obj = json.load(fh)
    obj[key] = value
    res = cli("separation", "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert message in res.stderr
    assert res.stdout == ""


def _separation_scenario():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", "separation.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kernel", [
    [[0.89, 0.11], [0.2, 0.8]],
    [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
])
def test_cli_separation_needs_a_bsc_edge(tmp_path, kernel):
    obj = _separation_scenario()
    obj["edges"][0]["channel"]["kernel"] = kernel
    res = cli("separation", "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: separation needs a BSC")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_separation_runs_the_edge_crossover(tmp_path):
    """The crossover comes from the network's BSC edge."""
    obj = dict(_separation_scenario(), trials=30, quantizer_bits=[2],
               link_rate=0.2)
    obj["edges"][0]["channel"]["kernel"] = [[0.8, 0.2], [0.2, 0.8]]
    out = run_scenario(write_scenario(tmp_path, obj))
    assert out["p"] == 0.2
    assert out == separation_experiment(p=0.2, kappa=1.0,
                                        quantizer_bits=(2,), trials=30,
                                        seed=21, link_rate=0.2)


def biased_source(obj):
    obj["sources"]["pmf"] = [0.8, 0.2]


def scaled_hamming(obj):
    obj["demands"][0]["distortion_matrix"] = [[0, 5], [5, 0]]


def markov_source(obj):
    obj["sources"] = {"type": "markov", "alphabet_sizes": [2, 1],
                      "initial": [0.5, 0.5],
                      "transition": [[0.9, 0.1], [0.1, 0.9]]}


def no_demand_from_node_0(obj):
    obj["demands"] = []


@pytest.mark.parametrize("change, message", [
    (biased_source, "uniform source at node 0"),
    (scaled_hamming, "Hamming distortion"),
    (markov_source, "iid binary source at node 0"),
    (no_demand_from_node_0, "Hamming distortion"),
], ids=["biased-source", "scaled-hamming", "markov-source",
        "no-demand-from-node-0"])
def test_cli_separation_refuses_another_source_or_demand(tmp_path, change,
                                                         message):
    """separation_experiment quantizes an iid uniform bit under Hamming
    distortion; a scenario posing another problem is refused, not run as
    that one."""
    obj = _separation_scenario()
    change(obj)
    res = cli("separation", "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: separation needs")
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_separation_stdout_is_the_experiment():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    res = cli("separation", "--scenario",
              os.path.join(root, "scenarios", "separation.json"))
    assert res.returncode == 0
    obj = _separation_scenario()
    direct = separation_experiment(
        p=0.11, kappa=obj["kappa"],
        quantizer_bits=tuple(obj["quantizer_bits"]), trials=obj["trials"],
        seed=obj["seed"], link_rate=obj["link_rate"])
    assert res.stdout == json.dumps(direct, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command, scenario, key, value", [
    ("separation", "separation.json", "quantizer_bits", 6),
    ("separation", "separation.json", "link_rate", None),
    ("separation", "separation.json", "kappa", [1.0]),
    ("stack-check", "stack_check.json", "N", None),
    ("stack-check", "stack_check.json", "trials", None),
    ("chancode-sweep", "stack_check.json", "Ns", [None]),
    ("chancode-sweep", "stack_check.json", "Ns", ["a"]),
    ("chancode-sweep", "stack_check.json", "Ns", [0]),
    ("synth-sweep", "stack_check.json", "Ns", [None]),
    ("stack-check", "stack_check.json", "code",
     {"name": "uncoded_relay", "params": {"L": None}}),
    ("stack-check", "stack_check.json", "code",
     {"name": "uncoded_relay", "params": {"Q": 1}}),
    ("stack-check", "stack_check.json", "code",
     {"name": "uncoded_relay", "params": [1]}),
    ("stack-check", "stack_check.json", "N", float("inf")),
])
def test_cli_unreadable_scenario_key_names_it(tmp_path, command, scenario,
                                               key, value):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", scenario)) as fh:
        obj = json.load(fh)
    obj[key] = value
    res = cli(command, "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: scenario key %r" % key)
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command, scenario, key, message", [
    ("chancode-sweep", "stack_check.json", "trials", "no values to average"),
    ("separation", "separation.json", "trials", "trials must be >= 1"),
    ("synth-sweep", "stack_check.json", "samples", "no values to average"),
    ("synth-sweep", "stack_check.json", "codebooks", "no values to average"),
    ("lemma1", "lemma1.json", "n_times", "n_times must be >= 2"),
    ("lemma1", "lemma1.json", "N", "N must be >= 1"),
    ("separation", "separation.json", "kappa",
     "kappa must be finite and positive"),
    ("chancode-sweep", "stack_check.json", "batches", "batches must be >= 1"),
    ("synth-sweep", "stack_check.json", "batches", "batches must be >= 1"),
    ("stack-check", "stack_check.json", "N", "N must be >= 1"),
])
def test_cli_zero_count_fails_cleanly(tmp_path, command, scenario, key,
                                      message):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", scenario)) as fh:
        obj = json.load(fh)
    obj[key] = 0
    res = cli(command, "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert message in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command, scenario", [
    ("synth-sweep", "stack_check.json"), ("lemma1", "lemma1.json")])
def test_cli_infinite_codebook_fails_cleanly(tmp_path, command, scenario):
    """R = 1e308 overflows N*R to inf: a cap diagnostic (exit 2), not an
    OverflowError traceback (exit 1)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", scenario)) as fh:
        obj = json.load(fh)
    obj["R"] = 1e308
    res = cli(command, "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: ceil(N*R)=inf exceeds")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_lemma1_one_time_fails_cleanly(tmp_path):
    """Lemma 1 compares successive times: one time used to draw every
    codebook and exit 0 with two inconclusive reports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", "lemma1.json")) as fh:
        obj = json.load(fh)
    obj["n_times"] = 1
    res = cli("lemma1", "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: n_times must be >= 2")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command, scenario, key", [
    ("separation", "separation.json", "quantiser_bits"),
    ("separation", "separation.json", "p"),
    ("simulate", "bsc_relay.json", "trails"),
    ("capacity", "bsc_capacity.json", "tolerance"),
])
def test_cli_refuses_a_key_no_command_reads(tmp_path, command, scenario,
                                            key):
    """A misspelt or stale key is named before any experiment runs, where
    it used to leave the defaults to run silently. "p" is stale:
    separation takes its crossover from the BSC edge."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", scenario)) as fh:
        obj = json.load(fh)
    obj[key] = [2]
    res = cli(command, "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr == "sepnet: error: scenario key %r: no command " \
        "reads it\n" % key
    assert res.stdout == ""


def test_scenario_keys_are_the_keys_the_commands_read(tmp_path,
                                                      monkeypatch):
    """Every key a command reads is in SCENARIO_KEYS, and every key there
    is read by some command, on a network file or a bare solver file."""
    read = {"distortion_matrix"}   # the bare rd file's matrix, read as is
    original = Scenario.value

    def value(self, key, default, convert):
        read.add(key)
        return original(self, key, default, convert)

    monkeypatch.setattr(Scenario, "value", value)
    network = write_scenario(tmp_path, TINY)
    bare = write_scenario(tmp_path, {
        "kernel": [[0.9, 0.1], [0.1, 0.9]], "source": [0.5, 0.5],
        "distortion_matrix": [[0, 1], [1, 0]], "target_d": 0.1}, "bare.json")
    for command in EXPERIMENTS:
        run_scenario(network, command)
    for command in ("capacity", "rd"):
        run_scenario(bare, command)
    assert read == SCENARIO_KEYS


def test_cli_invalid_kernel_fails(tmp_path):
    obj = json.loads(json.dumps(RELAY))
    obj["edges"][0]["channel"]["kernel"] = [[0.7, 0.11], [0.11, 0.89]]
    proc = cli("simulate", "--scenario", write_scenario(tmp_path, obj))
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


def ternary_source(obj):
    obj["sources"] = {"type": "iid", "alphabet_sizes": [3, 1],
                      "pmf": [0.4, 0.3, 0.3]}


def ternary_relay(obj):
    ternary_source(obj)
    obj["demands"][0]["distortion_matrix"] = [[0, 1, 1], [1, 0, 1],
                                              [1, 1, 0]]


def bec_relay(obj):
    obj["edges"][0]["channel"]["kernel"] = [[0.8, 0.0, 0.2],
                                            [0.0, 0.8, 0.2]]


@pytest.mark.parametrize("change, message", [
    (lambda obj: obj.update(nodes=[0, 1, 2]), "AlphabetCount"),
    (lambda obj: obj["demands"][0].update(distortion_matrix=[0.0, 1.0]),
     "DistortionNotMatrix"),
    (ternary_source, "DistortionRows"),
    (ternary_relay, "DMC edge 0 takes input symbols in [0, 2)"),
    (bec_relay, "outside the 2 columns of the distortion matrix"),
], ids=["alphabets-per-node", "1d-distortion", "rows-per-symbol",
        "source-symbol-past-kernel", "output-symbol-past-matrix"])
def test_cli_sections_that_disagree_fail_cleanly(tmp_path, change, message):
    """Sections each well formed on their own but not with one another: a
    source alphabet per node, a distortion matrix with a row per source
    symbol and a column per symbol the decoder can put out, and channel
    inputs the kernel has rows for."""
    obj = json.loads(json.dumps(RELAY))
    change(obj)
    res = cli("simulate", "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def no_back_edge(obj):
    obj["code"] = {"name": "adaptive_feedback"}


def no_demands(obj):
    obj["demands"] = []


def pipe_feedback(obj):
    pipe = {"type": "pipe", "rate": 1.0}
    obj["edges"] = [{"from": 0, "to": 1, "channel": pipe},
                    {"from": 1, "to": 0, "channel": pipe}]
    obj["code"] = {"name": "adaptive_feedback"}


@pytest.mark.parametrize("change, command, message", [
    (no_back_edge, "simulate", "needs an edge 1 -> 0"),
    (no_back_edge, "stack-check", "needs an edge 1 -> 0"),
    (no_demands, "simulate", "needs a demand"),
    (no_demands, "stack-check", "needs a demand"),
    (no_demands, "rd", "no demand"),
    (pipe_feedback, "simulate", "must be a dmc edge"),
], ids=["adaptive-feedback-without-back-edge",
        "stack-check-without-back-edge", "recipe-without-demands",
        "stack-check-without-demands", "rd-without-demands",
        "adaptive-feedback-over-pipes"])
def test_cli_network_without_what_the_recipe_indexes_fails_cleanly(
        tmp_path, change, command, message):
    """A recipe's demand or edge that the network lacks, or a bit-pipe where
    it needs a dmc edge, is named in a diagnostic (exit 2), not an
    IndexError, StopIteration or AttributeError (exit 1)."""
    obj = json.loads(json.dumps(RELAY))
    change(obj)
    res = cli(command, "--scenario", write_scenario(tmp_path, obj),
              "--trials", "10")
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error:")
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_reruns_bit_identically(tmp_path):
    path = write_scenario(tmp_path, RELAY)
    a = cli("simulate", "--scenario", path, "--trials", "100")
    b = cli("simulate", "--scenario", path, "--trials", "100")
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# plot data

def test_emit_plotdata_schemas(tmp_path):
    fname, cols = EXPERIMENTS["synth-sweep"][1]
    rows = [{"N": 8, "R": 0.6, "tv_mean": 0.2, "tv_stderr": 0.01,
             "seed_batch": 0}]
    path = emit_plotdata(rows, str(tmp_path / fname), cols)
    rows = list(csv.DictReader(open(path)))
    assert rows[0]["N"] == "8" and rows[0]["tv_mean"] == "0.2"


def test_emit_plotdata_empty_and_unknown(tmp_path):
    cols = ["N", "R", "pe_mean", "pe_stderr", "seed_batch"]
    path = emit_plotdata([], str(tmp_path / "chancode_sweep.csv"), cols)
    lines = open(path).read().splitlines()
    assert lines == ["N,R,pe_mean,pe_stderr,seed_batch"]
    with pytest.raises(KeyError):
        emit_plotdata([{"N": 8}], str(tmp_path / "short.csv"), cols)


@pytest.mark.parametrize("command, scenario", [
    ("capacity", "bsc_capacity.json"), ("rd", "binary_rd.json")])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_cli_solver_rejects_bad_tol(tmp_path, command, scenario, tol):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scenarios", scenario)) as fh:
        obj = json.load(fh)
    obj["tol"] = tol
    res = cli(command, "--scenario", write_scenario(tmp_path, obj))
    assert res.returncode == 2
    assert res.stderr.startswith("sepnet: error: tol must be finite and "
                                 "positive")
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# parser robustness

# the tiny scenario's keys and the optional keys the commands read
MUTABLE_KEYS = sorted(set(TINY) | {"R", "p", "kappa", "link_rate", "tol",
                                   "input_law"})
BAD_VALUES = [0, -1, float("nan"), float("inf"), float("-inf"), None, "a"]


@pytest.mark.parametrize("command", list(EXPERIMENTS))
@settings(max_examples=50, deadline=timedelta(seconds=10))
@given(key=st.sampled_from(MUTABLE_KEYS), value=st.sampled_from(BAD_VALUES))
def test_mutated_scenario_ends_in_result_or_diagnostic(tmp_path_factory,
                                                       command, key, value):
    """One key of the tiny scenario set to a bad value: the command returns
    a strict-JSON result or raises a diagnostic, each within the deadline."""
    path = write_scenario(tmp_path_factory.getbasetemp(),
                          dict(TINY, **{key: value}), "mutated.json")
    try:
        result = run_scenario(path, command)
    except (ScenarioError, ValueError):
        return
    assert result["experiment"] == command
    json.dumps(result, allow_nan=False)
