"""Command-line surface.

Usage: sepnet <subcommand> --scenario <file.json> [--seed S] [--trials T]
              [--out <dir>]

EXPERIMENTS is the one command table: subcommand -> (run(scenario), CSV plot
data as (file name, columns) or None). The parser, run_scenario and main read
only this table. Run functions call the experiments by module-global name
when they run, so a module attribute swapped in (by a tracer or a test) is
the one called. The scenario file carries the network and any
experiment-specific keys; --seed and --trials, when given, override the
values stored in the scenario. Results go to stdout as JSON and, with --out,
to <out>/<subcommand>.json plus the command's CSV plot data.
"""

import argparse
import json
import os
import sys

import numpy as np

from .experiments import (capacity_report, chancode_sweep, emit_plotdata,
                          rd_report, separation_experiment, simulate,
                          stack_check, synth_sweep, verify_lemma1)
from .netmodel import DmcChannel, IidJoint
from .probkit import PROB_TOL, Kernel, ProbVector
from .scenario import (ScenarioError, load_scenario, positive_ints,
                       write_json_atomic)


def _first_dmc_kernel(net):
    for e in net.edges:
        if isinstance(e.channel, DmcChannel):
            return e.channel.kernel
    raise ScenarioError("scenario has no noisy (dmc) edge")


def _separation_crossover(net):
    """The crossover p of the BSC on the first dmc edge, once the network
    poses the problem separation_experiment solves: an iid uniform binary
    source at node 0 whose demands are all Hamming. Any other network is a
    ScenarioError."""
    src, node = net.sources, net.nodes.index(0) if 0 in net.nodes else -1
    if (not isinstance(src, IidJoint) or node < 0
            or src.alphabet_sizes[node] != 2):
        raise ScenarioError("separation needs an iid binary source at node 0")
    law = src.pmf.probs.reshape(src.alphabet_sizes)
    law = law.sum(axis=tuple(i for i in range(law.ndim) if i != node))
    if np.abs(law - 0.5).max() > PROB_TOL:
        raise ScenarioError("separation needs a uniform source at node 0, "
                            "not the law %s" % law.tolist())
    demands = [d for (a, _), d in net.demands.items() if a == 0]
    if not demands or not all(np.array_equal(d, [[0, 1], [1, 0]])
                              for d in demands):
        raise ScenarioError("separation needs Hamming distortion on the "
                            "demands from node 0")
    kernel = _first_dmc_kernel(net)
    m = kernel.matrix
    if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > PROB_TOL:
        raise ScenarioError("separation needs a BSC on its first dmc edge, "
                            "not the kernel %s" % kernel.to_json())
    return float(m[0, 1])


def _capacity(scn):
    kernel = (scn.value("kernel", None, Kernel) if scn.net is None
              else _first_dmc_kernel(scn.net))
    return capacity_report(kernel, tol=scn.value("tol", 1e-9, float))


def _rd(scn):
    if scn.net is None:
        source = scn.value("source", None, ProbVector)
        dmat = np.asarray(scn.extra["distortion_matrix"], float)
    elif scn.net.demands:
        source = scn.net.sources.pmf
        dmat = next(iter(scn.net.demands.values()))
    else:
        raise ScenarioError("scenario has no demand to take the distortion "
                            "matrix from")
    return rd_report(source, dmat, scn.value("target_d", None, float),
                     tol=scn.value("tol", 1e-9, float))


def _synth_sweep(scn):
    kernel = _first_dmc_kernel(scn.net)
    law = scn.value("input_law",
                    ProbVector.uniform(kernel.input_size).probs, ProbVector)
    return synth_sweep(kernel, law,
                       scn.value("Ns", (8, 16, 24), positive_ints),
                       scn.value("R", 0.6, float),
                       batches=scn.value("batches", 30, int),
                       codebooks=scn.value("codebooks", 8, int),
                       samples=scn.value("samples", 16, int), seed=scn.seed)


EXPERIMENTS = {
    "capacity": (_capacity, None),
    "rd": (_rd, None),
    "simulate": (lambda scn: simulate(
        scn.net, scn.code_name, scn.code_params, scn.trials, scn.seed), None),
    "stack-check": (lambda scn: stack_check(
        scn.net, scn.code_name, scn.code_params, scn.value("N", 4, int),
        scn.trials, scn.seed), None),
    "chancode-sweep": (lambda scn: chancode_sweep(
        _first_dmc_kernel(scn.net),
        scn.value("Ns", (8, 16, 24), positive_ints),
        scn.value("R", 0.25, float), trials=scn.trials, seed=scn.seed,
        batches=scn.value("batches", 1, int)),
        ("chancode_sweep.csv",
         ["N", "R", "pe_mean", "pe_stderr", "seed_batch"])),
    "synth-sweep": (_synth_sweep, (
        "synth_sweep.csv", ["N", "R", "tv_mean", "tv_stderr", "seed_batch"])),
    "lemma1": (lambda scn: verify_lemma1(
        _first_dmc_kernel(scn.net), N=scn.value("N", 8, int),
        R=scn.value("R", 0.8, float), trials=scn.trials, seed=scn.seed,
        n_times=scn.value("n_times", 3, int)), None),
    "separation": (lambda scn: separation_experiment(
        p=_separation_crossover(scn.net),
        kappa=scn.value("kappa", 1.0, float),
        quantizer_bits=scn.value("quantizer_bits", (6, 8, 10), tuple),
        trials=scn.trials, seed=scn.seed,
        link_rate=scn.value("link_rate", 0.4, float)),
        ("separation.csv",
         ["quantizer_bits", "block_length", "D_pipe", "stderr_pipe",
          "D_noisy", "stderr_noisy", "p_e", "p_e_stderr", "excess_bound",
          "pooled_stderr"])),
}


# every experiment-specific key some command reads. One file may serve
# several commands (scenarios/bsc_relay.json holds the sweeps' Ns), so a key
# is refused only when no command reads it: a misspelling, or a stale key
SCENARIO_KEYS = frozenset({
    "kernel", "tol", "source", "distortion_matrix", "target_d", "N", "Ns",
    "R", "batches", "input_law", "codebooks", "samples", "n_times", "kappa",
    "quantizer_bits", "link_rate"})


def run_scenario(path, command=None, seed=None, trials=None):
    """Load a scenario file and run the requested experiment on it.

    capacity/rd also accept bare solver-input files ({kernel, tol} or
    {source, distortion_matrix, target_d}) with no network section. A key
    outside the network sections and SCENARIO_KEYS is a ScenarioError.
    """
    scn = load_scenario(path)
    command = command or scn.experiment
    if command not in EXPERIMENTS:
        raise ScenarioError("unknown experiment %r" % command)
    unread = sorted(set(scn.extra) - SCENARIO_KEYS)
    if unread:
        raise ScenarioError("scenario key %r: no command reads it"
                            % unread[0])
    if scn.net is None and command not in ("capacity", "rd"):
        raise ScenarioError("experiment %r needs a network scenario"
                            % command)
    if seed is not None:
        scn.seed = int(seed)
    if trials is not None:
        scn.trials = int(trials)
    return EXPERIMENTS[command][0](scn)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepnet",
        description="Monte Carlo laboratory for source-network and channel "
                    "coding separation over wireline networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the scenario)")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials (overrides the scenario)")
        p.add_argument("--out", default=None,
                       help="directory for result JSON and plot CSVs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = run_scenario(args.scenario, args.command,
                              seed=args.seed, trials=args.trials)
    except (ScenarioError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print("sepnet: error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        write_json_atomic(result, os.path.join(args.out,
                                               args.command + ".json"))
        plot = EXPERIMENTS[args.command][1]
        if plot:
            emit_plotdata(result["rows"], os.path.join(args.out, plot[0]),
                          plot[1])
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
