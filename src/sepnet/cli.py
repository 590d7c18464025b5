"""Command-line surface.

Usage: sepnet <subcommand> --scenario <file.json> [--seed S] [--trials T]
              [--out <dir>]

Subcommands: capacity, rd, simulate, stack-check, chancode-sweep,
synth-sweep, lemma1, separation. The scenario file carries the network and
any experiment-specific keys; --seed and --trials, when given, override the
values stored in the scenario. Results go to stdout as JSON and, with --out,
to <out>/<subcommand>.json (plus tidy CSV plot data for the sweep and
separation commands).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .experiments import (_PLOT_SCHEMAS, capacity_report, chancode_sweep,
                          emit_plotdata, rd_report, separation_experiment,
                          simulate, stack_check, synth_sweep, verify_lemma1)
from .netmodel import DmcChannel
from .probkit import Kernel, ProbVector
from .scenario import (ScenarioError, load_scenario, scenario_value,
                       write_json_atomic)

SUBCOMMANDS = ("capacity", "rd", "simulate", "stack-check",
               "chancode-sweep", "synth-sweep", "lemma1", "separation")


def _first_dmc_kernel(net):
    for e in net.edges:
        if isinstance(e.channel, DmcChannel):
            return e.channel.kernel
    raise ScenarioError("scenario has no noisy (dmc) edge")


def run_scenario(path, command=None, seed=None, trials=None):
    """Load a scenario file and run the requested experiment on it.

    capacity/rd also accept bare solver-input files ({kernel, tol} or
    {source, distortion_matrix, target_d}) with no network section.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    command = command or raw.get("experiment", "simulate")
    if command not in SUBCOMMANDS:
        raise ScenarioError("unknown experiment %r" % command)

    if "nodes" not in raw:
        ex = functools.partial(scenario_value, raw)
        if command == "capacity":
            return capacity_report(ex("kernel", None, Kernel),
                                   tol=ex("tol", 1e-9, float))
        if command == "rd":
            return rd_report(ex("source", None, ProbVector),
                             np.asarray(raw["distortion_matrix"], float),
                             ex("target_d", None, float),
                             tol=ex("tol", 1e-9, float))
        raise ScenarioError("experiment %r needs a network scenario"
                            % command)

    scn = load_scenario(path)
    seed = scn.seed if seed is None else int(seed)
    trials = scn.trials if trials is None else int(trials)
    ex = functools.partial(scenario_value, scn.extra)

    if command == "capacity":
        return capacity_report(_first_dmc_kernel(scn.net),
                               tol=ex("tol", 1e-9, float))
    if command == "rd":
        (a, b), dmat = next(iter(scn.net.demands.items()))
        return rd_report(scn.net.sources.pmf, dmat,
                         ex("target_d", None, float),
                         tol=ex("tol", 1e-9, float))
    if command == "simulate":
        return simulate(scn.net, scn.code_name, scn.code_params, trials,
                        seed, pipe_delay=ex("pipe_delay", 0, int))
    if command == "stack-check":
        return stack_check(scn.net, scn.code_name, scn.code_params,
                           ex("N", 4, int), trials, seed)
    if command == "chancode-sweep":
        return chancode_sweep(_first_dmc_kernel(scn.net),
                              ex("Ns", (8, 16, 24), tuple),
                              ex("R", 0.25, float),
                              trials=trials, seed=seed,
                              batches=ex("batches", 1, int))
    if command == "synth-sweep":
        kernel = _first_dmc_kernel(scn.net)
        law = ex("input_law", ProbVector.uniform(kernel.input_size).probs,
                 ProbVector)
        return synth_sweep(kernel, law,
                           ex("Ns", (8, 16, 24), tuple),
                           ex("R", 0.6, float),
                           batches=ex("batches", 30, int),
                           codebooks=ex("codebooks", 8, int),
                           samples=ex("samples", 16, int), seed=seed)
    if command == "lemma1":
        return verify_lemma1(_first_dmc_kernel(scn.net),
                             N=ex("N", 8, int), R=ex("R", 0.8, float),
                             trials=trials, seed=seed,
                             n_times=ex("n_times", 3, int))
    # separation
    return separation_experiment(p=ex("p", 0.11, float),
                                 kappa=ex("kappa", 1.0, float),
                                 quantizer_bits=ex("quantizer_bits",
                                                   (6, 8, 10), tuple),
                                 trials=trials, seed=seed,
                                 link_rate=ex("link_rate", 0.4, float))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepnet",
        description="Monte Carlo laboratory for source-network and channel "
                    "coding separation over wireline networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
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
        if result.get("experiment") in _PLOT_SCHEMAS:
            emit_plotdata(result, args.out)
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
