"""Run one sepnet benchmark workload, check its results, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a sepnet checkout: the package is imported from the
checkout's src/ directory, and the run exits with status 2 when there is
none. Workloads: engine-synthesis and coding-solvers (see README.md).

The run sets up the workload's inputs from the seed, then attempts whole
rounds of the same operations until the next round would end after
--seconds (at least two rounds, three when traced). Every operation's
result is checked, and every round's results must be byte-identical to the
first round's. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit status is 0 when
every check passed and 1 otherwise.

With --trace 0 the metrics are wall_s (median round), setup_s (median of
SETUP_REPEATS fresh interpreters, from launch to the first experiment call)
and peak_rss_mb. With --trace 1, an untraced warm-up round is followed by
traced and untraced rounds in turn; the metrics are the per-layer figures
of the median traced round, the CPU time of the median untraced round, and
the tracing overhead (median traced minus median untraced wall time). The
spans of the last traced round are written to
perfbench/out/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """One sepnet worker, and BLAS/OpenMP pools no wider than the CPUs this
    process may run on. Must run before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    os.environ["SEPNET_WORKERS"] = "1"
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))


def use_checkout_sources():
    if not os.path.isfile(os.path.join(SRC, "sepnet", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def child_setup_seconds(workload, seed):
    """Launch a fresh interpreter that imports sepnet, makes and loads the
    workload's inputs and reports that it is ready; time launch to ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up process failed (status %r)"
                           % proc.returncode)
    return t1 - t0


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(rnd):
    """Attempt every operation once; returns (wall seconds, results,
    failed operations, problems)."""
    results, problems, failed = [], [], 0
    t0 = time.perf_counter()
    for op in rnd.operations:
        try:
            res = op.call()
            bad = op.check(res)
        except Exception:     # a failing operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            res, bad = None, ["raised"]
        if bad:
            failed += 1
            problems += ["%s: %s" % (op.name, b) for b in bad]
        results.append(res)
    if not failed:
        problems += rnd.round_checks(results)
    return time.perf_counter() - t0, results, failed, problems


def layer_metrics(totals, nested):
    """Per-layer figures of one round from the tracer's totals."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    count, sec = "count", "s"
    m = {
        "probkit.streams": (get("probkit.stream", "calls"), count),
        "probkit.streams_s": (get("probkit.stream", "s"), sec),
        "probkit.sample_many.calls": (get("probkit.sample_many", "calls"),
                                      count),
        "probkit.sample_many_s": (get("probkit.sample_many", "s"), sec),
    }
    for short in ("capacity", "rd", "invert"):
        name = "infosolvers." + short
        m[name + ".calls"] = (get(name, "calls"), count)
        # an inversion's iterations are the R(D) solves it makes
        iterations = (nested.get((name, "infosolvers.rd"), 0)
                      if short == "invert" else get(name, "a"))
        m[name + ".iterations"] = (iterations, count)
        m[name + "_s"] = (get(name, "s"), sec)
    for name in ("netmodel.run_block", "stacking.run_stacked_block",
                 "recipes.emit"):
        m[name + ".calls"] = (get(name, "calls"), count)
        m[name + ".self_s"] = (get(name, "self_s"), sec)
    m["stacking.traces_match_s"] = (get("stacking.traces_match", "s"), sec)
    m["linkcodes.decode.calls"] = (get("linkcodes.decode", "calls"), count)
    m["linkcodes.decode_s"] = (get("linkcodes.decode", "s"), sec)
    m["linkcodes.decode_batch.words"] = (get("linkcodes.decode_batch", "a"),
                                         count)
    m["linkcodes.decode_batch_s"] = (get("linkcodes.decode_batch", "s"), sec)
    m["linkcodes.decode_batch.bytes"] = (get("linkcodes.decode_batch", "b"),
                                         "B")
    m["linkcodes.likelihood.calls"] = (get("linkcodes.likelihood", "calls"),
                                       count)
    m["linkcodes.likelihood.rows"] = (get("linkcodes.likelihood", "a"), count)
    m["linkcodes.likelihood_s"] = (get("linkcodes.likelihood", "s"), sec)
    m["linkcodes.build_code.calls"] = (get("linkcodes.build_code", "calls"),
                                       count)
    m["linkcodes.build_code_s"] = (get("linkcodes.build_code", "s"), sec)
    m["scenario.load_s"] = (get("scenario.load", "s"), sec)
    m["experiments.self_s"] = (sum(v["self_s"] for k, v in totals.items()
                                   if k.startswith("experiments.")), sec)
    return m


def run(workload, seed, seconds, trace, size="full",
        setup_repeats=SETUP_REPEATS):
    """Measure one workload; returns (result object, problems)."""
    setup_times = [] if trace else [child_setup_seconds(workload, seed)
                                    for _ in range(setup_repeats)]
    import sepnet  # noqa: F401  (imported before the tracer patches it)
    from tracer import Tracer
    from workloads import setup

    tracer = Tracer()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if trace:
            with tracer:
                rnd = setup(workload, seed, workdir, size)
            setup_totals = tracer.totals()[0]
            tracer.clear()
        else:
            rnd = setup(workload, seed, workdir, size)
        walls = {False: [], True: []}
        all_walls, cpu, layers, problems = [], [], [], []
        attempted = failed = 0
        reference = None
        origin = start = time.perf_counter()
        while True:
            # with tracing, round 0 warms up and then traced rounds alternate
            # with untraced ones; only the later rounds give the overhead
            k = len(all_walls)
            traced = bool(trace) and k % 2 == 1
            c0 = cpu_seconds()
            if traced:
                tracer.clear()
                origin = time.perf_counter()
                with tracer:
                    wall, results, bad, found = run_round(rnd)
                layers.append(layer_metrics(*tracer.totals()))
            else:
                wall, results, bad, found = run_round(rnd)
            if not (trace and k == 0):
                walls[traced].append(wall)
                if not traced:
                    cpu.append(cpu_seconds() - c0)
            all_walls.append(wall)
            attempted += len(rnd.operations)
            failed += bad
            problems += found
            text = json.dumps(results, sort_keys=True)
            if reference is None:
                reference = text
            elif text != reference:
                problems.append("round %d%s results differ from round 0"
                                % (k, " (traced)" if traced else ""))
            if len(all_walls) >= (3 if trace else 2) and \
                    time.perf_counter() - start \
                    + statistics.fmean(all_walls) > seconds:
                break

    if trace:
        metrics = {}
        for name, (_, unit) in layers[0].items():
            metrics[name] = {"value": statistics.median(
                row[name][0] for row in layers), "unit": unit}
        metrics["scenario.load_s"]["value"] += \
            setup_totals.get("scenario.load", {}).get("s", 0.0)
        metrics["process.cpu_s"] = {"value": statistics.median(cpu),
                                    "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True])
            - statistics.median(walls[False]), "unit": "s"}
        tracer.write(os.path.join(OUT, "trace-%s-%d.json" % (workload, seed)),
                     origin)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    correct = failed == 0 and not problems
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, problems)


def main(argv=None):
    cap_threads()
    from workloads import WORKLOADS, setup

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print("perfbench: no sepnet sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            setup(args.workload, args.seed, workdir, "full")
            print("ready", flush=True)
        return 0
    result, problems = run(args.workload, args.seed, args.seconds,
                           args.trace)
    for p in problems:
        print("perfbench: check failed: %s" % p, file=sys.stderr)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
