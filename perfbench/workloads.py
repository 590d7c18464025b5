"""The benchmark workloads, each made of two parts.

A part's ``setup(seed, workdir, size)`` generates its inputs from the seed
(and, for stack-check, writes and loads scenario files) and returns a Round:
the operations one round attempts, each with its checker, plus the checks
that span the whole round. A workload's round is its parts' rounds one after
the other. Every round of a run attempts the same operations on the same
inputs.

Why each workload exists, and which layer does its work, is recorded in
README.md. Sizes are per round and per part; ``tiny`` is for the quick
tests.
"""

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

import checks

HAMMING = [[0.0, 1.0], [1.0, 0.0]]

SIZES = {
    "full": {
        "stack-check": {"relay_trials": 300, "adaptive_trials": 150,
                        "simulate_trials": 1500},
        "coded-links": {"link_trials": 300, "pe_trials": 1500,
                        "separation_trials": 1500, "decode_words": 1500,
                        "decode_single": 150},
        "synthesis": {"induction_trials": 12, "replicates": 4,
                      "lemma1_trials": 1800, "lemma1_seeds": 3},
        "solvers": {"z_channels": 4, "bacs": 4, "rd_points": 2,
                    "critical_points": 1, "inverted_curves": (0.1, 0.4)},
    },
    "tiny": {
        "stack-check": {"relay_trials": 20, "adaptive_trials": 10,
                        "simulate_trials": 200},
        "coded-links": {"link_trials": 10, "pe_trials": 200,
                        "separation_trials": 200, "decode_words": 100,
                        "decode_single": 10},
        "synthesis": {"induction_trials": 8, "replicates": 4,
                      "lemma1_trials": 1800, "lemma1_seeds": 2},
        "solvers": {"z_channels": 1, "bacs": 1, "rd_points": 1,
                    "critical_points": 0, "inverted_curves": (0.4,)},
    },
}


@dataclass
class Operation:
    name: str
    call: object                   # () -> JSON-serializable result
    check: object                  # result -> list of problems


@dataclass
class Round:
    operations: list
    round_checks: object = field(default=lambda results: [])


def _seeds(rnd, k):
    return [rnd.randrange(2 ** 31) for _ in range(k)]


# -- stack-check -------------------------------------------------------------

STACK_N, STACK_L, SIMULATE_L = 8, 3, 4


def _bsc(p):
    return {"type": "dmc", "kernel": [[1.0 - p, p], [p, 1.0 - p]]}


def _scenario(edges, sources, code, experiment, trials, seed, **extra):
    obj = {"nodes": [0, 1],
           "edges": [{"from": a, "to": b, "channel": _bsc(p)}
                     for a, b, p in edges],
           "sources": sources,
           "demands": [{"a": 0, "b": 1, "distortion_matrix": HAMMING}],
           "code": code, "experiment": experiment, "trials": trials,
           "seed": seed}
    obj.update(extra)
    return obj


def stack_check_setup(seed, workdir, size):
    from sepnet import cli, scenario

    rnd = random.Random(seed)
    p_fwd = round(rnd.uniform(0.08, 0.14), 4)
    p_back = round(rnd.uniform(0.06, 0.12), 4)
    s_relay, s_adapt, s_sim = _seeds(rnd, 3)
    iid = {"type": "iid", "alphabet_sizes": [2, 1], "pmf": [0.5, 0.5]}
    iid2 = {"type": "iid", "alphabet_sizes": [2, 2], "pmf": [0.25] * 4}
    files = {
        "relay": _scenario([(0, 1, p_fwd)], iid,
                           {"name": "uncoded_relay",
                            "params": {"L": STACK_L}},
                           "stack-check", size["relay_trials"], s_relay,
                           N=STACK_N),
        "adaptive": _scenario([(0, 1, p_fwd), (1, 0, p_back)], iid2,
                              {"name": "adaptive_feedback",
                               "params": {"L": STACK_L}},
                              "stack-check", size["adaptive_trials"],
                              s_adapt, N=STACK_N),
        "simulate": _scenario([(0, 1, p_fwd)], iid,
                              {"name": "uncoded_relay",
                               "params": {"L": SIMULATE_L}},
                              "simulate", size["simulate_trials"], s_sim),
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        scenario.load_scenario(paths[name])

    def run(name):
        return lambda: cli.run_scenario(paths[name])

    return Round([
        Operation("stack-check relay", run("relay"),
                  lambda r: checks.relay_stack_check(
                      r, p_fwd, STACK_N * STACK_L)),
        Operation("stack-check adaptive", run("adaptive"),
                  checks.stacked_equivalence),
        Operation("simulate relay", run("simulate"),
                  lambda r: checks.relay_simulate(r, p_fwd, SIMULATE_L)),
    ])


# -- coded-links -------------------------------------------------------------

LINK_N, LINK_R, KAPPA = 24, 0.4, 1.0


def coded_links_setup(seed, workdir, size):
    from sepnet import experiments, linkcodes
    from sepnet.probkit import Kernel, RngStream

    rnd = random.Random(seed)
    p = round(rnd.uniform(0.09, 0.12), 4)
    s_link, s_sep, s_code, s_words = _seeds(rnd, 4)

    # received words for the decoder check: uniform messages through BSC(p)
    words_rng = np.random.default_rng(s_words)
    code = linkcodes.build_channel_code(Kernel.bsc(p), LINK_N, LINK_R,
                                        RngStream(s_code))
    msgs = words_rng.integers(0, code.codebook.shape[0],
                              size["decode_words"])
    noise = words_rng.random((size["decode_words"], LINK_N)) < p
    words = code.codebook[msgs] ^ noise.astype(np.int64)
    single = size["decode_single"]

    def decode():
        return {"batch": code.decode_batch(words).tolist(),
                "single": [code.decode(y) for y in words[:single]]}

    return Round([
        Operation("link-replacement",
                  lambda: experiments.link_replacement_experiment(
                      p=p, N=LINK_N, R=LINK_R, trials=size["link_trials"],
                      seed=s_link, pe_trials=size["pe_trials"]),
                  checks.link_replacement),
        Operation("separation",
                  lambda: experiments.separation_experiment(
                      p=p, kappa=KAPPA, quantizer_bits=(6, 8, 10),
                      trials=size["separation_trials"], seed=s_sep,
                      link_rate=LINK_R),
                  lambda r: checks.separation(r, p, KAPPA)),
        Operation("ML decoding", decode,
                  lambda r: checks.min_distance_decoding(
                      r, code.codebook, words)),
    ])


# -- synthesis ---------------------------------------------------------------

SYNTH_P, INDUCTION_N, INDUCTION_R = 0.2, 24, 0.6
LEMMA1_N, LEMMA1_R, LEMMA1_TIMES = 8, 0.8, 3


def synthesis_setup(seed, workdir, size):
    from sepnet import experiments
    from sepnet.probkit import Kernel

    rnd = random.Random(seed)
    s_ind, *s_lemma = _seeds(rnd, 1 + size["lemma1_seeds"])
    channel = Kernel.bsc(SYNTH_P)

    def lemma1(s):
        return lambda: experiments.verify_lemma1(
            channel, N=LEMMA1_N, R=LEMMA1_R, trials=size["lemma1_trials"],
            seed=s, n_times=LEMMA1_TIMES)

    ops = [Operation("two-step induction",
                     lambda: experiments.two_step_induction(
                         channel=channel, N=INDUCTION_N, R=INDUCTION_R,
                         trials=size["induction_trials"],
                         replicates=size["replicates"], seed=s_ind),
                     checks.induction)]
    ops += [Operation("lemma1 seed %d" % s, lemma1(s),
                      lambda r: checks.lemma1_seed(r, LEMMA1_TIMES))
            for s in s_lemma]

    def positive_controls(results):
        return checks.lemma1_positive_controls(results[1:])

    return Round(ops, positive_controls)


# -- solvers -----------------------------------------------------------------

# Bernoulli(pi) curves; at pi = 0.2 the slope bracket of the R(D) solver
# doubles onto the critical slope log2((1 - pi) / pi) = 2.
RD_CURVES = (0.1, 0.2, 0.3, 0.4)
RD_FRACTIONS = (0.2, 0.5, 0.8)       # target D as a share of pi
CRITICAL_FRACTION = 0.2              # one point at pi = 0.2, about 1.5 s
INVERT_FRACTION = 0.85               # target rate as a share of h2(pi)
JITTER = 0.02                        # seed moves each target by up to 2 %


def _jitter(rnd, x):
    return x * (1.0 + rnd.uniform(-JITTER, JITTER))


def solvers_setup(seed, workdir, size):
    from sepnet import infosolvers
    from sepnet.probkit import Kernel, ProbVector

    rnd = random.Random(seed)
    ops = []

    def capacity(kernel, want):
        def call():
            res = infosolvers.blahut_capacity(kernel)
            return {"capacity": res.capacity, "gap": res.gap,
                    "iterations": res.iterations,
                    "converged": res.converged,
                    "optimal_input": res.optimal_input.to_json()}
        return call, lambda r: checks.capacity(r, want)

    for _ in range(size["z_channels"]):
        eps = round(rnd.uniform(0.05, 0.5), 6)
        call, check = capacity(Kernel([[1.0, 0.0], [eps, 1.0 - eps]]),
                               checks.z_channel_capacity(eps))
        ops.append(Operation("capacity Z(%g)" % eps, call, check))
    for _ in range(size["bacs"]):
        a = round(rnd.uniform(0.02, 0.2), 6)
        b = round(rnd.uniform(0.1, 0.4), 6)
        matrix = [[1.0 - a, a], [b, 1.0 - b]]
        call, check = capacity(Kernel(matrix), checks.binary_capacity(matrix))
        ops.append(Operation("capacity BAC(%g, %g)" % (a, b), call, check))

    def rd(pi, d):
        def call():
            res = infosolvers.blahut_rate_distortion(
                ProbVector([pi, 1.0 - pi]), np.asarray(HAMMING), d)
            return {"rate": res.rate, "distortion": res.distortion,
                    "iterations": res.iterations}
        return Operation("R(D) pi=%g D=%g" % (pi, d), call,
                         lambda r: checks.rate_distortion(r, pi, d))

    for pi in RD_CURVES:
        fractions = (RD_FRACTIONS[:size["rd_points"]] if pi != 0.2
                     else (CRITICAL_FRACTION,) * size["critical_points"])
        ops += [rd(pi, round(_jitter(rnd, f) * pi, 6)) for f in fractions]

    def invert(pi, rate):
        def call():
            return {"distortion": infosolvers.invert_rate_distortion(
                ProbVector([pi, 1.0 - pi]), np.asarray(HAMMING), rate)}
        return Operation("invert pi=%g R=%g" % (pi, rate), call,
                         lambda r: checks.inversion(r, pi, rate))

    ops += [invert(pi, round(_jitter(rnd, INVERT_FRACTION) * checks.h2(pi),
                             6))
            for pi in size["inverted_curves"]]
    return Round(ops)


PARTS = {
    "stack-check": stack_check_setup,
    "coded-links": coded_links_setup,
    "synthesis": synthesis_setup,
    "solvers": solvers_setup,
}

# Each layer does most of its work in one workload and little or none in the
# other: the engine, recipes, likelihood encoder and most stream seeding in
# engine-synthesis; ML decoding and the solvers in coding-solvers.
WORKLOADS = {
    "engine-synthesis": ("stack-check", "synthesis"),
    "coding-solvers": ("coded-links", "solvers"),
}


def setup(workload, seed, workdir, size):
    """The workload's round: its parts' operations in order, each part's
    round checks applied to that part's results."""
    parts = [PARTS[name](seed, workdir, SIZES[size][name])
             for name in WORKLOADS[workload]]

    def round_checks(results):
        out, start = [], 0
        for part in parts:
            stop = start + len(part.operations)
            out += part.round_checks(results[start:stop])
            start = stop
        return out

    return Round([op for part in parts for op in part.operations],
                 round_checks)
