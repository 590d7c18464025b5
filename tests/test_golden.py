"""Golden digests of small seeded runs.

Each case pins the sha256 of json.dumps(result, sort_keys=True). A change
that moves a random stream or a seeded number on purpose updates the digest
here and says which numbers moved, and why, in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from sepnet.experiments import (link_replacement_experiment, simulate,
                                stack_check, synth_sweep, two_step_induction,
                                verify_lemma1)
from sepnet.linkcodes import SynthLinkBehavior
from sepnet.netmodel import (BitPipe, DmcChannel, Edge, IidJoint, MarkovJoint,
                             NetworkSpec, run_block)
from sepnet.probkit import Kernel, ProbVector, RngStream
from sepnet.recipes import adaptive_feedback, uncoded_relay
from sepnet.stacking import (destack_code, even_odd_split, lift_code,
                             run_stacked_block)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])
RELAY_NET = NetworkSpec((0, 1), (Edge(0, 1, DmcChannel(Kernel.bsc(0.11))),),
                        {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))
FEEDBACK_NET = NetworkSpec((0, 1),
                           (Edge(0, 1, DmcChannel(Kernel.bsc(0.11))),
                            Edge(1, 0, DmcChannel(Kernel.bsc(0.1)))),
                           {(0, 1): HAMMING},
                           IidJoint((2, 2), [0.25, 0.25, 0.25, 0.25]))
PIPE_NET = NetworkSpec((0, 1), (Edge(0, 1, BitPipe(1.0)),),
                       {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))
MARKOV_FEEDBACK_NET = NetworkSpec(
    (0, 1), FEEDBACK_NET.edges, {(0, 1): HAMMING},
    MarkovJoint((2, 2), [0.25] * 4,
                [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1],
                 [0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.1, 0.7]]))


def trace_json(tr):
    """Every array of a TraceRecord, under string keys."""
    return {"u": {str(a): u.tolist() for a, u in tr.u.items()},
            "edge_io": {str(e): [[x.tolist(), y.tolist()] for x, y in io]
                        for e, io in tr.edge_io.items()},
            "recon": {"%r,%r" % k: r.tolist() for k, r in tr.recon.items()},
            "distortion": {"%r,%r" % k: d.tolist()
                           for k, d in tr.distortion.items()}}


def split_markov_run():
    """Six trials of the even/odd split of the 2-layer lifted adaptive
    feedback code (4 layers) on a Markov source."""
    policy = adaptive_feedback(MARKOV_FEEDBACK_NET, L=3)
    code = even_odd_split(lift_code(policy, 2))
    return trace_json(run_stacked_block(
        MARKOV_FEEDBACK_NET, code, RngStream(12).children("trial", range(6))))


def destacked_adaptive_run():
    """Five trials of the de-stacked 4-layer lifted adaptive feedback code."""
    policy = adaptive_feedback(FEEDBACK_NET, L=3)
    code = destack_code(lift_code(policy, 4))
    return trace_json(run_block(FEEDBACK_NET, code,
                                RngStream(13).children("trial", range(5))))


def synth_link_run():
    """Six trials of the 8-layer lifted relay over a rate-1 pipe that
    synthesizes a BSC(0.11), with an independent code per stacked time."""
    policy = uncoded_relay(PIPE_NET, L=3)
    tr = run_stacked_block(PIPE_NET, lift_code(policy, 8),
                           RngStream(11).children("trial", range(6)),
                           {0: SynthLinkBehavior(ProbVector([0.5, 0.5]),
                                                 Kernel.bsc(0.11), 0.8,
                                                 RngStream(10))})
    return {"x": [x.tolist() for x, _ in tr.edge_io[0]],
            "y": [y.tolist() for _, y in tr.edge_io[0]],
            "distortion": tr.distortion[0, 1].tolist()}


CASES = {
    "stack_check_relay": (
        lambda: stack_check(RELAY_NET, "uncoded_relay", {"L": 3}, 4, 40, 42),
        "05e1224e266463834ec7dc434f16a51a86bc64c3778a2f78b115407fbd570c6c"),
    "stack_check_adaptive": (
        lambda: stack_check(FEEDBACK_NET, "adaptive_feedback", {"L": 3}, 4,
                            30, 43),
        "cf5149afc1cf644c3e97d2fa1d9f9a8d5f9ab1ae177e8a7bd1a8d47babc99950"),
    "simulate_relay": (
        lambda: simulate(RELAY_NET, "uncoded_relay", {"L": 4}, 200, 5),
        "1268184ce7f9baf132da930c65ae6365a78c18a2f0477fb0276e6b10d495e879"),
    "simulate_adaptive": (
        lambda: simulate(FEEDBACK_NET, "adaptive_feedback", {"L": 3}, 100, 6),
        "1ae5cd85e1e1aca48a986682c790e16a9683bd1433ed20d125a5cd79515a3556"),
    "link_replacement": (
        lambda: link_replacement_experiment(p=0.11, N=24, R=0.4, trials=40,
                                            seed=3, pe_trials=200),
        "b924c8978c1822886d5be53acdebdf5217e6658ed76e0e0d6efa68d0c644d90d"),
    "two_step_induction": (
        lambda: two_step_induction(channel=Kernel.bsc(0.2), N=12, R=0.6,
                                   trials=12, replicates=2, seed=4),
        "82472332f118d782febddcb240da6005f69321e3504ab76a00868a7cac52a46f"),
    "verify_lemma1": (
        lambda: verify_lemma1(Kernel.bsc(0.2), N=8, R=0.8, trials=600,
                              seed=1),
        "8a021f7b97585d7f310f996c65d2b0a34f3564ab0e54ccba3c4226b9eda87903"),
    "synth_sweep_bsc": (
        lambda: synth_sweep(Kernel.bsc(0.11), ProbVector([0.5, 0.5]), (8, 12),
                            0.8, batches=2, codebooks=3, samples=5, seed=7),
        "cce778ecb11b72aaad9fd53fd0ddca4fcf3684a40e8c9f8d538403515ad19d78"),
    "synth_sweep_bec": (
        lambda: synth_sweep(Kernel.bec(0.2), ProbVector([0.4, 0.6]), (6,),
                            0.95, batches=1, codebooks=2, samples=4, seed=8),
        "af9cab8190e8599b249a9dfad6e10afac352d370ff68d782509f6b5701067260"),
    "synth_link_stacked": (
        synth_link_run,
        "97ca4585a4b15f7b655928c5a6aa8297a0d85e2e78c799fdbd41179f976a9a7b"),
    "split_markov_stacked": (
        split_markov_run,
        "cc58ca209679c5d79a5aeae2350a092bc9d6c085e70aaccd712c7c5c4120575f"),
    "destacked_adaptive_trace": (
        destacked_adaptive_run,
        "62a06a4f2146faf48e8b6772a49b8ab9f662f2d6a3a71e42c74de5677d686bba"),
}


def digest(result):
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_run_matches_its_golden_digest(name):
    run, want = CASES[name]
    assert digest(run()) == want
