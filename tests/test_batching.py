"""The trial axis: a batch of T trials through the one engine equals T runs
of a batch of one, row by row, and the same batch cut into chunks."""

import numpy as np
import pytest

from sepnet import netmodel, probkit
from sepnet.experiments import _bit_forward_code, _line_network
from sepnet.linkcodes import (AggregatePipeBehavior, CodedLinkBehavior,
                              build_channel_code)
from sepnet.netmodel import (BitPipe, DmcChannel, Edge, IidJoint, MarkovJoint,
                             NetworkSpec, estimate_distortion, run_block)
from sepnet.probkit import Kernel, RngStream
from sepnet.recipes import (SendBits, XorDecoder, XorRelay, adaptive_feedback,
                            constant_guess, uncoded_relay)
from sepnet.stacking import (destack_code, estimate_stacked_distortion,
                             even_odd_split, lift_code, run_stacked_block)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])
T = 7

RELAY_NET = NetworkSpec((0, 1), (Edge(0, 1, DmcChannel(Kernel.bsc(0.2))),),
                        {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))
FEEDBACK_NET = NetworkSpec((0, 1),
                           (Edge(0, 1, DmcChannel(Kernel.bsc(0.2))),
                            Edge(1, 0, DmcChannel(Kernel.bsc(0.1)))),
                           {(0, 1): HAMMING},
                           IidJoint((2, 2), [0.25, 0.25, 0.25, 0.25]))
MARKOV_NET = NetworkSpec((0, 1), (Edge(0, 1, DmcChannel(Kernel.bsc(0.2))),),
                         {(0, 1): HAMMING},
                         MarkovJoint((2, 1), [0.5, 0.5],
                                     [[0.7, 0.3], [0.3, 0.7]]))
RECIPES = [(uncoded_relay, RELAY_NET), (constant_guess, RELAY_NET),
           (adaptive_feedback, FEEDBACK_NET), (uncoded_relay, MARKOV_NET)]
RECIPE_IDS = ["relay", "constant", "feedback", "markov-relay"]


def single(recipe, net):
    policy = recipe(net, L=3)
    return lambda r: run_block(net, policy, r)


def stacked(recipe, net):
    policy = recipe(net, L=3)
    code = lift_code(policy, 4)
    return lambda r: run_stacked_block(net, code, r)


def destacked(recipe, net):
    policy = recipe(net, L=3)
    code = destack_code(lift_code(policy, 4))
    return lambda r: run_block(net, code, r)


def parity(recipe, net):
    policy = recipe(net, L=2)
    code = even_odd_split(lift_code(policy, 2))
    return lambda r: run_stacked_block(net, code, r)


def link_configs():
    """Link replacement's bit-forwarding scheme over coded BSC links and
    over aggregate pipes, at N = 12, R = 0.4 (4 bits per use)."""
    N, R, p = 12, 0.4, 0.11
    codes = [build_channel_code(Kernel.bsc(p), N, R, RngStream(9).child(i))
             for i in range(2)]
    scheme = _bit_forward_code(N, 4, 4)
    noisy = (_line_network(DmcChannel(Kernel.bsc(p))),
             {i: CodedLinkBehavior(c) for i, c in enumerate(codes)})
    pipe = (_line_network(BitPipe(0.6)),
            {0: AggregatePipeBehavior(), 1: AggregatePipeBehavior()})
    return {name: (lambda r, net=net, beh=beh:
                   run_stacked_block(net, scheme, r, beh))
            for name, (net, beh) in (("coded", noisy),
                                     ("aggregate-pipe", pipe))}


def rows(trace, lo, hi):
    """Rows lo:hi of every array a TraceRecord holds."""
    return {"u": {a: v[lo:hi] for a, v in trace.u.items()},
            "io": {e: [(x[lo:hi], y[lo:hi]) for x, y in seq]
                   for e, seq in trace.edge_io.items()},
            "recon": {k: v[lo:hi] for k, v in trace.recon.items()},
            "dist": {k: v[lo:hi] for k, v in trace.distortion.items()}}


def assert_same(a, b):
    for part in ("u", "recon", "dist"):
        assert a[part].keys() == b[part].keys()
        for k in a[part]:
            assert np.array_equal(a[part][k], b[part][k]), (part, k)
    assert a["io"].keys() == b["io"].keys()
    for e in a["io"]:
        assert len(a["io"][e]) == len(b["io"][e])
        for (x, y), (x1, y1) in zip(a["io"][e], b["io"][e]):
            assert x.shape == x1.shape and np.array_equal(x, x1)
            assert y.shape == y1.shape and np.array_equal(y, y1)


def check_batching(run, seed):
    rng = RngStream(seed)
    whole = run(rng.children("trial", range(T)))
    for j in range(T):
        one = run(rng.child("trial", j))
        assert_same(rows(whole, j, j + 1), rows(one, 0, 1))
    for lo, hi in ((0, 3), (3, 5), (5, T)):
        part = run(rng.children("trial", range(lo, hi)))
        assert_same(rows(whole, lo, hi), rows(part, 0, hi - lo))


@pytest.mark.parametrize("form", [single, stacked, destacked, parity],
                         ids=["single", "stacked", "destacked", "parity"])
@pytest.mark.parametrize("recipe,net", RECIPES, ids=RECIPE_IDS)
def test_batch_equals_batches_of_one(recipe, net, form):
    check_batching(form(recipe, net), 31)


@pytest.mark.parametrize("name", ["coded", "aggregate-pipe"])
def test_link_configs_batch_equals_batches_of_one(name):
    check_batching(link_configs()[name], 32)


def butterfly(L):
    """The butterfly over rate-1 pipes: sources 0 and 1 (correlated bits)
    feed XOR node 2, which feeds relay 3, which feeds sinks 4 and 5; each
    sink also hears one source directly and decodes both sources."""
    arcs = [(0, 2), (1, 2), (0, 4), (1, 5), (2, 3), (3, 4), (3, 5)]
    demands = {(a, b): HAMMING for a in (0, 1) for b in (4, 5)}
    net = NetworkSpec(tuple(range(6)),
                      tuple(Edge(a, b, BitPipe(1.0)) for a, b in arcs),
                      demands, IidJoint((2, 2, 1, 1, 1, 1),
                                        [0.4, 0.1, 0.1, 0.4]))
    code = netmodel.CodingPolicy(
        encoders={0: SendBits([0, 2], 1), 1: SendBits([1, 3], 1),
                  2: XorRelay([0, 1], [4]), 3: XorRelay([4], [5, 6])},
        decoders={(0, 4): XorDecoder([2], L), (1, 4): XorDecoder([2, 5], L),
                  (0, 5): XorDecoder([3, 6], L), (1, 5): XorDecoder([3], L)},
        params=netmodel.CodeParameters(L, L + 2))
    return net, code


def test_butterfly_decodes_every_demand_and_batches():
    """Two in-edges at the XOR node and four demands: every demand decodes
    without error on every trial, and the batch equals its trials run one
    at a time."""
    net, code = butterfly(5)
    assert netmodel.validate_spec(net) == []
    tr = run_block(net, code, RngStream(33).children("trial", range(T)))
    assert sorted(tr.distortion) == sorted(net.demands)
    for (a, b), d in tr.distortion.items():
        assert np.array_equal(d, np.zeros(T)), (a, b)
        assert np.array_equal(tr.recon[a, b], tr.u[a])
    assert not np.array_equal(tr.u[0], tr.u[1])
    check_batching(lambda r: run_block(net, code, r), 33)


@pytest.mark.parametrize("recipe,net", RECIPES, ids=RECIPE_IDS)
def test_estimates_do_not_depend_on_chunking(recipe, net, monkeypatch):
    policy = recipe(net, L=3)
    code = lift_code(policy, 4)

    def estimates():
        return (estimate_distortion(net, policy, 11,
                                    RngStream(5)).to_json(),
                estimate_stacked_distortion(net, code, 11, RngStream(5)))

    whole = estimates()
    # 3-trial chunks of single-layer blocks, 1-trial chunks of stacked ones
    p = policy.params
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS",
                        3 * netmodel.trial_elements(net, p.n, p.L))
    assert estimates() == whole


def test_ragged_payload_is_an_arity_mismatch():
    class Ragged:
        def emit(self, t, u_block, received, rng):
            return {0: [[1, 0], [1]]}

    net = NetworkSpec((0, 1), (Edge(0, 1, BitPipe(2.0)),), {(0, 1): HAMMING},
                      IidJoint((2, 1), [0.5, 0.5]))
    policy = netmodel.CodingPolicy(encoders={0: Ragged()}, decoders={},
                                   params=netmodel.CodeParameters(1, 1))
    with pytest.raises(netmodel.ArityMismatch):
        run_block(net, policy, RngStream(0).children("trial", range(2)))
