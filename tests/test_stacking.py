import numpy as np
import pytest

from sepnet import probkit
from sepnet.experiments import mixing_demo
from sepnet.netmodel import (ArityMismatch, BitPipe, CodeParameters,
                             CodingPolicy, DmcChannel, Edge, IidJoint,
                             MarkovJoint, NetworkSpec, run_block)
from sepnet.probkit import Kernel, RngStream
from sepnet.recipes import adaptive_feedback, uncoded_relay
from sepnet.stacking import (CopiesEncoder, StackedCode, destack_code,
                             even_odd_split, lift_code,
                             parity_class_dependence_tv, run_stacked_block,
                             traces_match)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def same_io(io1, io2):
    """Two TraceRecord.edge_io dicts hold equal (x, y) arrays."""
    return io1.keys() == io2.keys() and all(
        len(io1[e]) == len(io2[e]) and all(
            np.array_equal(a, b) for p1, p2 in zip(io1[e], io2[e])
            for a, b in zip(p1, p2))
        for e in io1)


def relay_net(p=0.11):
    return NetworkSpec((0, 1), (Edge(0, 1, DmcChannel(Kernel.bsc(p))),),
                       {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))


def feedback_net(p=0.2):
    return NetworkSpec((0, 1),
                       (Edge(0, 1, DmcChannel(Kernel.bsc(p))),
                        Edge(1, 0, DmcChannel(Kernel.bsc(0.1)))),
                       {(0, 1): HAMMING},
                       IidJoint((2, 2), [0.25, 0.25, 0.25, 0.25]))


class CrossLayerEncoder:
    """A stacked encoder on feedback_net's node 0 that is not a lift: at
    stacked time t, layer l sends its source symbol t plus the last feedback
    of layer l - 1 (layer 0 reads layer N - 1), so every layer reads another
    layer's history."""

    def __init__(self, L):
        self.L = L

    def emit(self, t, u_full, received_all, rng):
        u = u_full.reshape(len(u_full), -1, self.L)
        fb = received_all[1]
        last = fb[-1] if fb else np.zeros(u.shape[:2], dtype=np.int64)
        return {0: (u[:, :, t] + np.roll(last, 1, axis=1)) % 2}


class StackedEcho:
    """Node 1 echoes each layer's last output of edge 0 on edge 1."""

    def __init__(self, L):
        self.L = L

    def emit(self, t, u_full, received_all, rng):
        seen = received_all[0]
        return {1: seen[-1] if seen else np.zeros(
            (len(u_full), u_full.shape[1] // self.L), dtype=np.int64)}


class StackedForward:
    """Layer l's reconstruction is the symbols layer l received on edge 0."""

    def __init__(self, L):
        self.L = L

    def decode(self, u_full, received_all, rng):
        return np.stack(received_all[0][:self.L], axis=-1).reshape(
            len(u_full), -1)


def cross_layer_code(N, L):
    return StackedCode({0: CrossLayerEncoder(L), 1: StackedEcho(L)},
                       {(0, 1): StackedForward(L)}, N, CodeParameters(L, L))


def assert_reads_layers(tr, L, source_layer):
    """Every input layer g on edge 0 is its source symbol plus the last
    feedback of layer source_layer[g], as CrossLayerEncoder sends it."""
    u = tr.u[0].reshape(len(tr.u[0]), -1, L)
    fb = [y for _, y in tr.edge_io[1]]
    for t, (x, _) in enumerate(tr.edge_io[0]):
        last = fb[t - 1] if t else np.zeros_like(x)
        assert np.array_equal(x, (u[:, :, t] + last[:, source_layer]) % 2)


# ---------------------------------------------------------------------------
# lift / destack exact equivalence

@pytest.mark.parametrize("recipe,net", [
    (uncoded_relay, relay_net()),
    (adaptive_feedback, feedback_net()),
])
def test_destack_reproduces_stacked_traces(recipe, net):
    policy = recipe(net, L=3)
    N = 4
    stacked = lift_code(policy, N)
    destacked = destack_code(stacked)
    for j in range(25):
        rng = RngStream(100 + j)
        tr_s = run_stacked_block(net, stacked, rng)
        tr_d = run_block(net, destacked, rng)
        assert traces_match(tr_s, tr_d)
        key = next(iter(net.demands))
        assert tr_s.distortion[key] == tr_d.distortion[key]
        assert np.array_equal(tr_s.recon[key], tr_d.recon[key])


@pytest.mark.parametrize("N", [2, 3])
def test_destack_reproduces_a_cross_layer_code(N):
    """De-stacking is exact for a code whose layers read each other's
    history, not only for a lift."""
    net, L = feedback_net(), 3
    stacked = cross_layer_code(N, L)
    destacked = destack_code(stacked)
    for j in range(4):
        rng = RngStream(200 + j).children("trial", range(5))
        tr_s = run_stacked_block(net, stacked, rng)
        assert_reads_layers(tr_s, L, np.roll(np.arange(N), 1))
        tr_d = run_block(net, destacked, rng)
        assert traces_match(tr_s, tr_d).all()
        assert np.array_equal(tr_s.recon[0, 1], tr_d.recon[0, 1])
        assert np.array_equal(tr_s.distortion[0, 1], tr_d.distortion[0, 1])


def test_destacked_link_seeds_each_period_stream_once(monkeypatch):
    seeded = []
    uniform_streams = probkit.uniform_streams

    def counting(seed, stream_ids, size=None):
        stream_ids = list(stream_ids)
        seeded.extend(stream_ids)
        return uniform_streams(seed, stream_ids, size)

    net = relay_net()
    policy = uncoded_relay(net, L=3)
    N = 8
    stacked = lift_code(policy, N)
    destacked = destack_code(stacked)
    rng = RngStream(5)
    tr_s = run_stacked_block(net, stacked, rng)
    monkeypatch.setattr(probkit, "uniform_streams", counting)
    tr_d = run_block(net, destacked, rng)
    monkeypatch.undo()
    edge_streams = [s for s in seeded if s[:1] == ("edge",)]
    assert sorted(edge_streams) == [("edge", 0, t)
                                    for t in range(policy.params.n)]
    assert traces_match(tr_s, tr_d)


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("recipe,net", [
    (uncoded_relay, relay_net()),
    (adaptive_feedback, feedback_net()),
])
def test_destacked_encoder_runs_each_stacked_emission_once(recipe, net, L,
                                                           monkeypatch):
    """A de-stacked N = 8 block calls each node's stacked encoder once per
    period and still matches the stacked run; one policy reused over trials
    gives the traces of a fresh policy per trial."""
    policy = recipe(net, L=L)
    N = 8
    stacked = lift_code(policy, N)
    destacked = destack_code(stacked)
    node_of = {id(enc): a for a, enc in stacked.encoders.items()}
    calls = []
    emit = CopiesEncoder.emit

    def counting(enc, t, *args):
        calls.append((node_of[id(enc)], t))
        return emit(enc, t, *args)

    for j in range(4):
        rng = RngStream(60 + j)
        tr_s = run_stacked_block(net, stacked, rng)
        del calls[:]
        monkeypatch.setattr(CopiesEncoder, "emit", counting)
        tr_d = run_block(net, destacked, rng)
        monkeypatch.undo()
        assert calls == [(a, t) for t in range(policy.params.n)
                         for a in net.nodes if a in stacked.encoders]
        assert traces_match(tr_s, tr_d)
        fresh = destack_code(lift_code(recipe(net, L=L), N))
        tr_f = run_block(net, fresh, rng)
        assert same_io(tr_f.edge_io, tr_d.edge_io)
        assert tr_f.distortion.keys() == tr_d.distortion.keys()
        for key, d in tr_f.distortion.items():
            assert np.array_equal(d, tr_d.distortion[key])
        for key, recon in tr_f.recon.items():
            assert np.array_equal(recon, tr_d.recon[key])


def test_destack_preserves_kappa():
    policy = uncoded_relay(relay_net(), L=3)
    dparams = destack_code(lift_code(policy, 6)).params
    assert dparams.kappa == policy.params.kappa
    assert dparams.L == 6 * policy.params.L
    assert dparams.n == 6 * policy.params.n


def test_destack_trivial_single_layer():
    net = relay_net()
    policy = uncoded_relay(net, L=4)
    stacked = lift_code(policy, 1)
    destacked = destack_code(stacked)
    rng = RngStream(3)
    tr_s = run_stacked_block(net, stacked, rng)
    tr_d = run_block(net, destacked, rng)
    assert traces_match(tr_s, tr_d)


def test_stacked_foreign_edge_emission_rejected():
    """An encoder may only emit on edges its node feeds, in every mode."""
    class Meddler:
        def emit(self, t, u_full, received_all, rng):
            return {0: np.zeros(2, dtype=np.int64),
                    1: np.zeros(2, dtype=np.int64)}

    net = feedback_net()
    policy = adaptive_feedback(net, L=2)
    stacked = lift_code(policy, 2)
    stacked.encoders[1] = Meddler()  # node 1 feeds edge 1, not edge 0
    with pytest.raises(ArityMismatch):
        run_stacked_block(net, stacked, RngStream(0))


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("split", [False, True])
def test_copies_reject_ragged_or_missing_emissions(split, missing):
    """Copies whose payloads differ in width, or of which one emits nothing
    on an edge another feeds, are an ArityMismatch under lift and split."""
    class Uneven:
        calls = 0

        def emit(self, t, u_block, received, rng):
            self.calls += 1
            if missing and self.calls % 2 == 0:
                return {}
            width = 1 if missing else self.calls
            return {0: np.zeros((len(u_block), width), dtype=np.int64)}

    net = NetworkSpec((0, 1), (Edge(0, 1, BitPipe(8.0)),), {(0, 1): HAMMING},
                      IidJoint((2, 1), [0.5, 0.5]))
    params = CodeParameters(2, 2)
    code = (even_odd_split(StackedCode({0: Uneven()}, {}, 1, params)) if split
            else lift_code(CodingPolicy({0: Uneven()}, {}, params), 2))
    with pytest.raises(ArityMismatch):
        run_stacked_block(net, code, RngStream(0))


def test_copies_need_at_least_one_layer():
    policy = uncoded_relay(relay_net(), L=2)
    with pytest.raises(ValueError):
        lift_code(policy, 0)
    with pytest.raises(ValueError):
        even_odd_split(StackedCode(policy.encoders, policy.decoders, 0,
                                   policy.params))


def test_lifted_layers_are_independent():
    """Different layers of a lifted code see independent channel noise."""
    net = relay_net(p=0.5)
    policy = uncoded_relay(net, L=16)
    stacked = lift_code(policy, 2)
    tr = run_stacked_block(net, stacked, RngStream(11))
    y0 = [int(yv[0, 0]) for _, yv in tr.edge_io[0]]
    y1 = [int(yv[0, 1]) for _, yv in tr.edge_io[0]]
    assert y0 != y1


# ---------------------------------------------------------------------------
# even/odd split

def test_even_odd_split_doubles_layers_and_reconstructs():
    net = NetworkSpec((0, 1), (Edge(0, 1, DmcChannel(Kernel.identity(2))),),
                      {(0, 1): HAMMING},
                      MarkovJoint((2, 1), [0.5, 0.5],
                                  [[0.6, 0.4], [0.4, 0.6]]))
    policy = uncoded_relay(net, L=4)
    inner = lift_code(policy, 3)
    split = even_odd_split(inner)
    assert split.N == 6
    tr = run_stacked_block(net, split, RngStream(2))
    assert tr.distortion[(0, 1)] == 0.0
    assert np.array_equal(tr.recon[(0, 1)], tr.u[0])


def test_even_odd_split_keeps_class_histories_apart():
    """Class c of the split runs the cross-layer code on layers c, c + 2,
    ...: layer 2j + c reads the feedback of layer 2(j - 1 mod N) + c, never
    one of the other class, and the split de-stacks exactly."""
    net, L, Ni = feedback_net(), 2, 3
    split = even_odd_split(cross_layer_code(Ni, L))
    assert split.N == 2 * Ni
    j, c = np.divmod(np.arange(2 * Ni), 2)
    destacked = destack_code(split)
    for seed in range(3):
        rng = RngStream(300 + seed).children("trial", range(4))
        tr_s = run_stacked_block(net, split, rng)
        assert_reads_layers(tr_s, L, 2 * ((j - 1) % Ni) + c)
        assert traces_match(tr_s, run_block(net, destacked, rng)).all()


def test_parity_class_dependence_shrinks_with_block_length():
    chain = MarkovJoint((2,), [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
    rng = RngStream(5)
    tv_short = parity_class_dependence_tv(chain, 1, samples=8000, rng=rng)
    tv_long = parity_class_dependence_tv(chain, 32, samples=8000, rng=rng)
    assert tv_long < tv_short
    assert tv_long < 0.05


@pytest.mark.parametrize("kwargs,message", [
    ({"L": 0}, "L must be >= 1"),
    ({"num_blocks": 0}, "num_blocks must be >= 2"),
    ({"num_blocks": 1}, "num_blocks must be >= 2"),
    ({"samples": 0}, "samples must be >= 1"),
])
def test_mixing_rejects_empty_blocks_before_drawing(kwargs, message,
                                                    monkeypatch):
    """L = 0 would put every block at position 0, num_blocks = 0 used to
    fail inside numpy and samples = 0 gave a NaN: each is a ValueError
    before any chain is drawn."""
    monkeypatch.setattr(MarkovJoint, "draw_block", None)
    with pytest.raises(ValueError, match=message):
        mixing_demo(**kwargs)
