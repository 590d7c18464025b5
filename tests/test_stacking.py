import numpy as np
import pytest

from sepnet import probkit
from sepnet.netmodel import (ArityMismatch, DmcChannel, Edge, IidJoint,
                             MarkovJoint, NetworkSpec, run_block)
from sepnet.probkit import Kernel, RngStream
from sepnet.recipes import adaptive_feedback, uncoded_relay
from sepnet.stacking import (InterleaveSchedule, LiftedEncoder, destack_code,
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


# ---------------------------------------------------------------------------
# schedule

def test_schedule_round_trip_and_check():
    s = InterleaveSchedule(N=5, n=7)
    assert s.total_time == 35
    assert s.to_single(0, 0) == 0
    assert s.to_single(2, 3) == 13
    assert s.to_stacked(13) == (2, 3)
    assert s.check() is True


def test_schedule_range_errors():
    s = InterleaveSchedule(N=3, n=4)
    with pytest.raises(ValueError):
        s.to_single(4, 0)
    with pytest.raises(ValueError):
        s.to_single(0, 3)
    with pytest.raises(ValueError):
        s.to_stacked(12)


def test_schedule_preserves_period_ordering():
    s = InterleaveSchedule(N=8, n=3)
    for t in range(1, 3):
        assert max(s.to_single(t - 1, l) for l in range(8)) < \
            min(s.to_single(t, l) for l in range(8))


# ---------------------------------------------------------------------------
# lift / destack exact equivalence

@pytest.mark.parametrize("recipe,net", [
    (uncoded_relay, relay_net()),
    (adaptive_feedback, feedback_net()),
])
def test_destack_reproduces_stacked_traces(recipe, net):
    policy, params = recipe(net, L=3)
    N = 4
    stacked = lift_code(policy, params, N)
    destacked, dparams = destack_code(stacked)
    sched = InterleaveSchedule(N, params.n)
    for j in range(25):
        rng = RngStream(100 + j)
        tr_s = run_stacked_block(net, stacked, rng)
        tr_d = run_block(net, destacked, dparams, rng)
        assert traces_match(tr_s, tr_d, sched)
        key = next(iter(net.demands))
        assert tr_s.distortion[key] == tr_d.distortion[key]
        assert np.array_equal(tr_s.recon[key], tr_d.recon[key])


def test_destacked_link_seeds_each_period_stream_once(monkeypatch):
    seeded = []
    uniform_streams = probkit.uniform_streams

    def counting(seed, stream_ids, size=None):
        stream_ids = list(stream_ids)
        seeded.extend(stream_ids)
        return uniform_streams(seed, stream_ids, size)

    net = relay_net()
    policy, params = uncoded_relay(net, L=3)
    N = 8
    stacked = lift_code(policy, params, N)
    destacked, dparams = destack_code(stacked)
    rng = RngStream(5)
    tr_s = run_stacked_block(net, stacked, rng)
    monkeypatch.setattr(probkit, "uniform_streams", counting)
    tr_d = run_block(net, destacked, dparams, rng)
    monkeypatch.undo()
    edge_streams = [s for s in seeded if s[:1] == ("edge",)]
    assert sorted(edge_streams) == [("edge", 0, t) for t in range(params.n)]
    assert traces_match(tr_s, tr_d, InterleaveSchedule(N, params.n))


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
    policy, params = recipe(net, L=L)
    N = 8
    stacked = lift_code(policy, params, N)
    destacked, dparams = destack_code(stacked)
    node_of = {id(enc): a for a, enc in stacked.encoders.items()}
    calls = []
    emit = LiftedEncoder.emit

    def counting(enc, t, *args):
        calls.append((node_of[id(enc)], t))
        return emit(enc, t, *args)

    for j in range(4):
        rng = RngStream(60 + j)
        tr_s = run_stacked_block(net, stacked, rng)
        del calls[:]
        monkeypatch.setattr(LiftedEncoder, "emit", counting)
        tr_d = run_block(net, destacked, dparams, rng)
        monkeypatch.undo()
        assert calls == [(a, t) for t in range(params.n) for a in net.nodes
                         if a in stacked.encoders]
        assert traces_match(tr_s, tr_d, InterleaveSchedule(N, params.n))
        fresh, _ = destack_code(lift_code(*recipe(net, L=L), N))
        tr_f = run_block(net, fresh, dparams, rng)
        assert same_io(tr_f.edge_io, tr_d.edge_io)
        assert tr_f.distortion.keys() == tr_d.distortion.keys()
        for key, d in tr_f.distortion.items():
            assert np.array_equal(d, tr_d.distortion[key])
        for key, recon in tr_f.recon.items():
            assert np.array_equal(recon, tr_d.recon[key])


def test_destack_preserves_kappa():
    policy, params = uncoded_relay(relay_net(), L=3)
    stacked = lift_code(policy, params, 6)
    _, dparams = destack_code(stacked)
    assert dparams.kappa == params.kappa
    assert dparams.L == 6 * params.L and dparams.n == 6 * params.n


def test_destack_trivial_single_layer():
    net = relay_net()
    policy, params = uncoded_relay(net, L=4)
    stacked = lift_code(policy, params, 1)
    destacked, dparams = destack_code(stacked)
    rng = RngStream(3)
    tr_s = run_stacked_block(net, stacked, rng)
    tr_d = run_block(net, destacked, dparams, rng)
    assert traces_match(tr_s, tr_d, InterleaveSchedule(1, params.n))


def test_stacked_foreign_edge_emission_rejected():
    """An encoder may only emit on edges its node feeds, in every mode."""
    class Meddler:
        def emit(self, t, u_full, received_all, rng):
            return {0: np.zeros(2, dtype=np.int64),
                    1: np.zeros(2, dtype=np.int64)}

    net = feedback_net()
    policy, params = adaptive_feedback(net, L=2)
    stacked = lift_code(policy, params, 2)
    stacked.encoders[1] = Meddler()  # node 1 feeds edge 1, not edge 0
    with pytest.raises(ArityMismatch):
        run_stacked_block(net, stacked, RngStream(0))


def test_schedule_check_raises_on_broken_schedule():
    class Reversed(InterleaveSchedule):
        def to_single(self, t, layer):
            return (self.n - 1 - t) * self.N + layer

    with pytest.raises(ValueError):
        Reversed(N=2, n=3).check()


def test_lifted_layers_are_independent():
    """Different layers of a lifted code see independent channel noise."""
    net = relay_net(p=0.5)
    policy, params = uncoded_relay(net, L=16)
    stacked = lift_code(policy, params, 2)
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
    policy, params = uncoded_relay(net, L=4)
    inner = lift_code(policy, params, 3)
    split = even_odd_split(inner, net.sources)
    assert split.N == 6
    tr = run_stacked_block(net, split, RngStream(2))
    assert tr.distortion[(0, 1)] == 0.0
    assert np.array_equal(tr.recon[(0, 1)], tr.u[0])


def test_parity_class_dependence_shrinks_with_block_length():
    chain = MarkovJoint((2,), [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
    rng = RngStream(5)
    tv_short = parity_class_dependence_tv(chain, 1, samples=8000, rng=rng)
    tv_long = parity_class_dependence_tv(chain, 32, samples=8000, rng=rng)
    assert tv_long < tv_short
    assert tv_long < 0.05
