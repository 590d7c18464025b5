import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet.netmodel import (ArityMismatch, BitPipe, BudgetOverflow,
                             CodeParameters, CodingPolicy, DmcChannel, Edge,
                             IidJoint, MarkovJoint, NetworkSpec, bfs_levels,
                             estimate_distortion, is_aperiodic,
                             is_strongly_connected, run_block, validate_spec)
from sepnet.probkit import Kernel, RngStream
from sepnet.recipes import adaptive_feedback, build_recipe, uncoded_relay
from sepnet.stacking import (StackedCode, estimate_stacked_distortion,
                             lift_code, run_stacked_block)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def same_io(io1, io2):
    """Two TraceRecord.edge_io dicts hold equal (x, y) arrays."""
    return io1.keys() == io2.keys() and all(
        len(io1[e]) == len(io2[e]) and all(
            np.array_equal(a, b) for p1, p2 in zip(io1[e], io2[e])
            for a, b in zip(p1, p2))
        for e in io1)


def line_net(channel, nodes=(0, 1)):
    return NetworkSpec(nodes, (Edge(nodes[0], nodes[1], channel),),
                       {(nodes[0], nodes[1]): HAMMING},
                       IidJoint((2, 1), [0.5, 0.5]))


# ---------------------------------------------------------------------------
# sources

def test_iid_joint_validates_and_draws():
    with pytest.raises(ValueError):
        IidJoint((2, 2), [0.5, 0.5])
    src = IidJoint((2, 3), [0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
    block = src.draw_block(1000, RngStream(0))
    assert block.shape == (1000, 2)
    assert block[:, 0].max() <= 1 and block[:, 1].max() <= 2


def test_markov_joint_rejects_reducible_chain():
    with pytest.raises(ValueError):
        MarkovJoint((2,), [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        MarkovJoint((2,), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])


def test_markov_joint_marginal_frequencies():
    chain = MarkovJoint((2,), [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
    block = chain.draw_block(20000, RngStream(3))
    # symmetric chain: stationary marginal is uniform
    assert abs(block.mean() - 0.5) < 0.03
    # sticky transitions: consecutive symbols agree about 90% of the time
    agree = (block[1:, 0] == block[:-1, 0]).mean()
    assert abs(agree - 0.9) < 0.02


def test_markov_draw_block_of_a_shape_is_that_many_chains():
    """A (count, length) shape from one stream is count chains, each the
    chain its row of the stream's uniforms draws."""
    chain = MarkovJoint((2,), [0.5, 0.5], [[0.7, 0.3], [0.2, 0.8]])
    many = chain.draw_block((5, 16), RngStream(9))
    assert many.shape == (5, 16, 1)
    rows = RngStream(9).uniform((5, 16))
    for j in range(5):
        assert np.array_equal(many[j], chain._chains(rows[j]))


# ---------------------------------------------------------------------------
# validation

def test_validate_spec_clean():
    assert validate_spec(line_net(DmcChannel(Kernel.bsc(0.1)))) == []


def test_validate_spec_diagnostics():
    bad_kernel = Kernel.bsc(0.1)
    bad_kernel.matrix.flags.writeable = True
    bad_kernel.matrix[0, 0] = 0.5  # row 0 now sums to 0.6
    net = NetworkSpec(
        (0, 1, 2),
        (Edge(0, 0, BitPipe(0.5)),
         Edge(0, 9, BitPipe(-1.0)),
         Edge(0, 1, DmcChannel(bad_kernel))),
        {(0, 2): HAMMING, (0, 1): np.array([[0.0, np.inf], [-1.0, 0.0]])},
        IidJoint((2, 1, 1), [0.5, 0.5]))
    kinds = sorted(d.kind for d in validate_spec(net))
    assert kinds == ["BadEndpoint", "InfiniteDistortion", "InvalidKernel",
                     "NegativeDistortion", "NonPositiveRate", "SelfLoop",
                     "UnreachableDemand"]


def test_validate_spec_flags_non_finite_links():
    nan_kernel = Kernel.bsc(0.1)
    nan_kernel.matrix.flags.writeable = True
    nan_kernel.matrix[1, 0] = np.nan
    net = NetworkSpec(
        (0, 1, 2),
        (Edge(0, 1, DmcChannel(nan_kernel)), Edge(1, 2, BitPipe(np.inf)),
         Edge(1, 2, BitPipe(np.nan))),
        {(0, 2): HAMMING}, IidJoint((2, 1, 1), [0.5, 0.5]))
    assert [(d.kind, d.detail) for d in validate_spec(net)] == [
        ("InvalidKernel", {"edge": 0, "row": 1}),
        ("NonFiniteRate", {"edge": 1}),
        ("NonPositiveRate", {"edge": 2})]


def test_validate_spec_checks_sections_against_each_other():
    """One source alphabet per node, and per demand (a, b) a 2-D
    distortion matrix with a row per symbol of node a's alphabet."""
    edges = (Edge(0, 1, BitPipe(1.0)), Edge(1, 2, BitPipe(1.0)))
    two_nodes = IidJoint((2, 1), [0.5, 0.5])
    net = NetworkSpec((0, 1, 2), edges, {(0, 2): HAMMING}, two_nodes)
    assert [(d.kind, d.detail) for d in validate_spec(net)] == [
        ("AlphabetCount", {"alphabets": 2, "nodes": 3})]
    ternary = IidJoint((3, 1, 1), [0.4, 0.3, 0.3])
    net = NetworkSpec((0, 1, 2), edges,
                      {(0, 2): HAMMING, (0, 1): np.array([0.0, 1.0, 1.0])},
                      ternary)
    assert [(d.kind, d.detail) for d in validate_spec(net)] == [
        ("DistortionRows", {"demand": (0, 2), "rows": 2, "alphabet": 3}),
        ("DistortionNotMatrix", {"demand": (0, 1), "shape": (3,)})]


@st.composite
def small_digraphs(draw):
    k = draw(st.integers(1, 6))
    arcs = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                   st.integers(0, k - 1)),
                         unique=True, max_size=k * k))
    return k, arcs


@settings(max_examples=300, deadline=None)
@given(small_digraphs(), st.data())
def test_graph_checks_agree_with_networkx(graph, data):
    nx = pytest.importorskip("networkx")
    k, arcs = graph
    g = nx.DiGraph()
    g.add_nodes_from(range(k))
    g.add_edges_from(arcs)
    strong = is_strongly_connected(range(k), arcs)
    assert strong == nx.is_strongly_connected(g)
    if strong:
        assert is_aperiodic(range(k), arcs) == nx.is_aperiodic(g)
    a = data.draw(st.integers(0, k - 1))
    b = data.draw(st.integers(0, k - 1))
    assert (b in bfs_levels(arcs, a)) == nx.has_path(g, a, b)


def test_cli_import_does_not_load_networkx():
    code = "import sys, sepnet.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_markov_joint_rejects_periodic_chain():
    with pytest.raises(ValueError, match="periodic"):
        MarkovJoint((2,), [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    MarkovJoint((2,), [0.5, 0.5], [[0.0, 1.0], [0.5, 0.5]])


def test_d_max():
    net = line_net(DmcChannel(Kernel.bsc(0.1)))
    assert net.d_max == 1.0


# ---------------------------------------------------------------------------
# run_block semantics

def test_noiseless_relay_zero_distortion():
    net = line_net(DmcChannel(Kernel.identity(2)))
    policy = uncoded_relay(net, L=32)
    tr = run_block(net, policy, RngStream(5))
    assert tr.distortion[(0, 1)] == 0.0
    assert np.array_equal(tr.recon[(0, 1)], tr.u[0])


def test_bsc_relay_matches_crossover():
    net = line_net(DmcChannel(Kernel.bsc(0.11)))
    policy = uncoded_relay(net, L=16)
    dm = estimate_distortion(net, policy, 3000, RngStream(1))
    i, j = net.node_index(0), net.node_index(1)
    val, se = dm.values[i, j], dm.stderr[i, j]
    assert abs(val - 0.11) <= 3 * se
    assert (dm.values[j, i], dm.stderr[j, i]) == (0.0, 0.0)


def test_constant_decoder_analytic():
    net = line_net(DmcChannel(Kernel.bsc(0.11)))
    policy = build_recipe("constant_guess", net, L=16)
    dm = estimate_distortion(net, policy, 3000, RngStream(1))
    i, j = net.node_index(0), net.node_index(1)
    val, se = dm.values[i, j], dm.stderr[i, j]
    # guessing 0 against Bern(1/2): expected Hamming distortion 1/2
    assert abs(val - 0.5) <= 3 * se


def test_replay_is_bit_identical():
    net = line_net(DmcChannel(Kernel.bsc(0.3)))
    policy = uncoded_relay(net, L=64)
    t1 = run_block(net, policy, RngStream(77))
    t2 = run_block(net, policy, RngStream(77))
    assert same_io(t1.edge_io, t2.edge_io)
    assert np.array_equal(t1.recon[(0, 1)], t2.recon[(0, 1)])


def test_causality_encoder_sees_strict_past():
    seen = []

    class Probe:
        def emit(self, t, u_block, received, rng):
            seen.append(len(received[1]))
            return {0: u_block[:, t]}

    class Sink:
        def decode(self, u_block, received, rng):
            return np.zeros((len(u_block), 4), dtype=np.int64)

    net = NetworkSpec((0, 1),
                      (Edge(0, 1, DmcChannel(Kernel.identity(2))),
                       Edge(1, 0, DmcChannel(Kernel.identity(2)))),
                      {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))

    class Echo:
        def emit(self, t, u_block, received, rng):
            return {1: received[0][-1] if received[0]
                    else np.zeros(len(u_block), dtype=np.int64)}

    policy = CodingPolicy(encoders={0: Probe(), 1: Echo()},
                          decoders={(0, 1): Sink()},
                          params=CodeParameters(4, 4))
    run_block(net, policy, RngStream(0))
    assert seen == [0, 1, 2, 3]


def test_edges_draw_independent_noise():
    class Both:
        def emit(self, t, u_block, received, rng):
            zeros = np.zeros(len(u_block), dtype=np.int64)
            return {0: zeros, 1: zeros}

    class Sink:
        def decode(self, u_block, received, rng):
            return np.zeros((len(u_block), 64), dtype=np.int64)

    net = NetworkSpec((0, 1),
                      (Edge(0, 1, DmcChannel(Kernel.bsc(0.5))),
                       Edge(0, 1, DmcChannel(Kernel.bsc(0.5)))),
                      {(0, 1): HAMMING}, IidJoint((2, 1), [0.5, 0.5]))
    policy = CodingPolicy(encoders={0: Both()}, decoders={(0, 1): Sink()},
                          params=CodeParameters(64, 64))
    tr = run_block(net, policy, RngStream(8))
    y0 = np.stack([y for _, y in tr.edge_io[0]])
    y1 = np.stack([y for _, y in tr.edge_io[1]])
    assert not np.array_equal(y0, y1)


def test_encoder_cannot_emit_on_foreign_edge():
    class Rogue:
        def emit(self, t, u_block, received, rng):
            return {0: 0, 1: 0}

    net = NetworkSpec((0, 1, 2),
                      (Edge(0, 1, DmcChannel(Kernel.identity(2))),
                       Edge(1, 2, DmcChannel(Kernel.identity(2)))),
                      {(0, 2): HAMMING}, IidJoint((2, 1, 1), [0.5, 0.5]))
    policy = CodingPolicy(encoders={0: Rogue()}, decoders={},
                          params=CodeParameters(2, 2))
    with pytest.raises(ArityMismatch):
        run_block(net, policy, RngStream(0))


def test_silent_dmc_edge_is_an_error():
    net = line_net(DmcChannel(Kernel.identity(2)))
    policy = CodingPolicy(encoders={}, decoders={},
                          params=CodeParameters(2, 2))
    with pytest.raises(ArityMismatch):
        run_block(net, policy, RngStream(0))


def test_decoder_block_length_checked():
    class Short:
        def decode(self, u_block, received, rng):
            return np.zeros(3, dtype=np.int64)

    net = line_net(DmcChannel(Kernel.identity(2)))
    policy = uncoded_relay(net, L=8)
    policy = CodingPolicy(encoders=policy.encoders,
                          decoders={(0, 1): Short()}, params=policy.params)
    with pytest.raises(ArityMismatch):
        run_block(net, policy, RngStream(0))


@pytest.mark.parametrize("symbol", [-1, 2])
@pytest.mark.parametrize("layers", [1, 3])
def test_dmc_input_outside_the_kernel_rows_is_an_arity_mismatch(symbol,
                                                                 layers):
    """-1 would read the kernel's last row and 2 no row at all, single-layer
    and stacked alike."""
    class Sender:
        def emit(self, t, u_block, received, rng):
            lead = (len(u_block),) if layers == 1 else (len(u_block), layers)
            return {0: np.full(lead, symbol)}

    net = line_net(DmcChannel(Kernel.bsc(0.1)))
    policy = CodingPolicy(encoders={0: Sender()}, decoders={},
                          params=CodeParameters(1, 1))
    rng = RngStream(0).children("trial", range(2))
    with pytest.raises(ArityMismatch, match=r"symbols in \[0, 2\)"):
        if layers == 1:
            run_block(net, policy, rng)
        else:
            run_stacked_block(net, StackedCode(policy.encoders, {}, layers,
                                               policy.params), rng)


@pytest.mark.parametrize("symbol", [-1, 2])
def test_reconstruction_outside_the_matrix_columns_is_an_arity_mismatch(
        symbol):
    class Guess:
        def decode(self, u_block, received, rng):
            return np.full((len(u_block), 2), symbol)

    net = line_net(DmcChannel(Kernel.identity(2)))
    policy = uncoded_relay(net, L=2)
    policy = CodingPolicy(encoders=policy.encoders,
                          decoders={(0, 1): Guess()}, params=policy.params)
    with pytest.raises(ArityMismatch, match="outside the 2 columns"):
        run_block(net, policy, RngStream(0))


# ---------------------------------------------------------------------------
# bit pipes

class PipeTalker:
    def __init__(self, bits_per_use):
        self.k = bits_per_use

    def emit(self, t, u_block, received, rng):
        return {0: np.ones((len(u_block), self.k), dtype=np.int64)}


def flat_bits(u_block, payloads, L):
    """The first L bits of each trial's payloads, padded with 0."""
    pad = np.zeros((len(u_block), L), dtype=np.int64)
    return np.concatenate(payloads + [pad], axis=1)[:, :L]


class PipeListener:
    def __init__(self, L):
        self.L = L

    def decode(self, u_block, received, rng):
        return flat_bits(u_block, received[0], self.L)


def test_pipe_budget_is_cumulative_floor():
    net = line_net(BitPipe(0.5))
    policy = CodingPolicy(encoders={0: PipeTalker(1)},
                          decoders={(0, 1): PipeListener(4)},
                          params=CodeParameters(4, 4))
    with pytest.raises(BudgetOverflow):
        # 1 bit per use exceeds floor(t * 0.5) immediately
        run_block(net, policy, RngStream(0))

    class HalfRate:
        def emit(self, t, u_block, received, rng):
            return {0: np.ones((len(u_block), t % 2), dtype=np.int64)}

    policy = CodingPolicy(encoders={0: HalfRate()},
                          decoders={(0, 1): PipeListener(4)},
                          params=CodeParameters(4, 8))
    tr = run_block(net, policy, RngStream(0))
    assert sum(x.shape[1] for x, _ in tr.edge_io[0]) == 4


def test_pipe_delivers_same_step_by_default():
    net = line_net(BitPipe(1.0))
    policy = CodingPolicy(encoders={0: PipeTalker(1)},
                          decoders={(0, 1): PipeListener(4)},
                          params=CodeParameters(4, 4))
    tr = run_block(net, policy, RngStream(0))
    assert np.array_equal(tr.recon[(0, 1)], [[1, 1, 1, 1]])


def test_estimate_distortion_rejects_zero_trials():
    net = line_net(DmcChannel(Kernel.identity(2)))
    policy = uncoded_relay(net, L=2)
    with pytest.raises(ValueError):
        estimate_distortion(net, policy, 0, RngStream(0))
    with pytest.raises(ValueError):
        estimate_stacked_distortion(net, lift_code(policy, 2), 0,
                                    RngStream(0))


FEEDBACK_NET = NetworkSpec((0, 1),
                           (Edge(0, 1, DmcChannel(Kernel.bsc(0.11))),
                            Edge(1, 0, DmcChannel(Kernel.bsc(0.1)))),
                           {(0, 1): HAMMING},
                           IidJoint((2, 2), [0.25, 0.25, 0.25, 0.25]))


@pytest.mark.parametrize("recipe,net", [
    (uncoded_relay, line_net(DmcChannel(Kernel.bsc(0.11)))),
    (adaptive_feedback, FEEDBACK_NET),
])
def test_run_block_is_the_one_layer_stacked_run(recipe, net):
    """A single-layer block is the N = 1 stacked block: same source, same
    channel noise, same reconstruction."""
    policy = recipe(net, L=5)
    stacked = lift_code(policy, 1)
    for j in range(10):
        rng = RngStream(50 + j)
        tr = run_block(net, policy, rng)
        tr_s = run_stacked_block(net, stacked, rng)
        for e, seq in tr_s.edge_io.items():
            assert same_io({e: [(x[:, 0], y[:, 0]) for x, y in seq]},
                           {e: tr.edge_io[e]})
        for k in net.demands:
            assert np.array_equal(tr.recon[k], tr_s.recon[k])
            assert tr.distortion[k] == tr_s.distortion[k]
