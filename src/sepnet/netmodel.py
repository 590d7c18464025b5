"""Directed network of DMC / bit-pipe edges with jointly distributed sources,
causal coding policies, the time-stepped execution engine shared by
single-layer, stacked and de-stacked runs, and Monte Carlo distortion
estimation.

Timing model: at each step t (0-based) every node computes its channel inputs
simultaneously from outputs observed at strictly earlier steps. Every link,
DMC or bit-pipe, delivers its step-t output at step t, and it becomes visible
to encoders from step t+1 on.

Trial axis: the engine runs a batch of T independent trials at once, one per
stream of an RngBatch, and never loops over them. Every array it hands a
policy or gets back carries the trials on its leading axis: source blocks are
(T, L), a DMC use is (T,), a pipe payload (T, k) with one k per step, and a
run with a single RngStream is the batch of one.

Interleaving: a single-layer run of a CodingPolicy with N > 1 is the
de-stacked form of an N-layer code. Its step tau is layer tau % N of stacked
time tau // N, and its DMC noise is keyed so that it matches the stacked run
bit for bit (see the raw links below); a plain policy is N = 1.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .probkit import (Kernel, ProbVector, check_counts, chunk_ranges,
                      mean_stderr, sample_many, sample_rows)


class ArityMismatch(ValueError):
    pass


class BudgetOverflow(RuntimeError):
    """An encoder wrote more bits into a pipe than floor(t * rate) allows."""


@dataclass(frozen=True)
class DmcChannel:
    kernel: Kernel


@dataclass(frozen=True)
class BitPipe:
    rate: float  # bits per network use

    def budget(self, steps):
        """Whole bits deliverable within the first `steps` uses."""
        return int(np.floor(steps * self.rate + 1e-12))


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    channel: object  # DmcChannel | BitPipe


class IidJoint:
    """Jointly i.i.d. per-symbol source law over the product alphabet."""

    def __init__(self, alphabet_sizes, pmf):
        self.alphabet_sizes = tuple(int(a) for a in alphabet_sizes)
        self.pmf = pmf if isinstance(pmf, ProbVector) else ProbVector(pmf)
        if self.pmf.size != int(np.prod(self.alphabet_sizes)):
            raise ValueError("pmf size does not match product alphabet")

    def draw_block(self, length, rng):
        """(length, nodes) symbols from a stream; (T, length, nodes) from an
        RngBatch of T streams."""
        joint = sample_many(self.pmf.probs, rng.uniform(length))
        return np.stack(np.unravel_index(joint, self.alphabet_sizes), axis=-1)


class MarkovJoint:
    """A single Markov chain over the product alphabet; each node observes
    its own coordinate. The chain must be irreducible and aperiodic."""

    def __init__(self, alphabet_sizes, initial, transition):
        self.alphabet_sizes = tuple(int(a) for a in alphabet_sizes)
        self.initial = initial if isinstance(initial, ProbVector) else ProbVector(initial)
        self.transition = transition if isinstance(transition, Kernel) else Kernel(transition)
        k = int(np.prod(self.alphabet_sizes))
        if self.initial.size != k or self.transition.input_size != k \
                or self.transition.output_size != k:
            raise ValueError("chain dimensions do not match product alphabet")
        edges = [(i, j) for i in range(k) for j in range(k)
                 if self.transition.matrix[i, j] > 0]
        if not is_strongly_connected(range(k), edges):
            raise ValueError("transition matrix is not irreducible")
        if not is_aperiodic(range(k), edges):
            raise ValueError("transition matrix is periodic")

    def _chains(self, u):
        """One chain per row of uniforms u (..., length); returns the
        (..., length, num_nodes) coordinates."""
        rows = u.reshape(-1, u.shape[-1])
        cums = np.cumsum(self.transition.matrix, axis=1)
        states = np.empty(rows.shape, dtype=np.int64)
        s = sample_many(self.initial.probs, rows[:, 0])
        states[:, 0] = s
        for i in range(1, rows.shape[1]):
            s = sample_rows(cums[s], rows[:, i])
            states[:, i] = s
        coords = np.unravel_index(states.reshape(-1), self.alphabet_sizes)
        return np.stack(coords, axis=-1).reshape(u.shape + (-1,))

    def draw_block(self, length, rng):
        """One chain per stream: (length, nodes) from a stream, (T, length,
        nodes) from an RngBatch. A shape (count, length) from a stream is
        count chains, (count, length, nodes)."""
        return self._chains(rng.uniform(length))


@dataclass(frozen=True)
class CodeParameters:
    L: int  # source symbols per block
    n: int  # channel uses per block

    def __post_init__(self):
        if self.L < 1 or self.n < 1:
            raise ValueError("L and n must be positive integers")

    @property
    def kappa(self):
        return self.L / self.n


@dataclass
class CodingPolicy:
    """Per-node encoders and per-demand decoders, acting on all trials of a
    batch at once.

    Encoders implement emit(t, u_block, received, rng) -> {edge_idx: (T,)
    symbol array | (T, k) bit payload}; decoders implement decode(u_block_b,
    received, rng) -> (T, L) reconstruction array. u_block is the node's
    (T, L) source block, rng an RngBatch of the T trials' streams, and
    `received` maps incoming edge index to the list over earlier steps of
    per-step output arrays, each with the trials on its leading axis.
    params are the block's L and n. N is the layer count of a de-stacked
    N-layer code (see Interleaving in the module docstring) and 1 for any
    other policy.
    """
    encoders: dict
    decoders: dict
    params: CodeParameters
    N: int = 1


@dataclass(frozen=True)
class NetworkSpec:
    nodes: tuple                      # node ids, order fixes matrix indexing
    edges: tuple                      # Edge instances
    demands: dict                     # (a, b) -> distortion matrix (ndarray)
    sources: object                   # IidJoint | MarkovJoint

    def node_index(self, node_id):
        return self.nodes.index(node_id)

    def in_edges(self, node_id):
        return [i for i, e in enumerate(self.edges) if e.head == node_id]

    def out_edges(self, node_id):
        return [i for i, e in enumerate(self.edges) if e.tail == node_id]

    @property
    def d_max(self):
        if not self.demands:
            return 0.0
        return max(float(np.asarray(d).max()) for d in self.demands.values())


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    detail: dict

    def __str__(self):
        return "%s %r" % (self.kind, self.detail)


def validate_spec(net):
    """Machine-readable diagnostics; empty list iff the spec is well formed."""
    out = []
    ids = set(net.nodes)
    for i, e in enumerate(net.edges):
        if e.tail not in ids or e.head not in ids:
            out.append(Diagnostic("BadEndpoint", {"edge": i}))
        if e.tail == e.head:
            out.append(Diagnostic("SelfLoop", {"edge": i}))
        if isinstance(e.channel, DmcChannel):
            rows = np.asarray(e.channel.kernel.matrix)
            ok = np.isfinite(rows).all(axis=1) & \
                (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
            for r in np.where(~ok)[0]:
                out.append(Diagnostic("InvalidKernel", {"edge": i, "row": int(r)}))
        elif isinstance(e.channel, BitPipe):
            if not e.channel.rate > 0:
                out.append(Diagnostic("NonPositiveRate", {"edge": i}))
            elif not np.isfinite(e.channel.rate):
                out.append(Diagnostic("NonFiniteRate", {"edge": i}))
    sizes = dict(zip(net.nodes, net.sources.alphabet_sizes))
    if len(net.sources.alphabet_sizes) != len(net.nodes):
        out.append(Diagnostic("AlphabetCount", {
            "alphabets": len(net.sources.alphabet_sizes),
            "nodes": len(net.nodes)}))
    arcs = [(e.tail, e.head) for e in net.edges]
    for (a, b), d in net.demands.items():
        d = np.asarray(d, dtype=float)
        if d.ndim != 2:
            out.append(Diagnostic("DistortionNotMatrix",
                                  {"demand": (a, b), "shape": d.shape}))
        elif len(d) != sizes.get(a, len(d)):
            out.append(Diagnostic("DistortionRows", {
                "demand": (a, b), "rows": len(d), "alphabet": sizes[a]}))
        if not np.all(np.isfinite(d)):
            out.append(Diagnostic("InfiniteDistortion", {"demand": (a, b)}))
        if np.any(d < 0):
            out.append(Diagnostic("NegativeDistortion", {"demand": (a, b)}))
        if a not in ids or b not in ids:
            out.append(Diagnostic("BadEndpoint", {"demand": (a, b)}))
        elif a != b and b not in bfs_levels(arcs, a):
            out.append(Diagnostic("UnreachableDemand", {"a": a, "b": b}))
    return out


def bfs_levels(arcs, start):
    """Breadth-first distance from start to every node reachable along the
    directed arcs (pairs (u, v)); start itself is at level 0."""
    succ = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
    level, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def is_strongly_connected(nodes, arcs):
    """Every node reaches the first one and is reached from it."""
    nodes = list(nodes)
    return all(set(nodes) <= bfs_levels(a, nodes[0]).keys()
               for a in (arcs, [(v, u) for u, v in arcs]))


def is_aperiodic(nodes, arcs):
    """A strongly connected digraph is aperiodic iff the gcd of
    level(u) + 1 - level(v) over its arcs is 1, with BFS levels from any
    node."""
    level = bfs_levels(arcs, next(iter(nodes)))
    return reduce(math.gcd, (level[u] + 1 - level[v] for u, v in arcs),
                  0) == 1


@dataclass
class TraceRecord:
    """One batch of T trials of a block, each array with the trials on its
    leading axis."""
    u: dict                 # node id -> (T, L) source block
    edge_io: dict           # edge idx -> list over t of (x, y) arrays
    recon: dict             # (a, b) -> (T, L) reconstruction
    distortion: dict        # (a, b) -> (T,) per-block average distortion


def _block_distortion(d, u_block, recon):
    """Each trial row's average distortion; a reconstruction symbol with no
    column in the demand matrix d is an ArityMismatch."""
    d = np.asarray(d, dtype=float)
    if recon.min() < 0 or recon.max() >= d.shape[1]:
        raise ArityMismatch("reconstruction symbols outside the %d columns "
                            "of the distortion matrix" % d.shape[1])
    return d[u_block, recon].mean(axis=-1)


# ---------------------------------------------------------------------------
# raw links: what an edge does when no link code replaces it
#
# A link presents transmit(rng, t, x) -> (x, y) for all T trials of a batch
# at once: the input it took and the output it delivers, which the engine
# records and shows the receiver. rng is their RngBatch. A link built with
# stacked=True carries N layer uses per call: t is the stacked time and x one
# input per trial and layer, (T, N). Otherwise it carries one use per call of
# an N-fold interleaved run (N = 1 for a plain single-layer run): t is the
# single-layer time tau, which is layer tau % N at stacked time tau // N, and
# x is (T,).
#
# Noise keying: layer l at stacked time t draws entry l of the stream
# rng.child("edge", e, t), so a stacked run and its de-stacked equivalent see
# the same channel realizations bit for bit. Both draw a period's N entries
# at its first use and keep them for its later layers; a stacked use is the
# whole period t, every layer at once. The link codes in linkcodes are built
# on these links, so the ("edge", e, t) key is read only here.

def as_payload(p, lead, e):
    """A pipe payload as an int64 array of shape lead + (k,), one k for every
    trial (and layer); no payload is k = 0. Any other shape, a ragged one
    included, is an ArityMismatch."""
    if p is None:
        return np.zeros(lead + (0,), dtype=np.int64)
    try:
        p = np.asarray(p, dtype=np.int64)
    except (ValueError, TypeError):
        p = None
    if p is None or p.shape[:-1] != lead or p.ndim != len(lead) + 1:
        raise ArityMismatch("pipe edge %d expects payloads of shape %r + (k,)"
                            % (e, lead))
    return p


def stack_arrays(arrays, axis, what):
    """np.stack, with arrays of unequal shapes (or missing ones) an
    ArityMismatch naming what they are."""
    try:
        return np.stack(arrays, axis=axis)
    except (ValueError, TypeError):
        raise ArityMismatch("%s differ in shape" % what) from None


class DmcLink:
    def __init__(self, e_idx, kernel, N, stacked):
        self.e = e_idx
        self.N = N
        self.layers = (N,) if stacked else ()
        self.cums = np.cumsum(kernel.matrix, axis=1)
        self._period, self._u = None, None   # the kept draw of a period

    def transmit(self, rng, t, x):
        if x is None:
            raise ArityMismatch("no input for DMC edge %d at t=%d"
                                % (self.e, t))
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (len(rng),) + self.layers:
            raise ArityMismatch("DMC edge %d expects inputs of shape %r"
                                % (self.e, (len(rng),) + self.layers))
        if x.min() < 0 or x.max() >= len(self.cums):
            raise ArityMismatch("DMC edge %d takes input symbols in [0, %d)"
                                % (self.e, len(self.cums)))
        period, layer = ((t, slice(None)) if self.layers
                         else divmod(t, self.N))
        if period != self._period:
            self._period = period
            self._u = rng.child("edge", self.e, period).uniform(self.N)
        y = sample_rows(self.cums[x], self._u[:, layer])
        return x, y


class PipeLink:
    def __init__(self, e_idx, pipe, N, stacked):
        self.e = e_idx
        self.pipe = pipe
        self.layers = (N,) if stacked else ()
        self.sent = 0   # bits per trial and layer so far

    def transmit(self, rng, t, payload):
        bits = as_payload(payload, (len(rng),) + self.layers, self.e)
        self.sent += bits.shape[-1]
        if self.sent > self.pipe.budget(t + 1):
            raise BudgetOverflow("edge %d exceeded floor(t*rate) bits "
                                 "by t=%d" % (self.e, t + 1))
        return bits, bits


def raw_link(e_idx, edge, N, stacked):
    if isinstance(edge.channel, DmcChannel):
        return DmcLink(e_idx, edge.channel.kernel, N, stacked)
    return PipeLink(e_idx, edge.channel, N, stacked)


# ---------------------------------------------------------------------------
# the engine

def run_steps(net, code, links, n, length, rng):
    """The one step loop: n network uses of `code` over the per-edge `links`,
    then decoding of source blocks of `length` symbols, for every trial of
    the RngBatch rng at once.

    Single-layer, stacked and de-stacked blocks all run here; they differ
    only in the link objects and the block length.
    """
    raw = net.sources.draw_block(length, rng.child("src"))
    u_block = {a: raw[..., i].copy() for i, a in enumerate(net.nodes)}
    in_edges = {a: net.in_edges(a) for a in net.nodes}
    rx = {i: [] for i in range(len(net.edges))}   # receiver-visible outputs
    edge_io = {i: [] for i in range(len(net.edges))}

    for t in range(n):
        emissions = {}
        for a in net.nodes:
            enc = code.encoders.get(a)
            if enc is None:
                continue
            visible = {i: rx[i][:t] for i in in_edges[a]}
            em = enc.emit(t, u_block[a], visible, rng.child("node", a))
            for i in em:
                if net.edges[i].tail != a:
                    raise ArityMismatch("node %r emitted on edge %d it does "
                                        "not feed" % (a, i))
            emissions[a] = em
        for i, e in enumerate(net.edges):
            x = emissions.get(e.tail, {}).get(i)
            x_rec, y = links[i].transmit(rng, t, x)
            edge_io[i].append((x_rec, y))
            rx[i].append(y)

    recon, dist = {}, {}
    for (a, b), dec in code.decoders.items():
        full = {i: list(rx[i]) for i in in_edges[b]}
        recon[a, b] = np.asarray(dec.decode(u_block[b], full,
                                            rng.child("dec", a, b)))
        if recon[a, b].shape != (len(rng), length):
            raise ArityMismatch("decoder for %r returned wrong block length"
                                % ((a, b),))
        dist[a, b] = _block_distortion(net.demands[(a, b)], u_block[a],
                                       recon[a, b])
    return TraceRecord(u_block, edge_io, recon, dist)


def run_block(net, code, rng):
    """Execute one single-layer coding block of code.params.n network uses
    and decode, for every trial of an RngBatch (a single RngStream is a
    batch of one). The policy's N sets the interleaving its channel noise
    keys to.
    """
    links = [raw_link(i, e, code.N, False) for i, e in enumerate(net.edges)]
    return run_steps(net, code, links, code.params.n, code.params.L,
                     rng.batch())


def trial_elements(net, uses, length):
    """Array elements one trial of a block holds, about: `uses` per edge
    (N*n for N stacked layers) and a `length`-symbol block per node."""
    return uses * len(net.edges) + length * len(net.nodes)


def trial_batches(rng, trials, elements):
    """The RngBatch of rng.child("trial", j) for j < trials, cut by
    chunk_ranges into chunks of trials holding `elements` each. Every trial
    keeps its own streams, so results cannot depend on the cut."""
    check_counts(trials=trials)
    for js in chunk_ranges(trials, elements):
        yield rng.children("trial", js)


@dataclass
class DistortionMatrix:
    values: np.ndarray      # m x m, indexed by position in net.nodes
    stderr: np.ndarray
    trials: int
    nodes: tuple = field(default=())

    def to_json(self):
        return {"nodes": list(self.nodes),
                "matrix": self.values.tolist(),
                "stderr": self.stderr.tolist(),
                "trials": self.trials}


def estimate_trials(run, trials, rng, elements):
    """Mean and standard error over independent trials of each per-trial
    array run(batch) returns by key; trial j runs on stream
    rng.child("trial", j), and run(batch) runs a whole trial_batches chunk
    of them at once."""
    per_trial = {}
    for batch in trial_batches(rng, trials, elements):
        for k, v in run(batch).items():
            per_trial.setdefault(k, []).append(v)
    return {k: mean_stderr(np.concatenate(v)) for k, v in per_trial.items()}


def estimate_distortion(net, code, trials, rng):
    """Mean per-demand block distortion over independent trials, with
    standard errors. Non-demanded pairs are identically zero."""
    est = estimate_trials(lambda r: run_block(net, code, r).distortion,
                          trials, rng,
                          trial_elements(net, code.params.n, code.params.L))
    m = len(net.nodes)
    mean, stderr = np.zeros((m, m)), np.zeros((m, m))
    for (a, b), (v, se) in est.items():
        ia, ib = net.node_index(a), net.node_index(b)
        mean[ia, ib], stderr[ia, ib] = v, se
    return DistortionMatrix(mean, stderr, trials, tuple(net.nodes))
