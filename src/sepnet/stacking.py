"""Stacked-network machinery: run stacked codes, lift a single-layer code to
N independent layers, de-stack an N-layer code into an interleaved
single-layer equivalent, and the even/odd layer split for sources with
memory.

Layer/time indexing is 0-based throughout, and two rules carry the
construction. Interleaving: layer l at stacked time t runs at single-layer
time tau = t*N + l, so (t, l) = divmod(tau, N) and every stacked-time-(t-1)
observation lands strictly before every stacked-time-t emission. Copies:
lifting and the even/odd split both run independent copies of a code on
groups of layers; lift_code gives copy l the layer l, even_odd_split gives
class c the layers c, c + 2, ..., and one encoder/decoder pair serves both.

Noise coupling: one keying rule covers every run. The use of a DMC edge e
at single-layer time tau of an N-fold interleaved run reads entry tau mod N
of the stream child("edge", e, tau // N); the stacked run draws all N entries
of child("edge", e, t) at stacked time t, and a plain single-layer run is the
N = 1 case. Every DmcLink draws a period's N entries once, at its first use
(a stacked use is a whole period), so coupled seeds reproduce the stacked
run's channel realizations bit for bit; a de-stacked encoder keeps its
period's stacked emission the same way. All three runs go through the one
step loop, netmodel.run_steps, and every code carries its per-layer block
parameters as code.params. run_stacked_block(net, code, rng, behaviors)
takes N from code.N and swaps the edges named in behaviors for link codes;
a de-stacked block is run_block(net, destack_code(stacked), rng), whose
CodingPolicy N is the layer count it interleaves.

Every run carries a batch of T trials on the leading axis of its arrays (see
netmodel): a stacked DMC use is (T, N), a stacked pipe payload (T, N, k), and
the copies and de-stacked codes slice and stack layers along axis 1.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import (CodeParameters, CodingPolicy, estimate_trials,
                       raw_link, run_steps, stack_arrays, trial_elements)
from .probkit import check_counts


@dataclass
class StackedCode:
    """An N-layer code: encoders see all layers' outputs at earlier stacked
    times plus the full length-N*L source block; decoders see all layers.

    Stacked encoders implement emit(t, u_full, received_all, rng) ->
    {edge_idx: (T, N) symbols | (T, N, k) layer bit payloads | (T, k)
    payload}, where u_full is the (T, N*L) source block and received_all[e]
    the list over earlier stacked times of per-step output arrays. Decoders
    implement decode(u_full_b, received_all, rng) -> (T, N*L).
    """
    encoders: dict
    decoders: dict
    N: int
    params: CodeParameters  # per-layer block parameters


# ---------------------------------------------------------------------------
# stacked execution

def run_stacked_block(net, code, rng, behaviors=None):
    """Execute one stacked coding block: n uses of the code.N-layer network.

    behaviors maps edge index to an object exposing make_handler(e_idx,
    edge, N); missing entries get the raw per-layer channel.
    """
    N, behaviors = code.N, behaviors or {}
    links = [behaviors[i].make_handler(i, e, N) if i in behaviors
             else raw_link(i, e, N, True) for i, e in enumerate(net.edges)]
    return run_steps(net, code, links, code.params.n, N * code.params.L,
                     rng.batch())


def estimate_stacked_distortion(net, code, trials, rng, behaviors=None):
    """Per-demand (mean, stderr) of the stacked block distortion."""
    return estimate_trials(
        lambda r: run_stacked_block(net, code, r, behaviors).distortion,
        trials, rng,
        trial_elements(net, code.N * code.params.n, code.N * code.params.L))


# ---------------------------------------------------------------------------
# independent copies on layer groups: lifting and the even/odd split

class _Copies:
    """Independent copies of one encoder or decoder of a code, copy j on the
    layers groups[j] of an N-layer block: one layer (an int), whose copy
    sees single-layer arrays, or several (a slice), whose copy sees them as
    its own layers. Copy j sees only its layers' source blocks and history
    and draws from rng.child(label, j)."""

    def __init__(self, base, L, N, groups, label):
        self.base, self.L, self.N, self.label = base, L, N, label
        self.groups = list(groups)
        layers = [np.arange(N)[g] for g in self.groups]
        self.shape = np.shape(layers[0])   # a copy's layer axes: () or (k,)
        # layer order of the copies' outputs stacked copy by copy
        self.order = np.argsort(np.concatenate(layers, axis=None))

    def view(self, u_full, received_all, j):
        """Copy j's source blocks, (T, L) per layer in order, and history."""
        g, T = self.groups[j], len(u_full)
        return (u_full.reshape(T, self.N, self.L)[:, g].reshape(T, -1),
                {e: [obs[:, g] for obs in seq]
                 for e, seq in received_all.items()})

    def merge(self, parts, what):
        """The copies' outputs, each (T,) + shape + rest, in layer order:
        (T, N) + rest."""
        merged = stack_arrays(parts, 1, what)
        rest = merged.shape[2 + len(self.shape):]
        return merged.reshape((len(merged), self.N) + rest)[:, self.order]


class CopiesEncoder(_Copies):
    def emit(self, t, u_full, received_all, rng):
        em = [self.base.emit(t, *self.view(u_full, received_all, j),
                             rng.child(self.label, j))
              for j in range(len(self.groups))]
        return {e: self.merge([m.get(e) for m in em],
                              "copy emissions on edge %d" % e)
                for e in {e for m in em for e in m}}


class CopiesDecoder(_Copies):
    def decode(self, u_full, received_all, rng):
        r = [self.base.decode(*self.view(u_full, received_all, j),
                              rng.child(self.label, j))
             for j in range(len(self.groups))]
        merged = self.merge([np.reshape(x, (len(x),) + self.shape + (-1,))
                             for x in r], "copy reconstructions")
        return merged.reshape(len(merged), -1)


def _copies(code, N, groups, label):
    check_counts(N=N)
    return StackedCode(
        encoders={a: CopiesEncoder(enc, code.params.L, N, groups, label)
                  for a, enc in code.encoders.items()},
        decoders={k: CopiesDecoder(dec, code.params.L, N, groups, label)
                  for k, dec in code.decoders.items()},
        N=N, params=code.params)


def lift_code(code, N):
    """Run the same single-layer code independently in each of the N
    layers, on the l-th source sub-block, from stream child("layer", l)."""
    return _copies(code, N, range(N), "layer")


def even_odd_split(stacked):
    """Code even-numbered layers together and odd-numbered layers together.

    The given N-layer code runs once per parity class, from stream
    child("class", c); class c carries source blocks c, c+2, c+4, ... as its
    layers and sees only its own layers' history. Returns a 2N-layer code.
    Meant for sources with memory (the construction is the identity
    statistically for i.i.d. sources).
    """
    return _copies(stacked, 2 * stacked.N,
                   (slice(0, None, 2), slice(1, None, 2)), "class")


def parity_class_dependence_tv(source, L, rng, num_blocks=4, samples=20000):
    """Dependence left inside one parity class, as a total variation.

    Takes node 0's first source symbol in each of `num_blocks` consecutive
    even-class blocks (blocks 0, 2, 4, ...), estimates their joint law by
    Monte Carlo, and returns its TV distance to the product of the estimated
    marginals. Near 0 when blocks of length L have mixed; large when L is
    too short for the chain's memory.
    """
    if num_blocks < 2:
        raise ValueError("num_blocks must be >= 2, got %r" % (num_blocks,))
    check_counts(L=L, samples=samples)
    length = (2 * (num_blocks - 1)) * L + 1
    draws = source.draw_block((samples, length), rng.child("mixing"))
    positions = [2 * j * L for j in range(num_blocks)]
    symbols = draws[:, positions, 0]  # (samples, num_blocks)
    k = source.alphabet_sizes[0]
    flat = np.ravel_multi_index(tuple(symbols.T), (k,) * num_blocks)
    joint = np.bincount(flat, minlength=k ** num_blocks) / samples
    marg = [np.bincount(symbols[:, j], minlength=k) / samples
            for j in range(num_blocks)]
    prod = marg[0]
    for mj in marg[1:]:
        prod = np.multiply.outer(prod, mj)
    return 0.5 * float(np.abs(joint - prod.reshape(-1)).sum())


# ---------------------------------------------------------------------------
# de-stacking: the interleaved single-layer equivalent

def _regroup(received_single, N):
    """Single-layer histories regrouped into their complete periods, each
    stacking N layer outputs on axis 1."""
    return {e: [stack_arrays(seq[t * N:(t + 1) * N], 1,
                             "outputs of edge %d in period %d" % (e, t))
                for t in range(len(seq) // N)]
            for e, seq in received_single.items()}


class DestackedEncoder:
    """Replays layer-l stacked-time-t emissions at single-layer time t*N+l.

    The stacked encoder only ever sees full earlier periods, which is what
    makes the interleaving legal, so its period-t emission is already fixed
    at the period's first time t*N. It is evaluated there once and kept for
    the period's later layers; outputs observed during the period are
    buffered but never read. The encoder object is reused across blocks, so
    every period's first time evaluates afresh.
    """

    def __init__(self, stacked_enc, N):
        self.enc, self.N = stacked_enc, N
        self._em = None   # the current period's stacked emission

    def emit(self, tau, u_full, received_single, rng):
        t, layer = divmod(tau, self.N)
        if layer == 0:
            self._em = self.enc.emit(t, u_full,
                                     _regroup(received_single, self.N), rng)
        return {e: v[:, layer] for e, v in self._em.items()}


class DestackedDecoder:
    def __init__(self, stacked_dec, N):
        self.dec, self.N = stacked_dec, N

    def decode(self, u_full, received_single, rng):
        return self.dec.decode(u_full, _regroup(received_single, self.N), rng)


def destack_code(stacked):
    """The interleaved single-layer equivalent of an N-layer code.

    Returns a policy with that N over blocks of N*L source symbols and N*n
    channel uses; kappa is preserved exactly. Run it through run_block with
    the stacked run's streams so channel noise couples with the stacked run.
    """
    N, p = stacked.N, stacked.params
    return CodingPolicy(
        encoders={a: DestackedEncoder(enc, N)
                  for a, enc in stacked.encoders.items()},
        decoders={k: DestackedDecoder(dec, N)
                  for k, dec in stacked.decoders.items()},
        params=CodeParameters(N * p.L, N * p.n), N=N)


def _rows_equal(a, b):
    """Per trial row, whether a and b agree in shape and in every entry."""
    if a.shape != b.shape:
        return np.zeros(len(a), dtype=bool)
    return (a == b).reshape(len(a), -1).all(axis=1)


def traces_match(stacked_trace, single_trace):
    """Per trial row, True iff every per-edge (x, y) of layer l at stacked
    time t equals the single-layer one at time t*N + l, N being the layer
    axis (axis 1) of the stacked trace."""
    ok = np.ones(len(next(iter(stacked_trace.u.values()))), dtype=bool)
    for e, seq in stacked_trace.edge_io.items():
        flat = single_trace.edge_io[e]
        for t, (xv, yv) in enumerate(seq):
            N = xv.shape[1]
            for l in range(N):
                x1, y1 = flat[t * N + l]
                ok &= _rows_equal(xv[:, l], x1) & _rows_equal(yv[:, l], y1)
    return ok
