"""Named coding-policy constructors referenced by scenario files.

Encoders here are deterministic functions of (time, source block, history).
The de-stacking transform evaluates each stacked emission once per period,
but encoders must still be deterministic given the rng they are handed (any
randomized recipe derives per-time children from it), so that a stacked run
and its de-stacked equivalent agree.

Every encoder and decoder acts on a whole batch of trials at once (see
netmodel.CodingPolicy): the source block is (T, L), each history entry a
(T,) array of symbols, an emission a (T,) array and a reconstruction (T, L).
The bit-pipe recipes send and receive (T, k) bit payloads instead, one k per
step; a stacked code runs them unchanged, its block being (T, N*L) and each
payload carrying the bits of all N layers of a use.
"""

import numpy as np

from .linkcodes import TypeScorer, bits_to_index, index_to_bits
from .netmodel import CodeParameters, CodingPolicy, DmcChannel


class SendSourceSymbol:
    """Transmit u[t] on every outgoing edge at time t."""

    def __init__(self, out_edges):
        self.out_edges = list(out_edges)

    def emit(self, t, u_block, received, rng):
        return {e: u_block[:, t] for e in self.out_edges}


class EchoLastOutput:
    """Transmit the most recent symbol observed on a chosen incoming edge."""

    def __init__(self, out_edges, listen_edge):
        self.out_edges = list(out_edges)
        self.listen = listen_edge

    def emit(self, t, u_block, received, rng):
        hist = received.get(self.listen, [])
        sym = hist[-1] if hist else np.zeros(len(u_block), dtype=np.int64)
        return {e: sym for e in self.out_edges}


class FeedbackXorEncoder:
    """Adaptive: sends u[t] offset by the running sum of feedback symbols.

    Genuinely history-dependent, which is what the de-stacking equivalence
    tests need; decodability is not the point.
    """

    def __init__(self, out_edges, feedback_edge, alphabet=2):
        self.out_edges = list(out_edges)
        self.fb = feedback_edge
        self.k = alphabet

    def emit(self, t, u_block, received, rng):
        fb_sum = np.sum(received.get(self.fb, [])[:t], axis=0,
                        dtype=np.int64) if t else 0
        sym = (u_block[:, t] + fb_sum) % self.k
        return {e: sym for e in self.out_edges}


class ForwardDecoder:
    """Reconstruction = the symbols received on one edge, in order."""

    def __init__(self, edge, L):
        self.edge = edge
        self.L = L

    def decode(self, u_block, received, rng):
        return np.stack(received[self.edge][:self.L], axis=-1)


class ConstantDecoder:
    def __init__(self, symbol, L):
        self.symbol = int(symbol)
        self.L = L

    def decode(self, u_block, received, rng):
        return np.full((len(u_block), self.L), self.symbol, dtype=np.int64)


class DifferenceDecoder:
    """Undoes FeedbackXorEncoder assuming the receiver echoed its own
    observations: u_hat[t] = y[t] - sum of its own earlier echoes."""

    def __init__(self, edge, L, alphabet=2):
        self.edge = edge
        self.L = L
        self.k = alphabet

    def decode(self, u_block, received, rng):
        y = np.stack(received[self.edge][:self.L], axis=-1)
        # echo sums: sums[:, j] is the sum of y[:, :j], signed so that y -
        # sums does not wrap when y is a synthesized link's uint8 word
        sums = np.concatenate([np.zeros((len(y), 1), dtype=np.int64),
                               np.cumsum(y, axis=1, dtype=np.int64)], axis=1)
        return (y - sums[:, np.maximum(np.arange(y.shape[1]) - 1, 0)]) \
            % self.k


# ---------------------------------------------------------------------------
# bit-pipe recipes: forward and XOR (T, k) bit payloads

class SendBits:
    """Bits t*per_use to (t+1)*per_use of the node's source block on every
    out-edge at step t, and empty payloads once the block is sent."""

    def __init__(self, out_edges, per_use):
        self.out_edges = list(out_edges)
        self.per_use = per_use

    def emit(self, t, u_block, received, rng):
        bits = u_block[:, t * self.per_use:(t + 1) * self.per_use]
        return {e: bits for e in self.out_edges}


class XorRelay:
    """An empty payload at t = 0, then the XOR of the last payloads
    received on the in-edges, on every out-edge; one in-edge makes it a
    forwarding relay."""

    def __init__(self, in_edges, out_edges):
        self.in_edges = list(in_edges)
        self.out_edges = list(out_edges)

    def emit(self, t, u_block, received, rng):
        bits = u_block[:, :0] if not t else np.bitwise_xor.reduce(
            [received[e][-1] for e in self.in_edges])
        return {e: bits for e in self.out_edges}


class XorDecoder:
    """The XOR over the edges of the first L bits delivered on each, in
    order, zero-padded to L."""

    def __init__(self, edges, L):
        self.edges = list(edges)
        self.L = L

    def decode(self, u_block, received, rng):
        out = np.zeros((len(u_block), self.L), dtype=np.int64)
        for e in self.edges:
            bits = np.concatenate([u_block[:, :0]] + received[e],
                                  axis=1)[:, :self.L]
            out[:, :bits.shape[1]] ^= bits
        return out


# ---------------------------------------------------------------------------
# quantizer recipes: a codebook index as one bit payload

class QuantizeIndex:
    """At t = 0, the big-endian bits of the index of the codeword nearest
    the node's source block under distortion matrix d (the lowest index on
    a tie) on every out-edge, and empty payloads after."""

    def __init__(self, out_edges, codebook, d):
        self.out_edges = list(out_edges)
        self.scorer = TypeScorer(-np.asarray(d).T, codebook)
        self.width = (len(codebook) - 1).bit_length()

    def emit(self, t, u_block, received, rng):
        bits = u_block[:, :0] if t else index_to_bits(
            self.scorer.argmax(u_block), self.width)
        return {e: bits for e in self.out_edges}


class CodewordDecoder:
    """The codeword whose index the first payload on one edge carries."""

    def __init__(self, edge, codebook):
        self.edge = edge
        self.codebook = codebook

    def decode(self, u_block, received, rng):
        return self.codebook[bits_to_index(received[self.edge][0])]


def _first_demand(net):
    """The network's first demand (a, b); a ValueError if it has none."""
    if not net.demands:
        raise ValueError("the code recipe needs a demand, and the scenario's "
                         "\"demands\" is empty")
    return next(iter(net.demands))


def _first_edge(net, tail, head=None):
    """The first edge out of node tail (into node head, if given); a
    ValueError naming the edge if there is none."""
    for i in net.out_edges(tail):
        if head is None or net.edges[i].head == head:
            return i
    raise ValueError("the code recipe needs an edge %r -> %s, and the "
                     "network has none" % (tail, "any node" if head is None
                                           else repr(head)))


def uncoded_relay(net, L=1, a=None, b=None):
    """Point-to-point: send the source symbol, decode the received symbol."""
    (a, b) = _first_demand(net) if a is None else (a, b)
    e = _first_edge(net, a)
    return CodingPolicy(encoders={a: SendSourceSymbol([e])},
                        decoders={(a, b): ForwardDecoder(e, L)},
                        params=CodeParameters(L, L))


def constant_guess(net, L=1, symbol=0):
    (a, b) = _first_demand(net)
    e = _first_edge(net, a)
    return CodingPolicy(encoders={a: SendSourceSymbol([e])},
                        decoders={(a, b): ConstantDecoder(symbol, L)},
                        params=CodeParameters(L, L))


def adaptive_feedback(net, L=2):
    """Two-node, two-edge (a->b, b->a) adaptive code: node a offsets its
    transmission by accumulated feedback, node b echoes what it hears."""
    (a, b) = _first_demand(net)
    fwd, back = _first_edge(net, a, b), _first_edge(net, b, a)
    if not isinstance(net.edges[fwd].channel, DmcChannel):
        raise ValueError("adaptive_feedback sends symbols, so its edge %r -> "
                         "%r must be a dmc edge, not a bit-pipe" % (a, b))
    k = net.edges[fwd].channel.kernel.input_size
    return CodingPolicy(encoders={a: FeedbackXorEncoder([fwd], back, k),
                                  b: EchoLastOutput([back], fwd)},
                        decoders={(a, b): DifferenceDecoder(fwd, L, k)},
                        params=CodeParameters(L, L))


RECIPES = {
    "uncoded_relay": uncoded_relay,
    "constant_guess": constant_guess,
    "adaptive_feedback": adaptive_feedback,
}


def build_recipe(name, net, **params):
    if name not in RECIPES:
        raise ValueError("unknown code recipe %r" % (name,))
    return RECIPES[name](net, **params)
