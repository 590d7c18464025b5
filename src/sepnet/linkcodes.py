"""Per-link constructions for the noisy-link / bit-pipe equivalence: random
block channel codes that make a DMC emulate a bit-pipe, and likelihood-encoder
channel synthesis that makes a bit-pipe emulate a DMC in empirical
distribution.

Link behaviors fill the behaviors map of stacking.run_stacked_block. Their
handlers act on all T trials of a batch per stacked use, on netmodel's raw
links where one fits (a coded link sends its codewords through a stacked
DmcLink): payloads are (T, k) bit arrays, at most floor(N*R) bits per use on
a coded link and an aggregate pipe alike, and synthesized inputs (T, N)
symbol arrays. A synthesis code drawn from an RngBatch of B streams is B
codebooks, one per stream, held as one (B, M, N) array; its encoder pairs
word b with codebook b. This one code path serves the engine's synthesized
links, the induction check, lemma 1 and soft covering. ML decoding,
quantizing and likelihood encoding score words a TypeScorer.chunks chunk at
a time, the one rule that bounds their memory whatever the word count.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .infosolvers import blahut_capacity
from .netmodel import (ArityMismatch, BitPipe, BudgetOverflow, DmcChannel,
                       DmcLink, as_payload)
from .probkit import (JointPmf, Kernel, ProbVector, block_elements,
                      chunk_ranges, mean_stderr, mutual_information,
                      sample_many, sample_rows)

CODEBOOK_CAP_BITS = 22
DEFAULT_MARGIN = 0.05


class RateOutOfRange(ValueError):
    pass


class CodebookCapExceeded(ValueError):
    pass


def _log_kernel(matrix):
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(matrix, 1e-300))


def codebook_bits(N, R, cap_bits=CODEBOOK_CAP_BITS):
    """Index bits ceil(N*R) of a blocklength-N, rate-R codebook, checked
    against the cap before any codebook is drawn."""
    if not (np.isfinite(R) and R >= 0):
        raise RateOutOfRange("R must be finite and >= 0, got %r" % (R,))
    bits = int(np.ceil(N * R - 1e-12))
    if bits > cap_bits:
        raise CodebookCapExceeded("ceil(N*R)=%d exceeds cap %d" % (bits, cap_bits))
    return bits


# (x * _OCTET_BITS) >> 56 gathers bit 0 of byte i of x into bit i: the
# product's partial sums land on distinct bits, so none carries
_OCTET_BITS = np.uint64(0x0102040810204080)


def _pack(mask, word):
    """The bits of mask (..., N) as (..., W) words of dtype word, position i
    being bit i % w of word i // w for w-bit words. Each 8 positions, read
    as one little-endian uint64 of 0/1 bytes, are gathered into a byte by
    one integer product against powers of two."""
    n, size = mask.shape[-1], word.itemsize
    lead, count = mask.shape[:-1], max(1, -(-n // (8 * size)))
    if n % 8:
        mask = np.concatenate([mask, np.zeros(lead + (8 - n % 8,), bool)], -1)
    octets = np.ascontiguousarray(mask).view("<u8")
    gathered = octets * _OCTET_BITS
    packed = np.right_shift(gathered, 56, out=gathered).astype(np.uint8)
    if packed.shape[-1] < count * size:
        packed = np.concatenate([packed, np.zeros(
            lead + (count * size - packed.shape[-1],), np.uint8)], -1)
    return packed.view(word.newbyteorder("<"))


class TypeScorer:
    """Scores sum_i table[c_i, y_i] of every codeword c of codebook
    (..., M, N) against words y (..., N), as table[codebook, y[..., None,
    :]].sum(-1) would, from the joint type of (c, y).

    For each symbol a >= 1, the positions where a codeword holds a are
    packed into unsigned words once per codebook (_pack), and so are a
    word's positions of each symbol b >= 1. The joint count n(a, b), a, b
    >= 1, is the popcount of their AND, summed over words; the counts with
    a or b = 0 follow from the set sizes and N. Every count is an exact
    integer. The positions in each group j of equal-valued table cells are
    counted as c_j, and the scores are c_0 v_0 + c_1 v_1 + ... over the
    distinct values v_j, summed left to right in float64. Codewords of
    equal type, or on a BSC of equal Hamming distance, score bitwise equal,
    so argmax takes the lowest index on a tie.
    """

    def __init__(self, table, codebook):
        self.values, group = np.unique(table, return_inverse=True)
        cells = np.equal.outer(group.reshape(np.shape(table)),
                               np.arange(len(self.values))).astype(int)
        # c_j = N cells[0, 0, j] + sum_a |P_a| da[a][j] + sum_b |Q_b| db[b][j]
        #       + sum_ab n(a, b) dab[a][b][j], for P_a and Q_b the positions
        # of symbol a in a codeword and b in a word
        self._c00 = cells[0, 0].tolist()
        self._da = (cells[1:, 0] - cells[0, 0]).tolist()
        self._db = (cells[0, 1:] - cells[0, 0]).tolist()
        self._dab = (cells[1:, 1:] - cells[1:, :1] - cells[:1, 1:]
                     + cells[0, 0]).tolist()
        codebook = np.asarray(codebook)
        self.shape = codebook.shape
        # the smallest unsigned dtype of N bits; uint64 words beyond 64
        self._word = np.min_scalar_type((1 << min(self.shape[-1], 64)) - 1)
        self._packed = [_pack(codebook == a, self._word)
                        for a in range(1, len(cells))]
        self._sizes = [np.bitwise_count(p).sum(axis=-1, dtype=np.int32)
                       for p in self._packed]

    def scores(self, y):
        y = np.asarray(y)
        if y.size and (y.min() < 0 or y.max() > len(self._db)):
            raise ArityMismatch("words hold symbols outside [0, %d)"
                                % (len(self._db) + 1))
        masks = [y == b for b in range(1, len(self._db) + 1)]
        words = [_pack(mask, self._word)[..., None, :] for mask in masks]
        sizes = [mask.sum(axis=-1, dtype=np.int32)[..., None]
                 for mask in masks]
        out = np.empty(np.broadcast_shapes(y.shape[:-1] + (1,),
                                           self.shape[:-1]))
        # codewords a block at a time, so that the counts stay in cache
        step = max(1, block_elements() * out.shape[-1] // max(1, out.size))
        for m0 in range(0, out.shape[-1], step):
            self._score_block(out[..., m0:m0 + step],
                              slice(m0, m0 + step), words, sizes)
        return out

    def _score_block(self, out, m, words, word_sizes):
        """Scores of codewords m against the packed words into out."""
        n = self.shape[-1]
        # c_j for every group but the last, in place; the last holds the rest
        counts = [np.full(out.shape, n * c, np.int32) for c in self._c00[:-1]]

        def add(coefficients, x):
            for c, k in zip(counts, coefficients):
                for _ in range(abs(k)):
                    (np.add if k > 0 else np.subtract)(c, x, out=c)

        for coefficients, s in zip(self._da, self._sizes):
            add(coefficients, s[..., m])
        both = np.empty(out.shape, self._word)
        joint = np.empty(out.shape, np.int32)
        for b, (q, size) in enumerate(zip(words, word_sizes)):
            add(self._db[b], size)
            for a, p in enumerate(self._packed):
                for w in range(q.shape[-1] if any(self._dab[a][b]) else 0):
                    np.bitwise_and(p[..., m, w], q[..., w], out=both)
                    add(self._dab[a][b], np.bitwise_count(both, out=joint))
        last = np.full(out.shape, n, np.int32)
        for c in counts:
            last -= c
        counts.append(last)
        np.multiply(counts[0], self.values[0], out=out)
        for c, v in zip(counts[1:], self.values[1:]):
            out += c * v

    def chunks(self, ys):
        """Index i of each chunk ys[i] of words scored at once: words (T, N)
        against one codebook in chunk_ranges of 32 M elements per word, so a
        chunk's scores fill one block_elements() block; one word, or a
        batched code's words (its caller bounds its codebooks), go whole."""
        if np.ndim(ys) != 2 or len(self.shape) != 2:
            yield ...
            return
        for js in chunk_ranges(len(ys), 32 * self.shape[0]):
            yield slice(js.start, js.stop)

    def argmax(self, ys):
        """Best codeword index per word of ys (B, N), a chunk at a time."""
        ys = np.asarray(ys)
        out = np.empty(ys.shape[:-1], dtype=np.int64)
        for i in self.chunks(ys):
            out[i] = self.scores(ys[i]).argmax(axis=-1)
        return out


def bits_to_index(bits):
    """Pack bits (..., k) big-endian into message indices (...)."""
    bits = np.asarray(bits, dtype=np.int64)
    return ((bits & 1) << np.arange(bits.shape[-1] - 1, -1, -1)).sum(axis=-1)


def index_to_bits(idx, width):
    """The big-endian bits (..., width) of message indices idx (...)."""
    return (np.asarray(idx)[..., None] >> np.arange(width - 1, -1, -1)) & 1


@dataclass
class ChannelCode:
    """Random block code with maximum-likelihood decoding over the codebook."""
    N: int
    rate: float
    codebook: np.ndarray          # 2^ceil(N*rate) x N input symbols
    channel: Kernel
    input_law: ProbVector

    @property
    def payload_bits(self):
        """Whole bits per stacked use a rate-R pipe would carry."""
        return BitPipe(self.rate).budget(self.N)

    def encode(self, msg):
        return self.codebook[msg]

    @cached_property
    def scorer(self):
        return TypeScorer(_log_kernel(self.channel.matrix), self.codebook)

    def decode(self, y):
        """ML message index of one word, by decode_batch."""
        return int(self.decode_batch(np.asarray(y)[None, :])[0])

    def decode_batch(self, ys):
        """ML message index per word; the lowest index on an exact tie."""
        return self.scorer.argmax(ys)


def build_channel_code(channel, N, R, rng):
    """Codewords drawn i.i.d. per symbol from the capacity-achieving input
    law; requires R below capacity by DEFAULT_MARGIN."""
    cap = blahut_capacity(channel, tol=1e-9)
    if R > cap.capacity - DEFAULT_MARGIN:
        raise RateOutOfRange("R=%g above capacity %.6f minus margin %g"
                             % (R, cap.capacity, DEFAULT_MARGIN))
    codebook = rng.child("codebook").sample(cap.optimal_input.probs,
                                            (2 ** codebook_bits(N, R), N))
    return ChannelCode(N, R, codebook, channel, cap.optimal_input)


def estimate_error_prob(code, trials, rng):
    """Monte Carlo block error probability of the code on its own channel."""
    m = code.codebook.shape[0]
    g = rng.child("pe").generator()
    msgs = g.integers(0, m, size=trials)
    x = code.codebook[msgs]
    cums = np.cumsum(code.channel.matrix, axis=1)
    y = sample_rows(cums[x], g.random(x.shape))
    dec = code.decode_batch(y)
    return mean_stderr(dec != msgs)


@dataclass
class LinkCodeReport:
    p_e: dict                       # edge idx -> estimated block error prob
    n_edges: int
    d_max: float

    @property
    def p_e_max(self):
        return max(self.p_e.values()) if self.p_e else 0.0

    @property
    def excess_bound(self):
        return self.n_edges * self.p_e_max * self.d_max

    def to_json(self):
        return {"p_e": {str(k): v for k, v in self.p_e.items()},
                "p_e_max": self.p_e_max, "n_edges": self.n_edges,
                "d_max": self.d_max, "excess_bound": self.excess_bound}


def synthesis_code_bits(target_input, channel, N, R, enforce_margin=True):
    """Index bits ceil(N*R) of a synthesis codebook, after the rate-margin
    (DEFAULT_MARGIN above the mutual information) and codebook-cap checks."""
    mi = mutual_information(target_input, channel)
    if enforce_margin and R < mi + DEFAULT_MARGIN:
        raise RateOutOfRange("R=%g below I=%.6f plus margin %g"
                             % (R, mi, DEFAULT_MARGIN))
    return codebook_bits(N, R)


def log_posterior(target_input, channel):
    """log P(x | y) of the target joint, indexed [y, x]."""
    joint = JointPmf.from_input_channel(target_input, channel).table
    q_y = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = np.where(q_y[None, :] > 0, joint / np.maximum(q_y, 1e-300),
                        0.0)
    return _log_kernel(post.T)


def likelihood_weights(scorer, x):
    """Normalized likelihood-encoder weights prod_i P(x_i | y_i(w)) over the
    codebook indices w, from a TypeScorer of the log posterior over the
    codebooks. Batched: codebooks (..., M, N) and inputs (..., N) give
    weights (..., M)."""
    w = scorer.scores(x)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


@dataclass
class SynthesisCode:
    """Soft-covering codebook with a likelihood (posterior-weighting) encoder.

    Codewords are output sequences drawn i.i.d. from the target output
    marginal; the encoder picks index w with probability proportional to
    prod_i P(x_i | y_i(w)). A batched code holds B codebooks (B, M, N), one
    per stream of the RngBatch it was drawn from.
    """
    N: int
    rate: float
    codebook: np.ndarray           # ([B,] 2^ceil(N*rate), N) output symbols
    target_input: ProbVector
    channel: Kernel

    def target_joint(self):
        return JointPmf.from_input_channel(self.target_input, self.channel)

    @cached_property
    def scorer(self):
        return TypeScorer(log_posterior(self.target_input, self.channel),
                          self.codebook)

    def encode(self, x, rng):
        """Stochastic index selection, one uniform draw per stream: an index
        for a word x (N,) and a stream, or (T,) indices for words (T, N)
        and an RngBatch of T streams. A batched code of B codebooks takes
        words (B, N), word b scored against codebook b. Each chunk of
        TypeScorer.chunks draws with its slice of the one uniform draw."""
        x, u = np.asarray(x), np.asarray(rng.uniform())
        out = np.empty(u.shape, dtype=np.int64)
        for i in self.scorer.chunks(x):
            w = likelihood_weights(self.scorer, x[i])
            out[i] = sample_rows(np.cumsum(w, axis=-1, out=w), u[i])
            del w   # freed before the next chunk is scored
        return out[()]

    def synthesize(self, x, rng):
        """Map input words to the selected codewords' output words: (N,) or
        (T, N) as encode takes them; word b of a batched code selects from
        codebook b."""
        w = self.encode(x, rng)
        if self.codebook.ndim == 2:
            return self.codebook[w]
        return self.codebook[np.arange(len(w)), w]


def build_synthesis_code(target_input, channel, N, R, rng,
                         enforce_margin=True):
    """Codebook drawn i.i.d. from the output marginal of the target joint,
    from stream rng.child("codebook"). An RngBatch of B streams draws B
    codebooks, each the one its stream alone would draw, as a batched code.

    enforce_margin=False permits deliberately undersized rates for converse
    (below-mutual-information) experiments.
    """
    bits = synthesis_code_bits(target_input, channel, N, R, enforce_margin)
    q_y = JointPmf.from_input_channel(target_input, channel).marginal_y()
    codebook = rng.child("codebook").sample(q_y.probs, (2 ** bits, N))
    return SynthesisCode(N, R, codebook, target_input, channel)


def synthesized_type_tv(code, rng, samples=64):
    """Mean TV between the synthesized empirical type and the target joint
    over fresh i.i.d. input sequences: sample j reads its input from stream
    rng.child("sample", j, "x") and its encoder draw from ("sample", j, "w").
    All samples are synthesized in one call, which scores them
    TypeScorer.chunks at a time, and typed in one bincount."""
    target = code.target_joint().table
    r = rng.children("sample", range(samples))
    x = sample_many(code.target_input.probs, r.child("x").uniform(code.N))
    y = code.synthesize(x, r.child("w"))
    cell = (np.arange(len(r))[:, None] * target.size + x * target.shape[1]
            + y)
    counts = np.bincount(cell.reshape(-1), minlength=len(r) * target.size)
    return mean_stderr(0.5 * np.abs(counts.reshape(len(r), target.size)
                                    / code.N - target.reshape(-1)).sum(axis=1))


# ---------------------------------------------------------------------------
# stacked-engine link behaviors

class _PipeUseHandler:
    """One stacked use of N rate-R pipe copies: a (T, k) payload of at most
    cap = floor(N*R) bits, more being a BudgetOverflow on both sides of link
    replacement. carry(rng, t, bits) delivers a non-empty payload."""

    def __init__(self, e_idx, cap):
        self.e, self.cap = e_idx, cap

    def transmit(self, rng, t, payload):
        bits = as_payload(payload, (len(rng),), self.e)
        if bits.shape[1] > self.cap:
            raise BudgetOverflow("payload of %d bits exceeds %d per use on "
                                 "edge %d at t=%d"
                                 % (bits.shape[1], self.cap, self.e, t))
        return bits, (self.carry(rng, t, bits) if bits.shape[1] else bits)

    def carry(self, rng, t, bits):
        return bits


class _CodedLinkHandler(_PipeUseHandler):
    """A block channel code over N DMC copies, carrying payload_bits bits
    per stacked use; all trials' words of a use are decoded in one call."""

    def __init__(self, e_idx, code):
        super().__init__(e_idx, code.payload_bits)
        self.code = code
        self.link = DmcLink(e_idx, code.channel, code.N, True)

    def carry(self, rng, t, bits):
        k = bits.shape[1]
        _, y = self.link.transmit(rng, t,
                                  self.code.encode(bits_to_index(bits)))
        return index_to_bits(self.code.decode_batch(y) % (1 << k), k)


@dataclass
class CodedLinkBehavior:
    code: ChannelCode

    def make_handler(self, e_idx, edge, N):
        if not isinstance(edge.channel, DmcChannel):
            raise ValueError("channel coding applies to DMC edges")
        if self.code.N != N:
            raise ValueError("code blocklength %d != layer count %d"
                             % (self.code.N, N))
        return _CodedLinkHandler(e_idx, self.code)


class _SynthLinkHandler:
    """A bit-pipe (N copies) emulating a DMC: the N layer inputs at stacked
    time t are jointly encoded to an index of code_at(t), which selects the
    output codeword."""

    def __init__(self, e_idx, N, code_at):
        self.e, self.N, self.code_at = e_idx, N, code_at

    def transmit(self, rng, t, x_vec):
        x = np.asarray(x_vec, dtype=np.int64)
        if x.shape != (len(rng), self.N):
            raise ArityMismatch("synthesized edge %d expects %d layer inputs "
                                "per trial" % (self.e, self.N))
        code = self.code_at(t)
        return x, code.synthesize(x, rng.child("synthenc", self.e, t))


@dataclass
class SynthLinkBehavior:
    """A pipe edge's N copies synthesizing channel from target_input by
    rate-R codes: stacked time t draws its own from rng.child("code", t), so
    codes at distinct times are independent by construction (Lemma 1)."""
    target_input: ProbVector
    channel: Kernel
    R: float
    rng: object

    def make_handler(self, e_idx, edge, N):
        if not isinstance(edge.channel, BitPipe):
            raise ValueError("synthesis applies to bit-pipe edges")
        bits = synthesis_code_bits(self.target_input, self.channel, N, self.R)
        if bits > edge.channel.budget(N):
            raise RateOutOfRange("pipe rate %g cannot carry %d bits per use"
                                 % (edge.channel.rate, bits))
        return _SynthLinkHandler(e_idx, N, lambda t: build_synthesis_code(
            self.target_input, self.channel, N, self.R,
            self.rng.child("code", t)))


@dataclass
class AggregatePipeBehavior:
    """N rate-R pipe copies presented as one noiseless floor(N*R)-bits-per-use
    pipe, the same surface a coded DMC link exposes."""

    def make_handler(self, e_idx, edge, N):
        if not isinstance(edge.channel, BitPipe):
            raise ValueError("aggregate pipe behavior needs a BitPipe edge")
        return _PipeUseHandler(e_idx, edge.channel.budget(N))
