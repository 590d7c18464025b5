"""Finite-alphabet probability primitives: distributions, kernels, information
measures in bits, and hierarchically keyed RNG streams, one at a time or a
batch of trials at once."""

import hashlib
from itertools import product
from math import prod

import numpy as np

PROB_TOL = 1e-9
# elements per array in the batched kernels, cut by chunk_ranges: the 32 M
# per word of TypeScorer.chunks (the one word-chunk rule of all scoring),
# codebook symbols per lemma-1 trial chunk, and the engine's trial chunks
# (16 MiB of float64); block_elements cuts a thirty-second of it
CHUNK_ELEMENTS = 2 ** 21


class DimensionMismatch(ValueError):
    pass


class InvalidDistribution(ValueError):
    pass


def _as_prob_array(obj):
    if isinstance(obj, ProbVector):
        return obj.probs
    return np.asarray(obj, dtype=float)


def _probabilities(values, ndim=1, per_row=False):
    """values as a read-only, nonempty ndim-d float array of probabilities:
    finite, none below -PROB_TOL and summing to 1 within PROB_TOL (each row,
    per_row), then clipped at 0."""
    p = np.array(values, dtype=float)
    if p.ndim != ndim or p.size == 0:
        raise InvalidDistribution("expected a nonempty %d-d array" % ndim)
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("non-finite probability entry")
    if np.any(p < -PROB_TOL):
        raise InvalidDistribution("negative probability entry")
    sums = p.sum(axis=-1) if per_row else p.sum()
    if np.any(np.abs(sums - 1.0) > PROB_TOL):
        raise InvalidDistribution("entries sum to %s, not 1" % sums)
    np.clip(p, 0.0, None, out=p)
    p.setflags(write=False)
    return p


class _Frozen:
    """Immutable once __init__ has set its slot with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class ProbVector(_Frozen):
    """A probability distribution over a finite alphabet.

    Entries must be finite, nonnegative and sum to 1 within PROB_TOL.
    Immutable.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        object.__setattr__(self, "probs", _probabilities(probs))

    def __len__(self):
        return self.probs.size

    def __getitem__(self, i):
        return float(self.probs[i])

    def __repr__(self):
        return "ProbVector(%s)" % np.array2string(self.probs, separator=", ")

    @property
    def size(self):
        return self.probs.size

    @staticmethod
    def uniform(k):
        return ProbVector(np.full(k, 1.0 / k))

    def to_json(self):
        return [float(v) for v in self.probs]


class Kernel(_Frozen):
    """A conditional law p(y|x): one probability row per input symbol."""

    __slots__ = ("matrix",)

    def __init__(self, rows):
        rows = [_as_prob_array(r) for r in rows]
        if len({r.shape for r in rows}) != 1:
            raise DimensionMismatch("kernel needs at least one row, all of "
                                    "one width")
        object.__setattr__(self, "matrix",
                           _probabilities(rows, 2, per_row=True))

    @property
    def input_size(self):
        return self.matrix.shape[0]

    @property
    def output_size(self):
        return self.matrix.shape[1]

    def __repr__(self):
        return "Kernel(%s)" % np.array2string(self.matrix, separator=", ")

    @staticmethod
    def identity(k):
        return Kernel(np.eye(k))

    @staticmethod
    def bsc(p):
        """Binary symmetric channel with crossover probability p."""
        return Kernel([[1.0 - p, p], [p, 1.0 - p]])

    @staticmethod
    def bec(eps):
        """Binary erasure channel; output alphabet (0, erasure, 1)."""
        return Kernel([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])

    def to_json(self):
        return [[float(v) for v in row] for row in self.matrix]


class JointPmf(_Frozen):
    """A joint distribution over X x Y stored as a matrix."""

    __slots__ = ("table",)

    def __init__(self, table):
        object.__setattr__(self, "table", _probabilities(table, 2))

    @classmethod
    def from_input_channel(cls, p_x, channel):
        """Build p(x,y) = p(x) p(y|x)."""
        p = _as_prob_array(p_x)
        if p.size != channel.input_size:
            raise DimensionMismatch("input law does not match kernel rows")
        return cls(p[:, None] * channel.matrix)

    def marginal_y(self):
        return ProbVector(self.table.sum(axis=0))


def entropy(p):
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    probs = _as_prob_array(p)
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(input_law, channel):
    """I(X;Y) in bits for X ~ input_law passed through the kernel."""
    p = _as_prob_array(input_law)
    if p.size != channel.input_size:
        raise DimensionMismatch("input law does not match kernel")
    q = p @ channel.matrix  # output marginal
    h_y = entropy(q)
    h_y_given_x = float(sum(p[x] * entropy(channel.matrix[x])
                            for x in range(channel.input_size) if p[x] > 0))
    return max(h_y - h_y_given_x, 0.0)


_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _stream_keys(seed, stream_ids):
    """The 32-byte keys streams are seeded from, joined: blake2b of the repr
    of each (masked seed, stream id tuple). A batch with a key template
    fills it with each stream's indices instead (bytes % (j, k, ...)), which
    makes the same text, so no id tuple is made or repr'd."""
    text = stream_ids._template() if isinstance(stream_ids, RngBatch) else None
    if text is None:
        texts = (repr((seed, tuple(i))).encode() for i in stream_ids)
    else:
        text = b"(%d, (" % seed + text + b"))"
        texts = (text % row for row in product(*stream_ids._levels))
    return b"".join(hashlib.blake2b(t, digest_size=32).digest()
                    for t in texts)


def _entropy(key):
    """SeedSequence entropy for a stream key. Streams are seeded from the
    int the key encodes little-endian; its uint32 words are the same entropy
    and faster to pass, except when the top word is 0: the int drops high
    zero words, so such a key is passed as the int."""
    words = np.frombuffer(key, "<u4")
    return words if words[-1] else int.from_bytes(key, "little")


class RngStream:
    """A reproducible random stream keyed by (seed, hierarchical stream id).

    Identical (seed, stream_id) pairs replay identical draw sequences;
    distinct stream ids behave independently. The generator is created
    lazily so children are cheap to mint.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed, stream_id=()):
        self.seed = int(seed) & _SEED_MASK
        self.stream_id = tuple(stream_id)
        self._gen = None

    def child(self, *labels):
        return RngStream(self.seed, self.stream_id + labels)

    def children(self, label, indices):
        """The batch of child(label, j) for j in indices."""
        return self.batch().children(label, indices)

    def batch(self):
        """This stream as a batch of one."""
        return RngBatch(self.seed, (self.stream_id,))

    def generator(self):
        if self._gen is None:
            ss = np.random.SeedSequence(
                _entropy(_stream_keys(self.seed, [self.stream_id])))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def uniform(self, size=None):
        return self.generator().random(size)

    def sample(self, p, size=None):
        """sample_many(p, self.uniform(size)), bit for bit, in the smallest
        unsigned dtype that holds len(p) - 1. The uniforms are drawn
        block_elements() at a time by successive random() calls, which
        continue one sequence, and sampled straight into the result."""
        out = np.empty(() if size is None else tuple(np.atleast_1d(size)),
                       _symbol_dtype(len(p)))
        flat, step, sample = out.reshape(-1), block_elements(), _sampler(p)
        for lo in range(0, flat.size, step):
            sample(flat[lo:lo + step],
                   self.generator().random(min(step, flat.size - lo)))
        return out[()]

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%r)" % (self.seed, self.stream_id)


# numpy's SeedSequence constants. Its hash constant starts at a fixed value
# and is multiplied by a fixed factor at each hash, so hash k uses the
# data-independent pair _HASH_A[k], _HASH_A[k + 1]: 32 hashes mix 8 entropy
# words into the pool, and _HASH_B serves the 8 output words likewise.
def _hash_consts(init, mult, n):
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


_HASH_A = _hash_consts(0x43b0d7e5, 0x931e8875, 32)
_HASH_B = _hash_consts(0x8b51f9dd, 0x58f38ded, 8)
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


def _seed_words(ent):
    """SeedSequence(_entropy(key)).generate_state(4, np.uint64) for each
    row of ent, a (B, 8) array of 32-byte keys as little-endian uint32
    words; returns a (B, 4) array. This is numpy's pool mixing of 8 entropy
    words into a pool of 4, run over all keys at once and held as a (4, B)
    array: the 4 first hashes are one operation, so are each source word's
    hashes mixed into the pool words it feeds, and the 8 output words; the
    hash constants go in numpy's order. A key whose top word is 0 has fewer
    entropy words and is seeded one at a time."""
    a, a_next = _HASH_A[:-1, None], _HASH_A[1:, None]

    def hashmix(v, k, count):    # hash k + i of v, or of its row i
        v = (v ^ a[k:k + count]) * a_next[k:k + count]
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    pool, k = hashmix(ent.T[:4], 0, 4), 4
    for src in range(8):
        dst = [d for d in range(4) if d != src]   # every pool word from 4 on
        source = pool[src] if src < 4 else ent[:, src]
        pool[dst] = mix(pool[dst], hashmix(source, k, len(dst)))
        k += len(dst)
    v = (pool[[0, 1, 2, 3] * 2] ^ _HASH_B[:-1, None]) * _HASH_B[1:, None]
    words = np.ascontiguousarray((v ^ (v >> 16)).T).view("<u8")
    for i in np.flatnonzero(ent[:, 7] == 0):
        words[i] = np.random.SeedSequence(
            _entropy(ent[i].tobytes())).generate_state(4, np.uint64)
    return words


# numpy's PCG64 (O'Neill 2014): a 128-bit LCG whose step is state *
# _PCG_MULT + inc mod 2**128 and whose draw is the XSL-RR output of the
# stepped state. An array of 128-bit numbers is held as a (hi, lo) pair of
# uint64 arrays; uint64 arithmetic wraps mod 2**64, as each word needs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & _SEED_MASK)
_MULT_LO0, _MULT_LO1 = _MULT_LO & 0xFFFFFFFF, _MULT_LO >> 32
_LOW32 = np.uint64(0xFFFFFFFF)
# B streams of n draws each step all at once when B >= 32 n. Stepping at
# once costs a fixed set of array operations per draw, seeding numpy's
# generator a fixed cost per stream. They break even below B = 8 n for
# n <= 48 and near 32 n at n = 128. numpy draws long streams faster than
# the array arithmetic, so at n = 512 stepping at once is still 3 times
# slower at B = 32 n; chunks of at most CHUNK_ELEMENTS draws only reach
# B >= 32 n for n <= 256.
_STEP_ALL_STREAMS_PER_DRAW = 32


def block_elements():
    """Elements per block of the kernels that stream an array through the
    cache a block at a time: the float draws a sampling call holds at once,
    and the joint-type counts TypeScorer.scores makes at once. It is
    CHUNK_ELEMENTS // 32, read when it is called."""
    return max(1, CHUNK_ELEMENTS // 32)


def _symbol_dtype(k):
    """The smallest unsigned dtype that holds the symbols 0 .. k - 1."""
    return np.min_scalar_type(max(k - 1, 0))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * _PCG_MULT + (inc_hi, inc_lo) mod 2**128. The high word of
    lo * _MULT_LO is summed from products of 32-bit limbs."""
    lo0, lo1 = lo & _LOW32, lo >> 32
    p01, p10 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (lo0 * _MULT_LO0 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = (lo1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo


def _pcg64_seed(words):
    """The (state, inc) that numpy's PCG64 holds once seeded with each row
    of words, a (B, 4) uint64 array of generate_state(4, np.uint64) seed
    words (initstate high and low, initseq high and low): inc = initseq << 1
    | 1 and state = (initstate + inc) * _PCG_MULT + inc, returned as the
    (B,) arrays state_hi, state_lo, inc_hi, inc_lo."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    lo = s_lo + inc_lo
    hi, lo = _pcg_step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg64_uniforms(words, out, sample=np.copyto):
    """sample(out, draws) for the first n draws of Generator(PCG64) seeded
    with words[i] into row i of out, a (B, n) array; by default the draws
    themselves. Each block of draws is sampled as soon as it is made, so no
    more than one block of them exists at a time.

    From B >= 32 n on, every stream steps at once in uint64 arithmetic and
    each draw is (XSL-RR output >> 11) * 2**-53, as Generator.random makes
    it; a block is one column. Fewer, longer streams set their state, one
    stream after another, on one PCG64 made for the call and fill blocks of
    at most block_elements() draws: whole rows, or pieces of one row when a
    row is longer, successive random() calls continuing its sequence."""
    hi, lo, inc_hi, inc_lo = _pcg64_seed(words)
    B, n = out.shape
    if B >= _STEP_ALL_STREAMS_PER_DRAW * n:
        for j in range(n):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> 58
            sample(out[:, j], (((x >> rot) | (x << ((64 - rot) & 63))) >> 11)
                   * 2.0 ** -53)
        return
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
             "uinteger": 0}
    states = [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
    incs = [h << 64 | l for h, l in zip(inc_hi.tolist(), inc_lo.tolist())]
    width = min(n, block_elements())
    rows = max(1, block_elements() // n)   # whole rows per block; one if wider
    buf = np.empty((min(rows, B), width))
    for r0 in range(0, B, rows):
        for c0 in range(0, n, width):    # one piece unless a row is wider
            piece = buf[:min(rows, B - r0), :min(width, n - c0)]
            for row, s, i in zip(piece, states[r0:r0 + rows],
                                 incs[r0:r0 + rows]):
                if not c0:
                    pcg["state"], pcg["inc"] = s, i
                    gen.bit_generator.state = state
                gen.random(out=row)
            sample(out[r0:r0 + rows, c0:c0 + width], piece)


def _draw_streams(seed, stream_ids, size, dtype, sample=np.copyto):
    """One draw per stream id of shape size into a (number of ids,) + size
    array of dtype, through _pcg64_uniforms. The streams' keys are made
    once (_stream_keys), their seed words mixed in one vectorized pass and
    turned into PCG64 states in another."""
    seed = int(seed) & _SEED_MASK
    ent = np.frombuffer(_stream_keys(seed, stream_ids), "<u4").reshape(-1, 8)
    shape = () if size is None else tuple(np.atleast_1d(size))
    out = np.empty((len(ent),) + shape, dtype)
    if out.size:
        _pcg64_uniforms(_seed_words(ent), out.reshape(len(ent), -1), sample)
    return out


def uniform_streams(seed, stream_ids, size=None):
    """[RngStream(seed, i).uniform(size) for i in stream_ids] as one array of
    shape (number of ids,) + the shape of size, bit for bit; stream_ids may
    be any iterable of stream ids."""
    return _draw_streams(seed, stream_ids, size, float)


_SLOT = object()   # where a batch's labels hold the index of a level


class RngBatch:
    """A batch of RngStreams with one seed: RngStream(seed, prefix + labels)
    for each prefix and each combination (j, k, ...) of the index levels,
    the slots of labels holding j, k, ... . Streams run over the prefixes,
    then each level in turn, and iterating a batch lists their ids.

    child(*labels) and children(label, indices) only extend the labels and
    levels, so they are cheap to mint. uniform(size) and sample(p, size) are
    every stream's uniform(size) and sample(p, size) as one (len(batch),) +
    size array, bit for bit. The keys of one prefix and exact-int indices
    fill one template (_template); others are repr'd id by id.
    """

    __slots__ = ("seed", "prefixes", "labels", "_levels")

    def __init__(self, seed, prefixes, labels=()):
        self.seed = int(seed) & _SEED_MASK
        self.prefixes = tuple(prefixes)
        self.labels = tuple(labels)
        self._levels = ()

    def __len__(self):
        return len(self.prefixes) * prod(map(len, self._levels))

    def __iter__(self):
        for prefix, *index in product(self.prefixes, *self._levels):
            index = iter(index)
            yield prefix + tuple(next(index) if label is _SLOT else label
                                 for label in self.labels)

    def child(self, *labels):
        batch = RngBatch(self.seed, self.prefixes, self.labels + labels)
        batch._levels = self._levels
        return batch

    def children(self, label, indices):
        """child(label, j) of every stream, for each j in indices in turn."""
        batch = self.child(label, _SLOT)
        batch._levels += (tuple(indices),)
        return batch

    def batch(self):
        return self

    def _template(self):
        """repr((seed, id)) less '(seed, (' and '))' as utf-8, with %d at
        each index and '%' doubled; None unless one prefix, int levels."""
        if len(self.prefixes) != 1 or not self._levels or any(
                type(j) is not int for level in self._levels for j in level):
            return None
        return ", ".join("%d" if label is _SLOT else
                         repr(label).replace("%", "%%")
                         for label in self.prefixes[0] + self.labels).encode()

    def uniform(self, size=None):
        return uniform_streams(self.seed, self, size)

    def sample(self, p, size=None):
        """sample_many(p, self.uniform(size)), bit for bit, in the smallest
        unsigned dtype that holds len(p) - 1; each block of uniforms is
        sampled into it as soon as it is drawn."""
        return _draw_streams(self.seed, self, size, _symbol_dtype(len(p)),
                             _sampler(p))


def sample_many(p, uniforms):
    """Vectorized inverse-cdf sampling given precomputed uniforms in [0,1).

    Each draw is the count of the K - 1 inner cumulative weights <= u * total,
    as in sample_rows: the same integer as searchsorted(side="right") clipped
    to K - 1, since cumulative sums of nonnegative weights never decrease.
    The result has the shape of uniforms (a scalar for a scalar)."""
    out = np.empty(np.shape(uniforms), np.intp)
    _sampler(p)(out, np.asarray(uniforms))
    return out[()]


def _sampler(p):
    """sample(out, u): sample_many(p, u) into out, in out's integer dtype.
    A total of exactly 1.0 compares u itself, as u * 1.0 == u in IEEE
    arithmetic, so the only array made is one bool mask at a time, and none
    for a one-byte out, which takes the first comparison as a bool view:
    two symbols are one np.less_equal."""
    cum = np.cumsum(_as_prob_array(p))

    def sample(out, u):
        if cum.size == 1:
            out[...] = 0
            return
        if cum[-1] != 1.0:
            u = u * cum[-1]
        np.less_equal(cum[0], u,
                      out=out.view(bool) if out.itemsize == 1 else out)
        for c in cum[1:-1]:
            out += c <= u
    return sample


def sample_rows(cums, u):
    """Inverse-cdf draw per row: cums (..., K) holds row-wise cumulative
    weights and u (...) one uniform in [0, 1) per row. Returns the count of
    entries <= u * row total, clipped to K - 1, which is the
    searchsorted(side="right") index of each row."""
    cums = np.asarray(cums)
    idx = (cums <= (np.asarray(u) * cums[..., -1])[..., None]).sum(axis=-1)
    return np.minimum(idx, cums.shape[-1] - 1)


def check_counts(**counts):
    """A ValueError naming the first of the counts that is below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError("%s must be >= 1, got %r" % (name, value))


def chunk_ranges(count, per_item):
    """range(count) cut into consecutive ranges of at most CHUNK_ELEMENTS //
    per_item items each (at least one), for items holding per_item array
    elements apiece. CHUNK_ELEMENTS is read when the first range is asked
    for."""
    step = max(1, CHUNK_ELEMENTS // per_item)
    for lo in range(0, count, step):
        yield range(lo, min(lo + step, count))


def mean_stderr(values):
    """Sample mean and its standard error std(ddof=1) / sqrt(T); the error
    of a single value is 0. No values is a ValueError, not a NaN."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values to average: a trial, sample or code "
                         "count is 0")
    if arr.size < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
