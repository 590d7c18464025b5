"""Finite-alphabet probability primitives: distributions, kernels, information
measures in bits, empirical types, and hierarchically keyed RNG streams."""

import hashlib

import numpy as np

PROB_TOL = 1e-9


class DimensionMismatch(ValueError):
    pass


class InvalidDistribution(ValueError):
    pass


def _as_prob_array(obj):
    if isinstance(obj, ProbVector):
        return obj.probs
    return np.asarray(obj, dtype=float)


class ProbVector:
    """A probability distribution over a finite alphabet.

    Entries must be finite, nonnegative and sum to 1 within PROB_TOL.
    Immutable.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidDistribution("expected a nonempty 1-d weight vector")
        if not np.all(np.isfinite(p)):
            raise InvalidDistribution("non-finite probability entry")
        if np.any(p < -PROB_TOL):
            raise InvalidDistribution("negative probability entry")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise InvalidDistribution("entries sum to %r, not 1" % p.sum())
        np.clip(p, 0.0, None, out=p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):
        raise AttributeError("ProbVector is immutable")

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


class Kernel:
    """A conditional law p(y|x): one ProbVector per input symbol."""

    __slots__ = ("matrix",)

    def __init__(self, rows):
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            m = np.array(rows, dtype=float)
            for r in m:
                ProbVector(r)  # validate
        else:
            vecs = [r.probs if isinstance(r, ProbVector) else ProbVector(r).probs
                    for r in rows]
            sizes = {v.size for v in vecs}
            if len(sizes) != 1:
                raise DimensionMismatch("kernel rows have inconsistent widths")
            m = np.stack(vecs)
        np.clip(m, 0.0, None, out=m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("Kernel is immutable")

    @property
    def input_size(self):
        return self.matrix.shape[0]

    @property
    def output_size(self):
        return self.matrix.shape[1]

    def row(self, x):
        return ProbVector(self.matrix[x])

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


class JointPmf:
    """A joint distribution over X x Y stored as a matrix."""

    __slots__ = ("table",)

    def __init__(self, table):
        t = np.array(table, dtype=float)
        if t.ndim != 2:
            raise InvalidDistribution("joint table must be 2-d")
        if not np.all(np.isfinite(t)):
            raise InvalidDistribution("non-finite joint mass")
        if np.any(t < -PROB_TOL):
            raise InvalidDistribution("negative joint mass")
        if abs(t.sum() - 1.0) > PROB_TOL:
            raise InvalidDistribution("joint mass sums to %r" % t.sum())
        np.clip(t, 0.0, None, out=t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __setattr__(self, name, value):
        raise AttributeError("JointPmf is immutable")

    @classmethod
    def from_input_channel(cls, p_x, channel):
        """Build p(x,y) = p(x) p(y|x)."""
        p = _as_prob_array(p_x)
        if p.size != channel.input_size:
            raise DimensionMismatch("input law does not match kernel rows")
        return cls(p[:, None] * channel.matrix)

    def marginal_x(self):
        return ProbVector(self.table.sum(axis=1))

    def marginal_y(self):
        return ProbVector(self.table.sum(axis=0))

    def tv_to(self, other):
        if self.table.shape != other.table.shape:
            raise DimensionMismatch("joint tables have different shapes")
        return 0.5 * float(np.abs(self.table - other.table).sum())


class EmpiricalJointType:
    """Counts of (x, y) pairs across layers; the normalized counts form a
    JointPmf (the empirical type)."""

    __slots__ = ("counts", "total")

    def __init__(self, counts, total):
        c = np.array(counts, dtype=np.int64)
        if c.ndim != 2 or np.any(c < 0):
            raise ValueError("counts must be a nonnegative integer matrix")
        if int(c.sum()) != int(total):
            raise ValueError("counts do not sum to total")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "total", int(total))

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalJointType is immutable")

    def pmf(self):
        return JointPmf(self.counts / self.total)

    def tv_to(self, joint):
        return self.pmf().tv_to(joint)


def empirical_type(pairs, shape=None):
    """Tabulate (x, y) symbol pairs into an EmpiricalJointType.

    shape defaults to (max x + 1, max y + 1) over the observed pairs.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        raise ValueError("empty pair sequence")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("expected a sequence of (x, y) pairs")
    xs, ys = pairs[:, 0], pairs[:, 1]
    if shape is None:
        shape = (int(xs.max()) + 1, int(ys.max()) + 1)
    if np.any(xs < 0) or np.any(ys < 0) or xs.max() >= shape[0] or ys.max() >= shape[1]:
        raise ValueError("symbol out of alphabet range")
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (xs, ys), 1)
    return EmpiricalJointType(counts, pairs.shape[0])


def l1_distance(a, b):
    """Sum of absolute coordinate differences between two weight vectors."""
    pa, pb = _as_prob_array(a), _as_prob_array(b)
    if pa.shape != pb.shape:
        raise DimensionMismatch("vectors of different lengths")
    return float(np.abs(pa - pb).sum())


def tv_distance(a, b):
    """Total variation distance: half the l1 distance between distributions."""
    if not isinstance(a, ProbVector):
        a = ProbVector(a)
    if not isinstance(b, ProbVector):
        b = ProbVector(b)
    return 0.5 * l1_distance(a, b)


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


class RngStream:
    """A reproducible random stream keyed by (seed, hierarchical stream id).

    Identical (seed, stream_id) pairs replay identical draw sequences;
    distinct stream ids behave independently. The generator is created
    lazily so children are cheap to mint.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed, stream_id=()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = tuple(stream_id)
        self._gen = None

    def child(self, *labels):
        return RngStream(self.seed, self.stream_id + labels)

    def generator(self):
        if self._gen is None:
            key = hashlib.blake2b(repr((self.seed, self.stream_id)).encode(),
                                  digest_size=32).digest()
            ss = np.random.SeedSequence(int.from_bytes(key, "little"))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def uniform(self, size=None):
        return self.generator().random(size)

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%r)" % (self.seed, self.stream_id)


def sample(dist, rng):
    """Draw one symbol index from a distribution using the given stream."""
    return int(sample_many(dist, rng.uniform()))


def sample_many(p, uniforms):
    """Vectorized inverse-cdf sampling given precomputed uniforms in [0,1)."""
    p = _as_prob_array(p)
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, np.asarray(uniforms) * cum[-1], side="right")
    return np.minimum(idx, p.size - 1)


def sample_rows(cums, u):
    """Inverse-cdf draw per row: cums (..., K) holds row-wise cumulative
    weights and u (...) one uniform in [0, 1) per row. Returns the count of
    entries <= u * row total, clipped to K - 1, which is the
    searchsorted(side="right") index of each row."""
    cums = np.asarray(cums)
    idx = (cums <= (np.asarray(u) * cums[..., -1])[..., None]).sum(axis=-1)
    return np.minimum(idx, cums.shape[-1] - 1)


def mean_stderr(values):
    """Sample mean and its standard error std(ddof=1) / sqrt(T); the error
    of a single value is 0."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
