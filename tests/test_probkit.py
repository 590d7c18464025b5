import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepnet import probkit
from sepnet.probkit import (DimensionMismatch, InvalidDistribution, JointPmf,
                            Kernel, ProbVector, RngBatch, RngStream,
                            _pcg64_uniforms, _seed_words, entropy,
                            mean_stderr, mutual_information, sample_many,
                            sample_rows, uniform_streams)


def has_mass(*ws):
    """Every weight list has positive total mass, so it can be normalized."""
    return all(sum(w) > 1e-6 for w in ws)


weights = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).filter(
    has_mass)


def normed(w):
    a = np.asarray(w, dtype=float)
    return ProbVector(a / a.sum())


# ---------------------------------------------------------------------------
# distributions and kernels

def test_probvector_validates():
    with pytest.raises(InvalidDistribution):
        ProbVector([0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        ProbVector([1.5, -0.5])
    with pytest.raises(InvalidDistribution):
        ProbVector([])
    p = ProbVector([0.25, 0.75])
    assert p.size == 2 and p[1] == 0.75


with np.errstate(invalid="ignore"):
    NON_FINITE = [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0],
                  np.array([0.0, 0.0]) / 0.0]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "0/0"])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(InvalidDistribution):
        ProbVector(bad)
    with pytest.raises(InvalidDistribution):
        Kernel([bad, [0.5, 0.5]])
    with pytest.raises(InvalidDistribution):
        Kernel(np.array([[0.5, 0.5], bad]))
    with pytest.raises(InvalidDistribution):
        JointPmf([bad, [0.0, 0.0]])


def test_probvector_immutable():
    p = ProbVector([0.5, 0.5])
    with pytest.raises(AttributeError):
        p.probs = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_kernel_shapes_and_rows():
    k = Kernel.bsc(0.11)
    assert k.input_size == 2 and k.output_size == 2
    e = Kernel.bec(0.3)
    assert e.output_size == 3
    assert np.allclose(e.matrix.sum(axis=1), 1.0)
    with pytest.raises(DimensionMismatch):
        Kernel([[0.5, 0.5], [0.2, 0.3, 0.5]])
    with pytest.raises(InvalidDistribution):
        Kernel([[0.5, 0.4], [0.5, 0.5]])


@pytest.mark.parametrize("rows", [[], np.zeros((0, 2))], ids=["list", "array"])
def test_kernel_needs_at_least_one_row(rows):
    with pytest.raises(DimensionMismatch, match="at least one row"):
        Kernel(rows)


def test_joint_pmf_marginals():
    j = JointPmf.from_input_channel(ProbVector([0.25, 0.75]), Kernel.bsc(0.1))
    # p(y=0) = 0.25*0.9 + 0.75*0.1
    assert np.allclose(j.marginal_y().probs, [0.3, 0.7])


# ---------------------------------------------------------------------------
# metrics: frozen values and properties

def test_entropy_frozen_values():
    # independent oracle: math.log2 closed forms
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert entropy([1.0, 0.0]) == 0.0
    h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert entropy([0.25, 0.75]) == pytest.approx(h_quarter, abs=1e-12)
    assert entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328,
                                                  abs=1e-12)


def test_mutual_information_frozen_values():
    # BSC(p) with uniform input: I = 1 - h(p)
    p = 0.11
    h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    mi = mutual_information([0.5, 0.5], Kernel.bsc(p))
    assert mi == pytest.approx(1 - h, abs=1e-12)
    assert mi == pytest.approx(0.500084041835472, abs=1e-9)
    assert mutual_information([0.5, 0.5], Kernel.identity(2)) == 1.0
    # degenerate input: no information flows
    assert mutual_information([1.0, 0.0], Kernel.bsc(0.11)) == 0.0


@given(weights)
def test_entropy_bounds(w):
    p = normed(w)
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(p.size) + 1e-12


# ---------------------------------------------------------------------------
# rng streams and sampling

def test_rng_replay_identical():
    a = RngStream(42).child("edge", 3, 7).uniform(16)
    b = RngStream(42).child("edge", 3, 7).uniform(16)
    assert np.array_equal(a, b)


def test_rng_children_distinct():
    root = RngStream(42)
    a = root.child("edge", 0).uniform(16)
    b = root.child("edge", 1).uniform(16)
    c = RngStream(43).child("edge", 0).uniform(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_child_order_matters():
    assert RngStream(0).child("a", "b").uniform() != \
        RngStream(0).child("b", "a").uniform()


@pytest.mark.parametrize("stream, first", [
    (RngStream(0),
     [0.8402047142732112, 0.9128394737048813, 0.23586335631662325]),
    (RngStream(7, ("trial", 3, "x")),
     [0.6872524609911609, 0.04214668949439471, 0.8100425690185727]),
    (RngStream(2 ** 64 - 1, ("edge", 0, 5)),
     [0.30923808693401944, 0.7632542213866507, 0.7624338795197668]),
], ids=["root", "trial", "edge-top-seed"])
def test_rng_stream_frozen_values(stream, first):
    """Every seeded number in the package follows from these streams; a
    change to keying or seeding shows here before anywhere else."""
    assert stream.uniform(3).tolist() == first


def _numpy_seed_words(key):
    return np.random.SeedSequence(
        int.from_bytes(key, "little")).generate_state(4, np.uint64)


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=8))
@example([bytes(28) + b"\x01\x00\x00\x00"])
@example([b"\xff" * 28 + bytes(4), bytes(32), b"\x05" * 32])
@settings(max_examples=60)
def test_seed_words_equal_numpy_seed_sequence(keys):
    """The vectorized pool mixing equals numpy's SeedSequence, also for keys
    whose top words are 0 (an int key drops them)."""
    expected = np.array([_numpy_seed_words(k) for k in keys])
    ent = np.frombuffer(b"".join(keys), "<u4").reshape(len(keys), 8)
    assert np.array_equal(_seed_words(ent), expected)


labels = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=4))


@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.lists(labels, max_size=4).map(tuple), max_size=6),
       st.one_of(st.none(), st.integers(0, 5),
                 st.tuples(st.integers(0, 4), st.integers(1, 3))))
@example(3, [("trial", 0, "x")], None)
@example(3, [], 4)
@example(3, [()], (2, 3))
@settings(max_examples=60)
def test_uniform_streams_equal_per_stream_draws(seed, ids, size):
    expected = [RngStream(seed, i).uniform(size) for i in ids]
    got = uniform_streams(seed, ids, size)
    shape = () if size is None else np.shape(np.empty(size))
    assert got.shape == (len(ids),) + shape
    for row, want in zip(got, expected):
        assert np.array_equal(row, want)


@given(st.integers(0, 2 ** 64 - 1), st.lists(labels, max_size=2).map(tuple),
       st.integers(0, 5), st.lists(labels, max_size=3).map(tuple),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=40)
def test_rng_batch_is_its_streams(seed, prefix, trials, labels_, size):
    """Row j of a batch's draws is stream j's draws, for a batch of trial
    children, its children, and a stream as a batch of one."""
    root = RngStream(seed, prefix)
    batch = root.children("trial", range(trials)).child(*labels_)
    assert len(batch) == trials
    got = batch.uniform(size)
    for j, row in enumerate(got):
        want = root.child("trial", j, *labels_).uniform(size)
        assert np.array_equal(row, want)
    one = root.child(*labels_)
    assert np.array_equal(one.batch().uniform(size)[0],
                          root.child(*labels_).uniform(size))
    assert isinstance(batch.batch(), RngBatch) and batch.batch() is batch


# labels whose repr holds '%', quotes, backslashes or non-ASCII text, and
# indices whose '%d' is not their repr (True, np.int64(3)), negative or
# beyond 64 bits
awkward_labels = st.one_of(st.text(alphabet="%d'\"\\é漢 \n", max_size=4),
                           st.integers(-2 ** 70, 2 ** 70))
awkward_indices = st.lists(st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)), max_size=3)


@given(st.integers(0, 2 ** 64 - 1),
       st.lists(awkward_labels, max_size=2).map(tuple), awkward_labels,
       awkward_indices, st.lists(awkward_labels, max_size=2).map(tuple),
       awkward_labels, awkward_indices,
       st.lists(st.lists(awkward_labels, max_size=2).map(tuple), min_size=1,
                max_size=2),
       st.sampled_from([None, 3, (2, 2)]))
@example(7, ("a%d", "%%"), "trial", list(range(40)), ("x'\\",), "k", [-1],
         [("p",)], None)
@example(7, (), "é", [2 ** 64 + 1, -5], ("%s",), 3, [0, 1], [()], 2)
@example(7, ("r",), "t", [True, np.int64(3)], (), "k", [1], [(1,)], 2)
@settings(max_examples=40, deadline=None)
def test_every_batch_form_keys_the_streams_it_names(seed, prefix, a, js,
                                                    more, b, ks, listed,
                                                    size):
    """RngStream.children, RngBatch.child, RngBatch.children (every stream
    with every index, stream-major) and a batch of listed prefixes list
    their stream ids in order and draw, row for row, what RngStream(seed,
    id) draws alone, uniforms and samples of two and three symbols. Only a
    stream's children of exact-int indices fill a key template."""
    kids = RngStream(seed, prefix).children(a, js)
    assert (kids._template() is None) == any(type(j) is not int for j in js)
    forms = {
        "children": (kids, [prefix + (a, j) for j in js]),
        "child": (kids.child(*more), [prefix + (a, j) + more for j in js]),
        "cross": (kids.child(*more).children(b, ks),
                  [prefix + (a, j) + more + (b, k) for j in js for k in ks]),
        "listed": (RngBatch(seed, listed, more).children(b, ks),
                   [p + more + (b, k) for p in listed for k in ks]),
    }
    for name, (batch, ids) in forms.items():
        assert list(batch) == ids and len(batch) == len(ids), name
        draws = [batch.uniform(size), batch.sample([0.5, 0.5], size),
                 batch.sample([0.2, 0.5, 0.3], size)]
        for i, u, s2, s3 in zip(ids, *draws):
            assert np.array_equal(u, RngStream(seed, i).uniform(size)), name
            assert np.array_equal(s2, RngStream(seed, i).sample([0.5, 0.5],
                                                                size))
            assert np.array_equal(s3, RngStream(seed, i).sample(
                [0.2, 0.5, 0.3], size))


# sizes with n = 0, 1, 2, 3, 5 and 8 draws per stream, so that batches of 1
# to 400 streams fall on both sides of B = 32 n, where every stream starts
# to step at once
draw_sizes = st.sampled_from([0, (2, 0), None, 1, (1, 1), 2, 3, (3, 1), 5,
                              8, (2, 4)])


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 400), draw_sizes)
@example(5, 32, None)
@example(5, 31, 1)
@example(5, 192, (2, 3))
@example(5, 191, (2, 3))
@settings(max_examples=40, deadline=None)
def test_uniform_streams_equal_per_stream_draws_on_both_paths(seed, B,
                                                              size):
    ids = [("trial", j, "x") for j in range(B)]
    got = uniform_streams(seed, ids, size)
    assert len(got) == B
    for i, row in zip(ids, got):
        assert np.array_equal(row, RngStream(seed, i).uniform(size))


def _zero_top_word_keys(count):
    """Stream keys whose top uint32 word is 0, some with more zero words on
    top: a blake2b key is one in 2**32 times, so these are made by hand."""
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2 ** 32, size=(count, 8), dtype=np.uint32)
    keys[:, 7] = 0
    keys[::3, 6] = 0
    keys[::5, 2:7] = 0
    return keys


@pytest.mark.parametrize("B, n", [(64, 1), (128, 2), (3, 5)],
                         ids=["all-at-once", "all-at-once-2", "one-by-one"])
def test_pcg64_draws_from_zero_top_word_keys(B, n):
    """Keys with a zero top word are seeded one at a time, then drawn like
    any other, at once or stream by stream."""
    ent = _zero_top_word_keys(B)
    out = np.empty((B, n))
    _pcg64_uniforms(_seed_words(ent), out)
    for key, row in zip(ent, out):
        ss = np.random.SeedSequence(int.from_bytes(key.tobytes(), "little"))
        want = np.random.Generator(np.random.PCG64(ss)).random(n)
        assert np.array_equal(row, want)


SAMPLE_LAWS = {"K=1": [1.0], "K=2": [0.3, 0.7], "K=3": [0.2, 0.5, 0.3],
               "K=300": np.full(300, 1 / 300)}


@pytest.mark.parametrize("law", list(SAMPLE_LAWS))
@pytest.mark.parametrize("B, size", [
    (1, 7), (1, 8), (1, 9), (1, (3, 6)), (3, 8), (5, (2, 3)), (2, 17),
    (5, 2), (9, 3), (96, 3), (97, (1, 3)), (200, 2)],
    ids=lambda v: str(v).replace(" ", ""))
def test_samples_are_sample_many_of_the_uniforms(monkeypatch, law, B, size):
    """RngStream.sample and RngBatch.sample equal sample_many(p, uniform)
    bit for bit, in the smallest unsigned dtype that holds len(p) - 1
    (uint16 for K = 300). Blocks of 8 draws put the sizes on both sides of
    a block edge, and a row longer than a block is drawn in pieces; the
    batches take both stream paths (B >= 32 n steps every stream at
    once)."""
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS", 32 * 8)
    p = SAMPLE_LAWS[law]
    dtype = np.uint16 if len(p) > 256 else np.uint8
    batch = RngStream(41).children("trial", range(B)).child("c")
    got = batch.sample(p, size)
    u = batch.uniform(size)
    for j, row in enumerate(u):
        assert np.array_equal(row, RngStream(41, ("trial", j, "c"))
                              .uniform(size))
    want = sample_many(p, u)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    one = RngStream(41, ("trial", 0, "c"))
    got = one.sample(p, size)
    assert got.dtype == dtype
    assert np.array_equal(got, sample_many(p, RngStream(41, ("trial", 0, "c"))
                                           .uniform(size)))
    assert np.array_equal(got, want[0])


def test_a_stream_sample_continues_its_sequence():
    """A sample reads the stream's next draws, as uniform would."""
    r, s = RngStream(8), RngStream(8)
    r.uniform(3)
    s.uniform(3)
    assert np.array_equal(r.sample([0.5, 0.5], 20),
                          sample_many([0.5, 0.5], s.uniform(20)))
    assert r.sample([0.5, 0.5]) == sample_many([0.5, 0.5], s.uniform())


def _searchsorted_draws(p, u):
    """The binary-search inverse cdf: searchsorted(side="right") of u * total
    in the cumulative weights, clipped to K - 1."""
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, np.asarray(u) * cum[-1], side="right")
    return np.minimum(idx, len(p) - 1)


@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1,
                max_size=6).filter(has_mass),
       st.booleans(),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
@example([1.0], False, [])
@example([0.25, 0.0, 0.25, 0.5], False, [0.5])
@example([0.0, 0.5, 0.5, 0.0, 0.0], True, [0.5])
@settings(max_examples=100)
def test_sample_many_equals_searchsorted(w, normalize, us):
    """Bit for bit, in value, dtype and shape, for scalar, 1-d and 4-d
    uniforms, at u = 0, at every u whose u * total is a cumulative weight
    exactly, and at u = 1, where the draw is clipped to K - 1."""
    p = np.asarray(w) / (sum(w) if normalize else 1.0)
    cum = np.cumsum(p)
    hits = [c / cum[-1] for c in cum if (c / cum[-1]) * cum[-1] == c]
    u = np.array([0.0] + hits + us)
    for given_u in [*u, *map(float, u), u, np.stack([u, u[::-1]] * 3)
                    .reshape(2, 3, 1, -1)]:
        got, want = sample_many(p, given_u), _searchsorted_draws(p, given_u)
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(sample_many(ProbVector(p / p.sum()), u),
                          _searchsorted_draws(p / p.sum(), u))


@pytest.mark.parametrize("p", [[1.0], [0.3], [0.25, 0.75],
                               [0.5, 0.25, 0.25], [0.1, 0.2],
                               [0.3, 0.3, 0.3]],
                         ids=["K=1", "K=1-inexact", "exact-2", "exact-3",
                              "inexact-2", "inexact-3"])
def test_sample_many_totals(p):
    """K = 1 draws only 0; a total of exactly 1.0 (0.25 + 0.75) and an
    inexact one (0.1 + 0.2, 0.3 * 3) give the searchsorted draws, also at
    the cumulative weights themselves."""
    cum = np.cumsum(p)
    u = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], cum / cum[-1],
                        RngStream(3).uniform(200)])
    u = u[u < 1.0]
    for given_u in (u, u.reshape(-1, 1), float(u[1])):
        got = sample_many(p, given_u)
        want = _searchsorted_draws(np.asarray(p), given_u)
        assert type(got) is type(want) and got.dtype == np.intp
        assert np.shape(got) == np.shape(given_u)
        assert np.array_equal(got, want)


def test_sample_many_makes_no_float_array_of_the_uniforms_size():
    """With a total of exactly 1.0, the peak traced memory of a binary draw
    is the intp result and one bool mask, not also a product u * total."""
    u = RngStream(5).uniform(2 ** 18)
    tracemalloc.start()
    try:
        x = sample_many([0.5, 0.5], u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.dtype == np.intp and x.shape == u.shape
    assert peak <= x.nbytes + u.size * np.dtype(bool).itemsize + 2 ** 16


def test_sample_rows_matches_searchsorted():
    """Row-wise inverse cdf equals searchsorted(side="right"), clipped."""
    rng = RngStream(31)
    for k in (2, 3, 5):
        w = rng.child("w", k).uniform((400, k))
        w[::7, -1] = 0.0  # rows whose last symbol has no mass
        cums = np.cumsum(w, axis=1)
        u = rng.child("u", k).uniform(400)
        expected = [min(int(np.searchsorted(c, x * c[-1], side="right")),
                        k - 1) for c, x in zip(cums, u)]
        assert np.array_equal(sample_rows(cums, u), expected)
        assert int(sample_rows(cums[3], u[3])) == expected[3]


def test_mean_stderr():
    assert mean_stderr([0.25]) == (0.25, 0.0)
    mean, se = mean_stderr([0.0, 1.0, 1.0, 0.0])
    assert mean == 0.5
    assert se == pytest.approx(np.std([0, 1, 1, 0], ddof=1) / 2)
    with pytest.raises(ValueError, match="no values"):
        mean_stderr([])


def test_sample_many_frequencies():
    p = np.array([0.2, 0.5, 0.3])
    u = RngStream(123).uniform(200000)
    xs = sample_many(p, u)
    freq = np.bincount(xs, minlength=3) / xs.size
    assert np.abs(freq - p).max() < 0.01


def test_type_concentration_monotone_over_seeds():
    """Empirical types drift toward the true joint as the sample count
    grows, in nearly every seed."""
    joint = JointPmf.from_input_channel(ProbVector([0.5, 0.5]),
                                        Kernel.bsc(0.2))
    flat = joint.table.reshape(-1)
    wins = 0
    for seed in range(30):
        rng = RngStream(seed).child("type")
        tvs = []
        for n in (32, 1024, 32768):
            pairs_flat = sample_many(flat, rng.child("n", n).uniform(n))
            freq = np.bincount(pairs_flat, minlength=flat.size) / n
            tvs.append(0.5 * float(np.abs(freq - flat).sum()))
        wins += tvs[0] > tvs[1] > tvs[2]
    assert wins >= 27
