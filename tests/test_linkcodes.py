import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import experiments, linkcodes, netmodel, probkit
from sepnet.experiments import (_lemma1_draws, _lemma1_records, lemma1_report,
                                link_replacement_experiment)
from sepnet.linkcodes import (AggregatePipeBehavior, ChannelCode,
                              CodebookCapExceeded, CodedLinkBehavior,
                              LinkCodeReport,
                              RateOutOfRange, SynthLinkBehavior, TypeScorer,
                              bits_to_index, build_channel_code,
                              build_synthesis_code, codebook_bits,
                              estimate_error_prob,
                              index_to_bits, likelihood_weights,
                              synthesized_type_tv)
from sepnet.netmodel import (ArityMismatch, BitPipe, BudgetOverflow,
                             DmcChannel, Edge, IidJoint, NetworkSpec)
from sepnet.probkit import (JointPmf, Kernel, ProbVector, RngBatch, RngStream,
                            mean_stderr, sample_many)
from sepnet.recipes import uncoded_relay
from sepnet.stacking import estimate_stacked_distortion, lift_code


# ---------------------------------------------------------------------------
# bit packing

def test_bit_packing_round_trip():
    assert bits_to_index((1, 0, 1, 1)) == 11
    assert tuple(index_to_bits(11, 4)) == (1, 0, 1, 1)
    for idx in range(32):
        assert bits_to_index(index_to_bits(idx, 5)) == idx


# ---------------------------------------------------------------------------
# channel codes

def test_channel_code_shape_and_bits():
    code = build_channel_code(Kernel.bsc(0.11), 24, 0.4, RngStream(1))
    assert code.codebook.shape == (2 ** 10, 24)   # ceil(24*0.4) = 10
    assert codebook_bits(code.N, code.rate) == 10
    assert code.payload_bits == 9                 # floor(24*0.4)
    assert np.array_equal(code.encode(3), code.codebook[3])


def test_channel_code_rate_and_cap_guards():
    with pytest.raises(RateOutOfRange):
        build_channel_code(Kernel.bsc(0.11), 16, 0.49, RngStream(0))
    with pytest.raises(CodebookCapExceeded):
        build_channel_code(Kernel.bsc(0.01), 32, 0.85, RngStream(0))


def test_noiseless_code_decodes_perfectly():
    code = build_channel_code(Kernel.identity(2), 16, 0.5, RngStream(2))
    for msg in (0, 17, 255):
        y = code.encode(msg)
        assert code.decode(y) in range(code.codebook.shape[0])
    p_e, _ = estimate_error_prob(code, 500, RngStream(3))
    # random binary codebook of 256 words in {0,1}^16: collisions only
    assert p_e < 0.05


def test_error_prob_decreases_with_blocklength():
    """p_e trend below capacity, majority vote over seed batches."""
    wins = 0
    for seed in range(10):
        pes = []
        for N in (8, 24):
            code = build_channel_code(Kernel.bsc(0.11), N, 0.25,
                                      RngStream(seed).child("N", N))
            pes.append(estimate_error_prob(code, 2000,
                                           RngStream(seed).child("pe", N))[0])
        wins += pes[0] > pes[1]
    assert wins >= 9


def _lowest_index_nearest(codebook, ys):
    """ML decoding on a BSC(p < 1/2), brute force: the codeword at minimum
    Hamming distance, the lowest index on a tie; and which words tie."""
    dist = (ys[:, None, :] != codebook[None, :, :]).sum(axis=2)
    tied = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1
    return dist.argmin(axis=1), tied


def test_decoders_take_the_lowest_index_ml_codeword():
    code = build_channel_code(Kernel.bsc(0.11), 24, 0.4, RngStream(4))
    g = RngStream(5).generator()
    msgs = g.integers(0, code.codebook.shape[0], size=1000)
    ys = code.codebook[msgs] ^ (g.random((1000, 24)) < 0.11)
    want, tied = _lowest_index_nearest(code.codebook, ys)
    assert tied.mean() > 0.1           # about 16 % of words tie exactly
    assert np.array_equal(code.decode_batch(ys), want)
    assert [code.decode(y) for y in ys[:200]] == want[:200].tolist()
    # a duplicated codeword: its copy at the higher index is never decoded
    dup = code.codebook.copy()
    dup[7] = dup[3]
    dup_code = ChannelCode(24, 0.4, dup, code.channel, code.input_law)
    want, _ = _lowest_index_nearest(dup, ys)
    assert 7 not in want
    assert np.array_equal(dup_code.decode_batch(ys), want)
    assert dup_code.decode(dup[7]) == 3


@settings(max_examples=60, deadline=None)
@given(k_in=st.integers(1, 4), k_out=st.integers(1, 4),
       zero_share=st.sampled_from([0.0, 0.3]), bec=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_type_scorer_equals_the_gather_sum(k_in, k_out, zero_share, bec,
                                           seed):
    """Scores match table[codebook, y].sum over N for one codebook against
    many words or one, and for a (3, 2, M, N) stack of codebooks; codewords
    of equal joint type with y score bitwise equal."""
    g = np.random.default_rng(seed)
    w = Kernel.bec(0.3).matrix if bec else \
        g.random((k_in, k_out)) * (g.random((k_in, k_out)) >= zero_share)
    table = np.log(np.maximum(w, 1e-300))     # zeros clamp as log tables do
    k_in, k_out = table.shape
    n, m = int(g.integers(1, 30)), int(g.integers(2, 20))

    def check(codebook, ys):
        got = TypeScorer(table, codebook).scores(ys)
        want = table[codebook, ys[..., None, :]].sum(axis=-1)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        return got

    codebook = g.integers(0, k_in, size=(m, n))
    check(codebook, g.integers(0, k_out, size=(5, n)))
    check(g.integers(0, k_in, size=(3, 2, m, n)),
          g.integers(0, k_out, size=(3, 1, n)))
    y = g.integers(0, k_out, size=n)
    # row 1: row 0 permuted within each group of equal y, so equal type
    perm = np.argsort(y, kind="stable")
    codebook[1, perm] = np.concatenate(
        [g.permutation(codebook[0, perm][y[perm] == b])
         for b in range(k_out)])
    s = check(codebook, y)
    assert s[0] == s[1]


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                               127, 128, 129])
def test_type_scorer_equals_the_gather_sum_across_word_edges(n):
    """At blocklengths on both sides of every packed-word edge (8, 16, 32,
    64 bits, and 2 words of 64), for every pair of alphabet sizes up to 4:
    scores match the gather-sum for one codebook and for a stack of
    codebooks; codewords of equal type score bitwise equal, and argmax takes
    the lowest index on a tie."""
    g = np.random.default_rng(n)
    for k_in in range(1, 5):
        for k_out in range(1, 5):
            w = g.random((k_in, k_out)) * (g.random((k_in, k_out)) >= 0.3)
            table = np.log(np.maximum(w, 1e-300))
            codebook = g.integers(0, k_in, size=(9, n)).astype(np.uint8)
            stack = g.integers(0, k_in, size=(3, 2, 5, n))
            for cb, ys in ((codebook, g.integers(0, k_out, size=(4, n))),
                           (stack, g.integers(0, k_out, size=(3, 1, n)))):
                got = TypeScorer(table, cb).scores(ys)
                want = table[cb, ys[..., None, :]].sum(axis=-1)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12)
            # rows 2 and 6: one word permuted within each group of equal y
            y = g.integers(0, k_out, size=n)
            best = table.argmax(axis=0)[y]
            codebook[2] = best
            perm = np.argsort(y, kind="stable")
            codebook[6, perm] = np.concatenate(
                [g.permutation(best[perm][y[perm] == b])
                 for b in range(k_out)])
            s = TypeScorer(table, codebook).scores(y)
            assert s[2] == s[6] == s.max()
            assert TypeScorer(table, codebook).argmax(y[None])[0] == \
                np.flatnonzero(s == s.max())[0]


def test_type_scorer_breaks_bsc_distance_ties_to_the_lowest_index():
    """Two codewords at Hamming distance 1 from the word, flipped in
    different packed words, score bitwise equal; argmax takes the lower."""
    table = np.log(Kernel.bsc(0.1).matrix)
    g = np.random.default_rng(3)
    y = g.integers(0, 2, size=100)
    codebook = (y ^ (g.random((12, 100)) < 0.4)).astype(np.uint8)
    codebook[4], codebook[9] = y, y
    codebook[4, 3] ^= 1
    codebook[9, 90] ^= 1
    s = TypeScorer(table, codebook).scores(y)
    assert s[4] == s[9] == s.max()
    assert TypeScorer(table, codebook).argmax(y[None]).tolist() == [4]


def test_type_scorer_holds_no_float_array_of_the_codebook_size():
    """The scorer keeps packed bits and integer set sizes, not a float
    one-hot of the codebook."""
    codebook = RngStream(5).sample([0.2, 0.3, 0.5], (4, 64, 24))
    scorer = TypeScorer(np.log(Kernel.bsc(0.2).matrix[[0, 1, 1]]), codebook)
    held = [v for value in vars(scorer).values()
            for v in (value if isinstance(value, list) else [value])
            if isinstance(v, np.ndarray)]
    assert held
    for v in held:
        assert v.dtype.kind != "f" or v.size < 64, (v.dtype, v.shape)
        assert v.nbytes <= codebook.nbytes // 2


def test_codebooks_are_held_in_the_smallest_unsigned_dtype():
    code = build_channel_code(Kernel.bsc(0.11), 12, 0.2, RngStream(2))
    assert code.codebook.dtype == np.uint8
    code = build_synthesis_code(ProbVector.uniform(2), Kernel.bsc(0.2), 8,
                                0.8, RngStream(3).children("c", range(4)))
    assert code.codebook.dtype == np.uint8 and code.codebook.shape[0] == 4


def test_batched_synthesis_codebook_peak_is_the_codebook_and_one_block():
    """Drawing 2046 codebooks of 128 x 8 symbols holds the uint8 codebooks,
    one block of float draws and little else: not the full-size float
    uniforms or an int64 copy."""
    batch = RngBatch(9, [("trial", j, "code", k) for j in range(682)
                         for k in range(3)])
    p = ProbVector.uniform(2)
    # a first call makes one-off allocations (imports, caches)
    build_synthesis_code(p, Kernel.bsc(0.2), 8, 0.8, batch.child("warm"))
    tracemalloc.start()
    try:
        code = build_synthesis_code(p, Kernel.bsc(0.2), 8, 0.8, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.codebook.shape == (2046, 128, 8)
    assert peak <= code.codebook.nbytes + 8 * probkit.block_elements() \
        + 2 ** 20


@pytest.mark.parametrize("symbol", [-1, 2])
def test_type_scorer_refuses_word_symbols_outside_the_table(symbol):
    """A word symbol with no table column is named, not counted as 0."""
    scorer = TypeScorer(np.log(Kernel.bsc(0.2).matrix),
                        np.zeros((4, 6), dtype=np.uint8))
    with pytest.raises(ArityMismatch, match=r"outside \[0, 2\)"):
        scorer.scores(np.array([0, 1, symbol, 0, 1, 0]))


def test_type_scorer_takes_an_empty_batch():
    """No words give no scores, indices or weights, not a reshape error."""
    codebook = RngStream(15).generator().integers(0, 2, size=(8, 6))
    scorer = TypeScorer(np.log(Kernel.bsc(0.2).matrix), codebook)
    empty = np.zeros((0, 6), dtype=np.int64)
    assert scorer.scores(empty).shape == (0, 8)
    assert scorer.argmax(empty).shape == (0,)
    assert likelihood_weights(scorer, empty).shape == (0, 8)


def test_decode_returns_a_maximum_likelihood_int():
    code = build_channel_code(Kernel.bsc(0.2), 12, 0.2, RngStream(4))
    logw = np.log(code.channel.matrix)
    for y in RngStream(6).generator().integers(0, 2, size=(20, 12)):
        ll = logw[code.codebook, y[None, :]].sum(axis=1)
        dec = code.decode(list(y))
        assert type(dec) is int
        assert ll[dec] >= ll.max() - 1e-12


def test_report_excess_bound_recomputed():
    rep = LinkCodeReport({0: 0.02, 3: 0.05}, n_edges=2, d_max=3.0)
    assert rep.p_e_max == 0.05
    assert rep.excess_bound == pytest.approx(2 * 0.05 * 3.0)
    j = rep.to_json()
    assert j["excess_bound"] == pytest.approx(
        j["n_edges"] * j["p_e_max"] * j["d_max"])


# ---------------------------------------------------------------------------
# synthesis codes

def test_synthesis_weights_conserved():
    code = build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                                12, 0.6, RngStream(6))
    for j in range(5):
        x = sample_many([0.5, 0.5], RngStream(7).child(j).uniform(12))
        w = likelihood_weights(code.scorer, x)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w >= 0)


def test_synthesis_preserves_input_marginal():
    """The encoder never alters x: the X-marginal of the synthesized type
    equals the empirical type of the actual input sequence exactly."""
    code = build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                                16, 0.6, RngStream(8))
    x = sample_many([0.5, 0.5], RngStream(9).uniform(16))
    y = code.synthesize(x, RngStream(10))
    counts = np.bincount(2 * x + y, minlength=4).reshape(2, 2)
    x_marg = counts.sum(axis=1)
    assert np.array_equal(x_marg, np.bincount(x, minlength=2))


def test_batched_synthesis_code_is_its_streams():
    """A code drawn from an RngBatch holds, row for row, the codebook each
    of its streams draws alone, and synthesizes word b as stream b's own
    code would."""
    p, channel = ProbVector([0.4, 0.6]), Kernel.bec(0.2)
    ids = [("trial", j, "code", k) for j in range(4) for k in range(2)]
    code = build_synthesis_code(p, channel, 6, 0.95, RngBatch(21, ids))
    assert code.codebook.shape == (len(ids), 2 ** 6, 6)
    xs = sample_many(p.probs, RngStream(22).children("x", range(len(ids)))
                     .uniform(6))
    ys = code.synthesize(xs, RngStream(23).children("w", range(len(ids))))
    for b, stream_id in enumerate(ids):
        one = build_synthesis_code(p, channel, 6, 0.95,
                                   RngStream(21, stream_id))
        assert np.array_equal(code.codebook[b], one.codebook)
        assert np.array_equal(
            ys[b], one.synthesize(xs[b], RngStream(23).child("w", b)))


@pytest.mark.parametrize("words", [1, 12])
def test_scoring_chunks_are_bit_identical(words, monkeypatch):
    """Likelihood encoding and ML decoding of a batch of words give the
    same indices and output words, bit for bit, in one chunk as in
    TypeScorer.chunks of 5 words with a ragged final chunk; a word alone
    gives its row of the batch. A batched code is scored whole."""
    law, bsc = ProbVector([0.4, 0.6]), Kernel.bsc(0.2)
    # both codes hold 2^8 codewords of 9 symbols
    synth = build_synthesis_code(law, bsc, 9, 0.85, RngStream(30))
    chan = build_channel_code(Kernel.bsc(0.02), 9, 0.8, RngStream(31))
    xs = sample_many(law.probs, RngStream(32).uniform((words, 9)))
    streams = RngStream(33).children("w", range(words))

    def run():
        return (synth.encode(xs, streams), synth.synthesize(xs, streams),
                chan.decode_batch(xs))

    whole = run()
    for chunk in (1, 5):
        monkeypatch.setattr(probkit, "CHUNK_ELEMENTS",
                            chunk * 32 * len(synth.codebook))
        assert len(list(synth.scorer.chunks(xs))) == -(-words // chunk)
        for got, want in zip(run(), whole):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    for j in range(words):
        w = RngStream(33).child("w", j)
        assert synth.encode(xs[j], w) == whole[0][j]
        w = RngStream(33).child("w", j)
        assert np.array_equal(synth.synthesize(xs[j], w), whole[1][j])
        assert chan.decode(xs[j]) == whole[2][j]
    batched = build_synthesis_code(law, bsc, 9, 0.85,
                                   RngStream(30).children("c", range(words)))
    assert list(batched.scorer.chunks(xs)) == [...]


def test_synthesis_rate_guards():
    with pytest.raises(RateOutOfRange):
        build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                             16, 0.1, RngStream(0))
    # converse experiments may disable the margin
    code = build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                                16, 0.1, RngStream(0), enforce_margin=False)
    assert code.codebook.shape == (2 ** 2, 16)
    with pytest.raises(CodebookCapExceeded):
        build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                             64, 0.5, RngStream(0))


def test_identity_channel_synthesis_is_near_lossless():
    """Rate above H(X) on a noiseless channel: y = x almost everywhere."""
    code = build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.identity(2),
                                16, 1.1, RngStream(11))
    agree = 0
    total = 0
    for j in range(40):
        r = RngStream(12).child(j)
        x = sample_many([0.5, 0.5], r.child("x").uniform(16))
        y = code.synthesize(x, r.child("w"))
        agree += int((x == y).sum())
        total += 16
    assert agree / total >= 0.99


def _lemma1_records_one_trial_at_a_time(channel, N, R, trials, seed,
                                        n_times, reuse):
    p = ProbVector.uniform(channel.input_size)
    records = {t: [] for t in range(1, n_times)}
    for j in range(trials):
        r = RngStream(seed).child("trial", j)
        x = sample_many(p.probs, r.child("x").uniform(N))
        ys = []
        for t in range(n_times):
            key = 0 if reuse else t
            code = build_synthesis_code(p, channel, N, R, r.child("code", key))
            ys.append(code.synthesize(x, r.child("w", key)))
        for t in range(1, n_times):
            records[t].append((int(x[0]), int(ys[t - 1][0]),
                               int(x[0]), int(ys[t][0])))
    return records


@pytest.mark.parametrize("reuse", [False, True])
def test_lemma1_samples_match_per_trial_codes(reuse, monkeypatch):
    """The batched verifier draws every trial from the streams a per-trial
    build_synthesis_code + synthesize would use, across chunk boundaries."""
    args = (Kernel.bsc(0.2), 8, 0.8, 50, 7, 3)
    expected = _lemma1_records_one_trial_at_a_time(*args, reuse=reuse)

    def records():
        recs = _lemma1_records(*_lemma1_draws(*args), 3, reuse)
        return {t: list(map(tuple, a.tolist())) for t, a in recs.items()}

    assert records() == expected
    # 7-trial chunks: 50 trials span a ragged final chunk
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS", 7 * 3 * 2 ** 7 * 8)
    assert records() == expected


def test_negative_control_reuses_the_positive_draw(monkeypatch):
    """The negative control's records repeat the positive control's key-0
    output at every time, and verify_lemma1 draws once for both."""
    x0, y0 = _lemma1_draws(Kernel.bsc(0.2), 8, 0.8, 60, 7, 3)
    for recs in _lemma1_records(x0, y0, 3, reuse=True).values():
        assert recs.tolist() == [[x, y, x, y] for x, y in zip(
            x0.tolist(), y0[:, 0].tolist())]
    calls = []
    draws = experiments._lemma1_draws

    def counting(*a, **k):
        calls.append(a)
        return draws(*a, **k)

    monkeypatch.setattr(experiments, "_lemma1_draws", counting)
    experiments.verify_lemma1(Kernel.bsc(0.2), N=8, R=0.8, trials=60, seed=7)
    assert len(calls) == 1


def test_lemma1_samples_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        _lemma1_draws(Kernel.bsc(0.2), 8, 0.8, 0, 0, 3)


@pytest.mark.parametrize("n_times", [1, 0, -1])
def test_lemma1_needs_two_times(n_times, monkeypatch):
    """Lemma 1 compares successive times: one time gave two inconclusive
    reports and a negative_failed verdict from no test at all."""
    monkeypatch.setattr(experiments, "build_synthesis_code", None)
    monkeypatch.setattr(experiments, "sample_many", None)
    with pytest.raises(ValueError, match="n_times must be >= 2"):
        experiments.verify_lemma1(Kernel.bsc(0.2), trials=10,
                                  n_times=n_times)


@pytest.mark.parametrize("N", [0, -1])
def test_lemma1_rejects_empty_blocks(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        _lemma1_draws(Kernel.bsc(0.2), N, 0.8, 10, 0, 3)
    with pytest.raises(ValueError, match="N must be >= 1"):
        experiments.verify_lemma1(Kernel.bsc(0.2), N=N, trials=10)


@pytest.mark.parametrize("counts", [
    {"replicates": 0}, {"replicates": -1}, {"trials": 0}, {"trials": -1}],
    ids=["0", "-1", "trials=0", "trials=-1"])
def test_two_step_induction_rejects_no_replicates(counts, monkeypatch):
    """No replicates or no trials would give a NaN TV from 0 samples; it is
    a ValueError naming the count before any code is drawn."""
    monkeypatch.setattr(experiments, "build_synthesis_code", None)
    (name, value), = counts.items()
    with pytest.raises(ValueError, match="%s must be >= 1" % name):
        experiments.two_step_induction(**counts)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
def test_separation_rejects_bad_kappa(kappa, monkeypatch):
    monkeypatch.setattr(experiments, "blahut_capacity", None)  # no work
    with pytest.raises(ValueError, match="kappa must be finite and positive"):
        experiments.separation_experiment(kappa=kappa, trials=10)


# ---------------------------------------------------------------------------
# separation on the stacked engine

SMALL_SEPARATION = dict(kappa=1.0, quantizer_bits=(2, 3), link_rate=0.4)


@pytest.mark.parametrize("p, seed", [(0.11, 1), (0.05, 2), (0.02, 3)])
def test_separation_sides_share_every_trial(p, seed):
    """Where the link delivers the sent index, both sides reconstruct the
    same codeword of the same source block, so the distortions differ by at
    most p_e * d_max; independent sources or indices would break this."""
    r = experiments.separation_experiment(p=p, trials=60, seed=seed,
                                          **SMALL_SEPARATION)
    for row in r["rows"]:
        assert abs(row["D_noisy"] - row["D_pipe"]) <= row["p_e"] + 1e-12
        assert row["excess_bound"] == row["p_e"]


def test_separation_does_not_depend_on_chunking(monkeypatch):
    def run():
        return json.dumps(experiments.separation_experiment(
            p=0.11, trials=23, seed=4, **SMALL_SEPARATION), sort_keys=True)

    whole = run()
    # 7 trials per batch at L = 8, 11 at L = 5
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS", 7 * 5 * 8)
    assert run() == whole


def test_separation_noise_goes_through_the_link(monkeypatch):
    """One DMC transmit and one decode_batch per quantizer size and trial
    batch: the coded link carries all of separation's channel noise."""
    calls = {"transmit": 0, "decode_batch": 0}

    def spy(cls, name):
        orig = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return orig(self, *args)
        monkeypatch.setattr(cls, name, counted)

    spy(netmodel.DmcLink, "transmit")
    spy(ChannelCode, "decode_batch")
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS", 7 * 5 * 8)
    experiments.separation_experiment(p=0.11, trials=23, seed=4,
                                      **SMALL_SEPARATION)
    batches = 3 + 4   # ceil(23 / 11) at L = 5, ceil(23 / 7) at L = 8
    assert calls == {"transmit": batches, "decode_batch": batches}


def test_lemma1_samples_rate_guards():
    with pytest.raises(RateOutOfRange):
        _lemma1_draws(Kernel.bsc(0.2), 8, 0.2, 10, 0, 3)
    with pytest.raises(CodebookCapExceeded):
        _lemma1_draws(Kernel.bsc(0.2), 32, 0.8, 10, 0, 3)


def test_lemma1_report_lists_the_cells_it_drops():
    """x_t = 0 throughout; y_prev = 0, 1, 2 in 200, 150 and 40 records.
    The y_prev = 2 cell is below 100 samples: it is listed, not tested."""
    recs = [(0, yp, 0, j % 2) for yp, count in ((0, 200), (1, 150), (2, 40))
            for j in range(count)]
    rep = lemma1_report({1: recs}, out_size=2)
    assert sorted(rep.cells) == [(1, 0, 0, 0), (1, 0, 1, 0)]
    out = rep.to_json()
    assert out["dropped"] == {repr((1, 0, 2, 0)): {"samples": 40,
                                                    "rest": 350}}
    assert out["num_z"] == 4 and not out["inconclusive"]


def test_lemma1_report_reads_arrays_and_tuple_lists_alike():
    """One report, byte for byte, from (n, 4) arrays and from the same
    records as lists of tuples; a time with no records adds nothing. Time
    3, a slice of time 1, holds cells too small to test."""
    x0, y0 = _lemma1_draws(Kernel.bsc(0.2), 8, 0.8, 1500, 3, 3)
    arrays = _lemma1_records(x0, y0, 3, reuse=False)
    arrays[3] = arrays[1][:150]
    tuples = {t: list(map(tuple, a.tolist())) for t, a in arrays.items()}
    want = json.dumps(lemma1_report(arrays, 2).to_json(), sort_keys=True)
    assert json.dumps(lemma1_report(tuples, 2).to_json(),
                      sort_keys=True) == want
    assert json.loads(want)["num_z"] > 0 and json.loads(want)["dropped"]
    # cells in lexicographic order, as nested loops over the symbols visit
    rep = lemma1_report(arrays, 2)
    assert list(rep.cells) == sorted(rep.cells)
    assert rep.z_scores == [z for c in rep.cells.values() for z in c["z"]]
    for empty in ([], np.zeros((0, 4), np.int64)):
        assert json.dumps(lemma1_report({**arrays, 4: empty}, 2).to_json(),
                          sort_keys=True) == want
        rep = lemma1_report({1: empty}, 2)
        assert rep.cells == {} and rep.dropped == {} and rep.inconclusive


def _type_tv_one_sample_at_a_time(code, rng, samples):
    target = JointPmf.from_input_channel(code.target_input,
                                         code.channel).table
    tvs = []
    for j in range(samples):
        r = rng.child("sample", j)
        x = sample_many(code.target_input.probs, r.child("x").uniform(code.N))
        y = code.synthesize(x, r.child("w"))
        counts = np.zeros(target.shape, dtype=np.int64)
        np.add.at(counts, (x, y), 1)
        tvs.append(0.5 * float(np.abs(counts / code.N - target).sum()))
    return mean_stderr(tvs)


@pytest.mark.parametrize("p,channel,N,R", [
    ([0.5, 0.5], Kernel.bsc(0.2), 12, 0.6),
    ([0.4, 0.6], Kernel.bec(0.2), 6, 0.95),
])
def test_synthesized_type_tv_is_the_per_sample_loop(p, channel, N, R,
                                                    monkeypatch):
    code = build_synthesis_code(ProbVector(p), channel, N, R, RngStream(16))
    want = _type_tv_one_sample_at_a_time(code, RngStream(17), 12)
    assert synthesized_type_tv(code, RngStream(17), samples=12) == want
    # 5-word scoring chunks: 12 samples span a ragged final chunk
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS",
                        5 * 32 * len(code.codebook))
    assert len(list(code.scorer.chunks(np.zeros((12, N), np.uint8)))) == 3
    assert synthesized_type_tv(code, RngStream(17), samples=12) == want


def test_synthesized_tv_decreasing_in_blocklength():
    tvs = []
    for N in (8, 16, 24):
        code = build_synthesis_code(ProbVector([0.5, 0.5]), Kernel.bsc(0.2),
                                    N, 0.6, RngStream(13).child(N))
        tvs.append(synthesized_type_tv(code, RngStream(14).child(N),
                                       samples=48)[0])
    assert tvs[0] > tvs[1] > tvs[2]


# ---------------------------------------------------------------------------
# link behaviors

def test_coded_link_behavior_guards():
    code = build_channel_code(Kernel.bsc(0.11), 24, 0.4, RngStream(1))
    beh = CodedLinkBehavior(code)
    dmc_edge = Edge(0, 1, DmcChannel(Kernel.bsc(0.11)))
    with pytest.raises(ValueError):
        beh.make_handler(0, Edge(0, 1, BitPipe(0.4)), 24)
    with pytest.raises(ValueError):
        beh.make_handler(0, dmc_edge, 16)
    h = beh.make_handler(0, dmc_edge, 24)
    with pytest.raises(BudgetOverflow):
        h.transmit(RngStream(0).batch(), 0,
                   np.ones((1, code.payload_bits + 1), dtype=np.int64))
    bits_in, bits_out = h.transmit(RngStream(0).batch(), 0, [[1, 0, 1]])
    assert np.array_equal(bits_in, [[1, 0, 1]]) and bits_out.shape == (1, 3)


def test_coded_link_noiseless_is_transparent():
    code = build_channel_code(Kernel.identity(2), 8, 0.5, RngStream(2))
    h = CodedLinkBehavior(code).make_handler(0, Edge(
        0, 1, DmcChannel(Kernel.identity(2))), 8)
    for t in range(10):
        payload = index_to_bits([t], 4)
        _, out = h.transmit(RngStream(3).batch(), t, payload)
        assert np.array_equal(out, payload)


def test_synth_link_draws_its_own_code_per_time():
    """Time t synthesizes with the code build_synthesis_code draws from
    rng.child("code", t), its encoder reading ("synthenc", e, t); times 0
    and 1 use different codebooks."""
    law, bsc = ProbVector([0.5, 0.5]), Kernel.bsc(0.2)
    h = SynthLinkBehavior(law, bsc, 0.8, RngStream(15)).make_handler(
        3, Edge(0, 1, BitPipe(1.0)), 8)
    batch = RngStream(16).children("trial", range(5))
    x = sample_many(law.probs, RngStream(17).uniform((5, 8)))
    codes = [build_synthesis_code(law, bsc, 8, 0.8,
                                  RngStream(15).child("code", t))
             for t in range(2)]
    assert not np.array_equal(codes[0].codebook, codes[1].codebook)
    for t, code in enumerate(codes):
        x_in, y = h.transmit(batch, t, x)
        assert np.array_equal(x_in, x)
        assert np.array_equal(y, code.synthesize(
            x, batch.child("synthenc", 3, t)))


def test_synth_link_pipe_rate_guard(monkeypatch):
    """make_handler refuses a rate before any codebook is drawn; a handler
    it makes draws one code per transmit, from that time's stream."""
    built = []
    build = linkcodes.build_synthesis_code

    def counting(*args):
        built.append(args[-1].stream_id)
        return build(*args)

    monkeypatch.setattr(linkcodes, "build_synthesis_code", counting)
    law, bsc = ProbVector([0.5, 0.5]), Kernel.bsc(0.2)
    # ceil(8 * 0.8) = 7 code bits do not fit floor(8 * 0.5) = 4 pipe bits;
    # R = 0.3 is below I(X;Y) = 0.278 plus the 0.05 margin
    for pipe_rate, R in ((0.5, 0.8), (1.0, 0.3)):
        with pytest.raises(RateOutOfRange):
            SynthLinkBehavior(law, bsc, R, RngStream(17)).make_handler(
                0, Edge(0, 1, BitPipe(pipe_rate)), 8)
    assert built == []
    h = SynthLinkBehavior(law, bsc, 0.8, RngStream(17)).make_handler(
        0, Edge(0, 1, BitPipe(1.0)), 8)
    assert built == []
    h.transmit(RngStream(18).batch(), 2, np.zeros((1, 8), dtype=np.int64))
    assert built == [("code", 2)]


def test_aggregate_pipe_overflow_is_a_budget_overflow():
    """N = 12 copies of a rate-0.6 pipe carry floor(12 * 0.6) = 7 bits per
    use, and no more at any use."""
    edge = Edge(0, 1, BitPipe(0.6))
    h = AggregatePipeBehavior().make_handler(0, edge, 12)
    rng = RngStream(0).batch()
    bits = np.ones((1, 7), dtype=np.int64)
    assert all(np.array_equal(v, bits) for v in h.transmit(rng, 0, bits))
    with pytest.raises(BudgetOverflow):
        h.transmit(rng, 1, np.ones((1, 8), dtype=np.int64))
    with pytest.raises(BudgetOverflow):
        AggregatePipeBehavior().make_handler(0, edge, 12).transmit(
            rng, 0, np.ones((1, 8), dtype=np.int64))


def test_both_sides_of_link_replacement_cap_each_use():
    """At N = 24, R = 0.4 a use carries floor(9.6) = 9 bits on the coded link
    and on the aggregate pipe alike: 0 bits at t = 0 do not let 18 through
    at t = 1 on either side."""
    code = build_channel_code(Kernel.bsc(0.11), 24, 0.4, RngStream(1))
    handlers = [
        CodedLinkBehavior(code).make_handler(
            0, Edge(0, 1, DmcChannel(Kernel.bsc(0.11))), 24),
        AggregatePipeBehavior().make_handler(0, Edge(0, 1, BitPipe(0.4)), 24)]
    rng = RngStream(4).batch()
    for h in handlers:
        empty, out = h.transmit(rng, 0, np.zeros((1, 0), dtype=np.int64))
        assert empty.shape == out.shape == (1, 0)
        with pytest.raises(BudgetOverflow):
            h.transmit(rng, 1, np.ones((1, 18), dtype=np.int64))
        assert h.transmit(rng, 2, np.ones((1, 9), dtype=np.int64))[0].shape \
            == (1, 9)


def test_link_replacement_flushes_at_low_rate():
    """At R = 0.25 a use carries 6 of the 24 bits: 4 carrying uses plus one
    for the relay to flush, so noiseless pipes deliver every bit."""
    r = link_replacement_experiment(p=0.11, N=24, R=0.25, trials=20, seed=3,
                                    pe_trials=200)
    assert r["distortion_pipe"] == 0.0
    pe = r["link_report"]["p_e"]["0"]
    assert 0.0 <= pe <= 1.0


def test_synth_link_scoring_memory_does_not_grow_with_trials(monkeypatch):
    """A synthesized link on the engine scores its trials' words
    TypeScorer.chunks at a time: the traced peak of a run stays within the
    codebook and a few CHUNK_ELEMENTS-sized float64 arrays at 300 and at
    1200 trials. Weighing a whole engine chunk of 113 trials at once, about
    7 such arrays, would not."""
    monkeypatch.setattr(probkit, "CHUNK_ELEMENTS", 2 ** 14)
    net = NetworkSpec((0, 1), (Edge(0, 1, BitPipe(10 / 16)),),
                      {(0, 1): np.array([[0.0, 1.0], [1.0, 0.0]])},
                      IidJoint((2, 1), [0.5, 0.5]))
    code = lift_code(uncoded_relay(net, L=3), 16)
    law, bsc = ProbVector([0.5, 0.5]), Kernel.bsc(0.11)
    codebook = build_synthesis_code(law, bsc, 16, 10 / 16, RngStream(0))
    assert codebook.codebook.shape == (2 ** 10, 16)

    def peak(trials):
        behaviors = {0: SynthLinkBehavior(law, bsc, 10 / 16, RngStream(1))}
        tracemalloc.start()
        try:
            estimate_stacked_distortion(net, code, trials, RngStream(2),
                                        behaviors)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)   # a first call makes one-off allocations (imports, caches)
    for trials in (300, 1200):
        assert peak(trials) <= codebook.codebook.nbytes \
            + 4 * 8 * probkit.CHUNK_ELEMENTS
