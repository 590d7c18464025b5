"""Experiment harness: the end-to-end separation experiment, the stacking and
link-replacement verification suites, the conditional-independence (random
code) verifier, and tidy plot-data export.

Every experiment is a pure function of its parameters and a master seed, so
rerunning with the stored seed reproduces the result object exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .infosolvers import (blahut_capacity, blahut_rate_distortion,
                          invert_rate_distortion)
from .linkcodes import (AggregatePipeBehavior, CodedLinkBehavior,
                        LinkCodeReport, build_channel_code,
                        build_synthesis_code, codebook_bits,
                        estimate_error_prob, synthesis_code_bits,
                        synthesized_type_tv)
from .netmodel import (BitPipe, CodeParameters, DmcChannel, Edge, IidJoint,
                       MarkovJoint, NetworkSpec, estimate_distortion,
                       estimate_trials, run_block, trial_batches,
                       trial_elements)
from .probkit import (Kernel, ProbVector, RngBatch, RngStream, check_counts,
                      chunk_ranges, mean_stderr, sample_many, sample_rows)
from .recipes import (CodewordDecoder, QuantizeIndex, SendBits, XorDecoder,
                      XorRelay, build_recipe)
from .stacking import (StackedCode, destack_code, estimate_stacked_distortion,
                       lift_code, parity_class_dependence_tv,
                       run_stacked_block, traces_match)


# ---------------------------------------------------------------------------
# solver commands

def capacity_report(kernel, tol=1e-9):
    res = blahut_capacity(kernel, tol=tol)
    return {"experiment": "capacity",
            "value": res.capacity, "gap": res.gap,
            "iterations": res.iterations, "converged": res.converged,
            "optimizer": res.optimal_input.to_json()}


def rd_report(source, distortion_matrix, target_d, tol=1e-9):
    res = blahut_rate_distortion(source, distortion_matrix, target_d, tol=tol)
    return {"experiment": "rd",
            "value": res.rate, "gap": res.gap,
            "iterations": res.iterations, "converged": res.converged,
            "optimizer": res.test_channel.to_json()}


# ---------------------------------------------------------------------------
# generic simulation + stack check

def simulate(net, code_name, code_params, trials, seed):
    dm = estimate_distortion(net, build_recipe(code_name, net, **code_params),
                             trials, RngStream(seed))
    out = dm.to_json()
    out.update({"experiment": "simulate", "seed": seed})
    return out


def stack_check(net, code_name, code_params, N, trials, seed):
    """Layered-equivalence check: lifted N-layer run vs its de-stacked single-layer
    equivalent under coupled seeding; exact_match demands bit equality of
    every per-edge (x, y) sequence, layer l of stacked time t against
    single-layer time t*N + l."""
    check_counts(N=N)
    stacked = lift_code(build_recipe(code_name, net, **code_params), N)
    destacked = destack_code(stacked)
    exact = True
    s_vals, d_vals = [], []
    key, p = next(iter(net.demands)), destacked.params
    for r in trial_batches(RngStream(seed), trials,
                           trial_elements(net, p.n, p.L)):
        tr_s = run_stacked_block(net, stacked, r)
        tr_d = run_block(net, destacked, r)
        exact = exact and bool(traces_match(tr_s, tr_d).all())
        s_vals.append(tr_s.distortion[key])
        d_vals.append(tr_d.distortion[key])
    s_arr, d_arr = np.concatenate(s_vals), np.concatenate(d_vals)
    se = float(np.sqrt(s_arr.var(ddof=1) + d_arr.var(ddof=1)) /
               np.sqrt(trials)) if trials > 1 else 0.0
    return {"experiment": "stack-check", "N": N, "trials": trials,
            "seed": seed,
            "stacked_distortion": float(s_arr.mean()),
            "destacked_distortion": float(d_arr.mean()),
            "exact_match": bool(exact), "stderr": se}


# ---------------------------------------------------------------------------
# link replacement: line network, coded links vs bit-pipes

_HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def _bit_network(*edges):
    """Nodes 0, 1 and 2 joined by edges; node 0 holds uniform bits, which
    every node without an out-edge demands under Hamming distortion."""
    sinks = {e.head for e in edges} - {e.tail for e in edges}
    return NetworkSpec((0, 1, 2), edges,
                       {(0, b): _HAMMING for b in sorted(sinks)},
                       IidJoint((2, 1, 1), [0.5, 0.5]))


def _line_network(channel_for_link):
    return _bit_network(Edge(0, 1, channel_for_link),
                        Edge(1, 2, channel_for_link))


def _bit_forward_code(N, per_use, n):
    """Node 0 sends its N source bits (one per layer, L = 1) per_use at a
    time, node 1 forwards them one use behind, and node 2 reads them back.
    Every payload is one (T, k) bit array for all N layers of a use."""
    return StackedCode(
        encoders={0: SendBits([0], per_use), 1: XorRelay([0], [1])},
        decoders={(0, 2): XorDecoder([1], N)},
        N=N, params=CodeParameters(1, n))


def link_replacement_experiment(p=0.11, N=24, R=0.4, trials=10000, seed=0,
                           pe_trials=20000):
    """Run the same bit-forwarding scheme over (a) a two-link line of
    bit-pipes and (b) the same line with each pipe realized by channel
    coding across the N layers of a BSC(p), and compare distortions against
    the |E| * P_e,max * d_max excess bound."""
    rng = RngStream(seed)
    per_use = BitPipe(R).budget(N)
    if per_use < 1:
        raise ValueError("N * R must carry at least one whole bit per use")
    uses = -(-N // per_use)  # stacked uses that carry bits on each link
    n = uses + 1  # the relay forwards one use behind, so one more to flush
    code_tx = build_channel_code(Kernel.bsc(p), N, R, rng.child("code", 0))
    code_rx = build_channel_code(Kernel.bsc(p), N, R, rng.child("code", 1))

    net_noisy = _line_network(DmcChannel(Kernel.bsc(p)))
    cap = blahut_capacity(Kernel.bsc(p)).capacity
    net_pipe = _line_network(BitPipe(cap))

    scheme = _bit_forward_code(N, per_use, n)
    d_noisy = estimate_stacked_distortion(
        net_noisy, scheme, trials, rng.child("noisy"),
        {0: CodedLinkBehavior(code_tx), 1: CodedLinkBehavior(code_rx)})[(0, 2)]
    d_pipe = estimate_stacked_distortion(
        net_pipe, scheme, trials, rng.child("pipe"),
        {0: AggregatePipeBehavior(), 1: AggregatePipeBehavior()})[(0, 2)]

    # per-link block error probability: any of its codeword uses failing
    pe0, _ = estimate_error_prob(code_tx, pe_trials, rng.child("pe", 0))
    pe1, _ = estimate_error_prob(code_rx, pe_trials, rng.child("pe", 1))
    link_pe = {0: 1.0 - (1.0 - pe0) ** uses, 1: 1.0 - (1.0 - pe1) ** uses}
    report = LinkCodeReport(link_pe, n_edges=2, d_max=net_noisy.d_max)
    pooled_se = float(np.hypot(d_noisy[1], d_pipe[1]))
    return {"experiment": "link-replacement", "seed": seed, "N": N, "R": R,
            "trials": trials,
            "distortion_noisy": d_noisy[0], "stderr_noisy": d_noisy[1],
            "distortion_pipe": d_pipe[0], "stderr_pipe": d_pipe[1],
            "excess": d_noisy[0] - d_pipe[0],
            "excess_bound": report.excess_bound,
            "pooled_stderr": pooled_se,
            "link_report": report.to_json()}


# ---------------------------------------------------------------------------
# sweeps

def chancode_sweep(channel, Ns, R, trials=10000, seed=0, batches=1):
    check_counts(batches=batches)
    rows = []
    for b in range(batches):
        for N in Ns:
            rng = RngStream(seed).child("batch", b, "N", N)
            code = build_channel_code(channel, N, R, rng.child("code"))
            pe, se = estimate_error_prob(code, trials, rng.child("pe"))
            rows.append({"N": N, "R": R, "pe_mean": pe, "pe_stderr": se,
                         "seed_batch": b})
    return {"experiment": "chancode-sweep", "seed": seed, "rows": rows}


def synth_sweep(channel, input_law, Ns, R, batches=30, codebooks=8,
                samples=16, seed=0, enforce_margin=True):
    check_counts(batches=batches)
    rows = []
    for b in range(batches):
        for N in Ns:
            rng = RngStream(seed).child("batch", b, "N", N)
            tvs = []
            for c in range(codebooks):
                code = build_synthesis_code(input_law, channel, N, R,
                                            rng.child("code", c),
                                            enforce_margin=enforce_margin)
                mean, _ = synthesized_type_tv(code, rng.child("tv", c),
                                              samples=samples)
                tvs.append(mean)
            tv_mean, se = mean_stderr(tvs)
            rows.append({"N": N, "R": R, "tv_mean": tv_mean,
                         "tv_stderr": se, "seed_batch": b})
    return {"experiment": "synth-sweep", "seed": seed, "rows": rows}


# ---------------------------------------------------------------------------
# conditional-independence verifier (random codes at successive times)

# lemma 1's pass rule, read by lemma1_report and Lemma1Report.passed
LEMMA1_MIN_CELL = 100         # samples a cell needs, in it and outside it
LEMMA1_Z_CRIT = 2.58          # a z-score above this in magnitude exceeds
LEMMA1_SHARE_ALLOWED = 0.05   # share of z-scores that may exceed (>= 1)


@dataclass
class Lemma1Report:
    cells: dict                 # (x_prev, y_prev, x_cur) -> cell stats
    z_scores: list = field(default_factory=list)
    dropped: dict = field(default_factory=dict)  # cells left out, counts

    @property
    def exceedances(self):
        return sum(1 for z in self.z_scores if abs(z) > LEMMA1_Z_CRIT)

    @property
    def inconclusive(self):
        return not self.z_scores

    @property
    def passed(self):
        if self.inconclusive:
            return False
        allowed = max(1, int(np.floor(LEMMA1_SHARE_ALLOWED
                                      * len(self.z_scores))))
        return self.exceedances <= allowed

    def to_json(self):
        return {"cells": {repr(k): v for k, v in self.cells.items()},
                "z_scores": [float(z) for z in self.z_scores],
                "exceedances": self.exceedances,
                "num_z": len(self.z_scores),
                "passed": bool(self.passed),
                "inconclusive": bool(self.inconclusive),
                "dropped": {repr(k): v for k, v in self.dropped.items()}}


def _lemma1_draws(channel, N, R, trials, seed, n_times):
    """Layer-1 input x0 (trials,) and outputs y0 (trials, n_times) of a
    stacked point-to-point link whose outputs are produced by per-time
    synthesis codes, one per key k < n_times. The same input vector is
    re-sent at every time, so reusing the time-(t-1) code randomness at time
    t makes y_t collapse onto y_{t-1}: key 0 at every time is the reuse
    (negative) control.

    Trial j draws its input from stream ("trial", j, "x"), and uses the
    synthesis code of key k that build_synthesis_code draws from ("trial",
    j, "code", k), whose synthesize call reads its encoder uniform from
    ("trial", j, "w", k). Each chunk_ranges trial chunk is one batched
    synthesis code, a codebook per (trial, key); its streams equal the
    per-trial streams bit for bit."""
    if n_times < 2:
        raise ValueError("n_times must be >= 2, got %r: lemma 1 compares "
                         "successive times" % (n_times,))
    check_counts(trials=trials, N=N)
    p = ProbVector.uniform(channel.input_size)
    m = 2 ** synthesis_code_bits(p, channel, N, R)
    keys = range(n_times)
    x0 = np.empty(trials, dtype=np.int64)
    y0 = np.empty((trials, n_times), dtype=np.int64)
    rng = RngStream(seed)
    for js in chunk_ranges(trials, n_times * m * N):
        x = sample_many(p.probs, rng.children("trial", js).child("x")
                        .uniform(N))
        code = build_synthesis_code(p, channel, N, R, RngBatch(
            seed, [("trial", j, "code", key) for j in js for key in keys]))
        y = code.synthesize(np.repeat(x, n_times, axis=0), RngBatch(
            seed, [("trial", j, "w", key) for j in js for key in keys]))
        x0[js.start:js.stop] = x[:, 0]
        y0[js.start:js.stop] = y[:, 0].reshape(len(js), n_times)
        del code   # freed before the next chunk draws its own
    return x0, y0


def _lemma1_records(x0, y0, n_times, reuse):
    """Per time t >= 1, (trials, 4) records (x_{t-1}, y_{t-1}, x_t, y_t) of
    _lemma1_draws' output; under reuse every time reads y0's key-0 column."""
    return {t: np.stack([x0, y0[:, 0 if reuse else t - 1], x0,
                         y0[:, 0 if reuse else t]], axis=1)
            for t in range(1, n_times)}


def lemma1_report(records, out_size):
    """Compare, per conditioning cell, the conditional law of y_t against
    the law pooled from same-x_t samples outside the cell, for records (n,
    4) or lists of 4-tuples per time. A cell with samples but fewer than
    LEMMA1_MIN_CELL of them, in the cell or outside it, is not tested; it
    is listed in dropped with both counts."""
    cells = {}
    dropped = {}
    z_all = []
    for t, recs in records.items():
        arr = np.asarray(recs, dtype=np.int64).reshape(-1, 4)
        # one int per (x_prev, y_prev, x_t), ordered as the tuples are
        dims = arr[:, :3].max(axis=0, initial=0) + 1
        cells_at, cell = np.unique(np.ravel_multi_index(arr[:, :3].T, dims),
                                   return_inverse=True)
        for i, at in enumerate(cells_at):
            xp, yp, xc = (int(v) for v in np.unravel_index(at, dims))
            in_cell = cell == i
            rest = (arr[:, 2] == xc) & ~in_cell
            n1, n2 = int(in_cell.sum()), int(rest.sum())
            key = (t, xp, yp, xc)
            if n1 < LEMMA1_MIN_CELL or n2 < LEMMA1_MIN_CELL:
                dropped[key] = {"samples": n1, "rest": n2}
                continue
            lhs = np.bincount(arr[in_cell, 3], minlength=out_size) / n1
            rhs = np.bincount(arr[rest, 3], minlength=out_size) / n2
            pool = (lhs * n1 + rhs * n2) / (n1 + n2)
            var = pool * (1 - pool) * (1 / n1 + 1 / n2)
            z = np.zeros(out_size)
            z[var > 0] = (lhs - rhs)[var > 0] / np.sqrt(var[var > 0])
            cells[key] = {"lhs": lhs.tolist(), "rhs": rhs.tolist(),
                          "samples": n1, "z": z.tolist()}
            z_all.extend(z.tolist())
    return Lemma1Report(cells, z_all, dropped)


def verify_lemma1(channel, N=8, R=0.8, trials=8000, seed=0, n_times=3):
    """Positive control (independent per-time codes) and negative control
    (code randomness reused across times) under the same pass criterion.
    Both come from one draw: the negative control's streams are the
    positive control's key-0 streams."""
    x0, y0 = _lemma1_draws(channel, N, R, trials, seed, n_times)
    pos, neg = (lemma1_report(_lemma1_records(x0, y0, n_times, reuse),
                              channel.output_size) for reuse in (False, True))
    return {"experiment": "lemma1", "seed": seed, "N": N, "R": R,
            "trials": trials,
            "positive": pos.to_json(), "negative": neg.to_json(),
            "positive_passed": bool(pos.passed),
            "negative_failed": bool(not neg.passed)}


# ---------------------------------------------------------------------------
# two-step induction check (synthesis codes at successive times)

def two_step_induction(channel=Kernel.bsc(0.2), N=24, R=0.6, trials=256,
                       replicates=8, seed=0):
    """n = 2 point-to-point scenario: x1 i.i.d. uniform, y1 from a synthesis
    code, x2 = x1 xor y1, y2 from an independent second synthesis code.
    Compares the pooled empirical law of (x1, y1, x2, y2) against the true
    network's Monte Carlo law at the same sample budget."""
    check_counts(replicates=replicates, trials=trials)
    p = ProbVector.uniform(channel.input_size)
    rng = RngStream(seed)
    k = channel.input_size

    synth_counts = np.zeros(k ** 2 * channel.output_size ** 2)
    true_counts = np.zeros_like(synth_counts)
    shape = (k, channel.output_size, k, channel.output_size)
    cums = np.cumsum(channel.matrix, axis=1)

    def tally(counts, x1, y1, x2, y2):
        flat = np.ravel_multi_index((x1, y1, x2, y2), shape)
        counts += np.bincount(flat.reshape(-1), minlength=counts.size)

    for rep in range(replicates):
        r = rng.child("rep", rep)
        code1 = build_synthesis_code(p, channel, N, R, r.child("code", 0))
        code2 = build_synthesis_code(p, channel, N, R, r.child("code", 1))
        rj = r.children("trial", range(trials))
        x1 = sample_many(p.probs, rj.child("x").uniform(N))
        y1 = code1.synthesize(x1, rj.child("w", 0))
        x2 = (x1 + y1) % k
        y2 = code2.synthesize(x2, rj.child("w", 1))
        tally(synth_counts, x1, y1, x2, y2)
        # true network at matched sample count
        u = rj.child("true").uniform((2, N))
        ty1 = sample_rows(cums[x1], u[:, 0])
        tx2 = (x1 + ty1) % k
        ty2 = sample_rows(cums[tx2], u[:, 1])
        tally(true_counts, x1, ty1, tx2, ty2)

    synth_law = synth_counts / synth_counts.sum()
    true_law = true_counts / true_counts.sum()
    tv = 0.5 * float(np.abs(synth_law - true_law).sum())
    return {"experiment": "two-step-induction", "seed": seed, "N": N,
            "R": R, "trials": trials, "replicates": replicates,
            "tv": tv, "samples": int(synth_counts.sum())}


# ---------------------------------------------------------------------------
# separation experiment

def separation_experiment(p=0.11, kappa=1.0, quantizer_bits=(6, 8, 10),
                          trials=10000, seed=0, link_rate=0.4):
    """The separated scheme (random quantizer + link transport) over the
    true BSC(p) with a channel code versus over a capacity bit-pipe.

    Per quantizer size, one stacked run of N = L layers on a fork: node 0
    sends its quantizer index to node 1 over the coded BSC and to node 2
    over the pipe, so both sides share every trial's source and index.
    Trial j of the k-bit size runs on streams ("size", k, "trial", j)."""
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive, got %r"
                         % (kappa,))
    if not (np.isfinite(link_rate) and link_rate > 0):
        raise ValueError("link_rate must be finite and positive, got %r"
                         % (link_rate,))
    if not all(isinstance(k, (int, np.integer)) and k > 0
               for k in quantizer_bits):
        raise ValueError("quantizer_bits must be positive integers, got %r"
                         % (quantizer_bits,))
    check_counts(trials=trials)
    sizes = [(k, max(1, int(round(k / link_rate)))) for k in quantizer_bits]
    for k_bits, L in sizes:  # the cap, before any codebook is drawn
        codebook_bits(L, k_bits / L)
    bsc = Kernel.bsc(p)
    cap = blahut_capacity(bsc).capacity
    net = _bit_network(Edge(0, 1, DmcChannel(bsc)), Edge(0, 2, BitPipe(cap)))
    d_star = invert_rate_distortion(net.sources.pmf, _HAMMING, cap / kappa)
    rng = RngStream(seed)
    rows = []
    for k_bits, L in sizes:
        r = rng.child("size", k_bits)
        # quantizer codebook from the R(D)-optimal output marginal (uniform
        # for the binary symmetric problem), minimum-distortion encoding
        qcb = (r.child("qcb").uniform((2 ** k_bits, L)) < 0.5).astype(np.uint8)
        cc = build_channel_code(bsc, L, k_bits / L, r.child("ccode"))
        code = StackedCode(
            encoders={0: QuantizeIndex([0, 1], qcb, _HAMMING)},
            decoders={(0, 1): CodewordDecoder(0, qcb),
                      (0, 2): CodewordDecoder(1, qcb)},
            N=L, params=CodeParameters(1, 1))
        behaviors = {0: CodedLinkBehavior(cc), 1: AggregatePipeBehavior()}

        def run(batch):
            tr = run_stacked_block(net, code, batch, behaviors)
            x, y = tr.edge_io[0][0]
            return {"D_noisy": tr.distortion[0, 1],
                    "D_pipe": tr.distortion[0, 2],
                    "p_e": (x != y).any(axis=1)}

        est = estimate_trials(run, trials, r, trial_elements(net, L, L))
        (d_noisy, se_noisy), (d_pipe, se_pipe) = est["D_noisy"], est["D_pipe"]
        pe, se_pe = est["p_e"]
        report = LinkCodeReport({0: pe}, n_edges=1, d_max=net.d_max)
        rows.append({"quantizer_bits": k_bits, "block_length": L,
                     "D_pipe": d_pipe, "stderr_pipe": se_pipe,
                     "D_noisy": d_noisy, "stderr_noisy": se_noisy,
                     "p_e": pe, "p_e_stderr": se_pe,
                     "excess_bound": report.excess_bound,
                     "pooled_stderr": float(np.hypot(se_pipe, se_noisy))})
    return {"experiment": "separation", "seed": seed, "p": p, "kappa": kappa,
            "trials": trials, "capacity": cap, "D_target": d_star,
            "rows": rows}


# ---------------------------------------------------------------------------
# mixing demonstration

def mixing_demo(flip=0.4, L=64, samples=20000, seed=0, num_blocks=4):
    chain = MarkovJoint((2,), [0.5, 0.5],
                        [[1 - flip, flip], [flip, 1 - flip]])
    tv = parity_class_dependence_tv(chain, L, num_blocks=num_blocks,
                                    samples=samples, rng=RngStream(seed))
    return {"experiment": "mixing", "seed": seed, "flip": flip, "L": L,
            "samples": samples, "tv": tv}


# ---------------------------------------------------------------------------
# plot data export

def emit_plotdata(rows, path, columns):
    """Tidy CSV export of result rows, one line per (sweep point, seed
    batch), with the given columns in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in columns) + "\n")
    return path
