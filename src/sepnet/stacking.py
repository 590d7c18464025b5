"""Stacked-network machinery: run stacked codes, lift a single-layer code to
N independent layers, de-stack an N-layer code into an interleaved
single-layer equivalent, and the even/odd layer split for sources with
memory.

Layer/time indexing is 0-based throughout. The interleaving schedule maps
(layer l, stacked time t) to single-layer time tau = t*N + l, so every
stacked-time-(t-1) observation lands strictly before every stacked-time-t
emission.

Noise coupling: one keying rule covers every run. The use of a DMC edge e
at single-layer time tau of an N-fold interleaved run reads entry tau mod N
of the stream child("edge", e, tau // N); the stacked run draws all N entries
of child("edge", e, t) at stacked time t, and a plain single-layer run is the
N = 1 case. The de-stacked link draws uniform(N) from each period's stream
once, at the period's first use, and keeps it for the period's later
layers, so coupled seeds reproduce the stacked run's channel realizations bit
for bit. A de-stacked encoder keeps its period's stacked emission the same
way. All three runs go through the one step loop, netmodel.run_steps. A
stacked block, run_stacked_block(net, code, rng, behaviors), takes N from
code.N and swaps the edges named in behaviors for link codes; a de-stacked
block is a run_block of the de-stacked policy, whose schedule gives N.

Every run carries a batch of T trials on the leading axis of its arrays (see
netmodel): a stacked DMC use is (T, N), a stacked pipe payload (T, N, k), and
the lifted, de-stacked and parity codes slice and stack layers along axis 1.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import (CodeParameters, CodingPolicy, estimate_trials,
                       raw_link, run_steps, stack_arrays, trial_elements)


@dataclass(frozen=True)
class InterleaveSchedule:
    """Bijection between (layer, stacked time) and single-layer time."""
    N: int
    n: int

    @property
    def total_time(self):
        return self.N * self.n

    def to_single(self, t, layer):
        if not (0 <= t < self.n and 0 <= layer < self.N):
            raise ValueError("schedule index out of range")
        return t * self.N + layer

    def to_stacked(self, tau):
        if not 0 <= tau < self.total_time:
            raise ValueError("schedule index out of range")
        return tau // self.N, tau % self.N

    def check(self):
        """Exhaustive bijectivity + dependency-preservation check."""
        seen = set()
        for t in range(self.n):
            for l in range(self.N):
                tau = self.to_single(t, l)
                if self.to_stacked(tau) != (t, l):
                    raise ValueError("schedule is not a bijection at "
                                     "(t=%d, layer=%d)" % (t, l))
                seen.add(tau)
        if seen != set(range(self.total_time)):
            raise ValueError("schedule does not cover every single-layer time")
        # every period-(t-1) observation precedes every period-t emission
        for t in range(1, self.n):
            latest_obs = max(self.to_single(t - 1, l) for l in range(self.N))
            earliest_em = min(self.to_single(t, l) for l in range(self.N))
            if latest_obs >= earliest_em:
                raise ValueError("period %d emits before period %d is "
                                 "observed" % (t, t - 1))
        return True


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
        lambda r: run_stacked_block(net, code, r, behaviors), trials, rng,
        trial_elements(net, code.params.n, code.N * code.params.L, code.N))


# ---------------------------------------------------------------------------
# lifting: one independent code copy per layer

class _Lifted:
    def __init__(self, base, L, N):
        self.base = base
        self.L = L
        self.N = N

    def layer_view(self, u_full, received_all, l):
        """Layer l's (T, L) source sub-block and its own history."""
        return (u_full[:, l * self.L:(l + 1) * self.L],
                {e: [obs[:, l] for obs in seq]
                 for e, seq in received_all.items()})


class LiftedEncoder(_Lifted):
    """Runs an independent copy of a single-layer encoder in each layer."""

    def emit(self, t, u_full, received_all, rng):
        out = {}
        for l in range(self.N):
            em = self.base.emit(t, *self.layer_view(u_full, received_all, l),
                                rng.child("layer", l))
            for e, v in em.items():
                out.setdefault(e, [None] * self.N)[l] = v
        return {e: stack_arrays(v, 1, "layer emissions on edge %d" % e)
                for e, v in out.items()}


class LiftedDecoder(_Lifted):
    def decode(self, u_full, received_all, rng):
        return np.concatenate(
            [self.base.decode(*self.layer_view(u_full, received_all, l),
                              rng.child("layer", l)) for l in range(self.N)],
            axis=1)


def lift_code(code, params, N):
    """Run the same single-layer code independently
    in each of the N layers, on the l-th source sub-block."""
    return StackedCode(
        encoders={a: LiftedEncoder(enc, params.L, N)
                  for a, enc in code.encoders.items()},
        decoders={k: LiftedDecoder(dec, params.L, N)
                  for k, dec in code.decoders.items()},
        N=N, params=params)


# ---------------------------------------------------------------------------
# de-stacking: the interleaved single-layer equivalent

def _regroup(received_single, N, periods):
    """Single-layer histories regrouped into the first `periods` stacked-time
    outputs, each stacking N layer outputs on axis 1."""
    return {e: [stack_arrays(seq[t * N:(t + 1) * N], 1,
                             "outputs of edge %d in period %d" % (e, t))
                for t in range(periods)]
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

    def __init__(self, stacked_enc, schedule):
        self.enc = stacked_enc
        self.sched = schedule
        self._em = None   # the current period's stacked emission

    def emit(self, tau, u_full, received_single, rng):
        t, layer = self.sched.to_stacked(tau)
        if layer == 0:
            self._em = self.enc.emit(
                t, u_full, _regroup(received_single, self.sched.N, t), rng)
        return {e: v[:, layer] for e, v in self._em.items()}


class DestackedDecoder:
    def __init__(self, stacked_dec, schedule):
        self.dec = stacked_dec
        self.sched = schedule

    def decode(self, u_full, received_single, rng):
        return self.dec.decode(
            u_full, _regroup(received_single, self.sched.N, self.sched.n), rng)


@dataclass
class DestackedPolicy(CodingPolicy):
    schedule: InterleaveSchedule = None


def destack_code(stacked):
    """The interleaved single-layer equivalent of an N-layer code.

    Returns a policy over blocks of N*L source symbols and N*n channel uses;
    kappa is preserved exactly. Run it through run_block with the stacked
    run's streams so channel noise couples with the stacked run.
    """
    sched = InterleaveSchedule(stacked.N, stacked.params.n)
    policy = DestackedPolicy(
        encoders={a: DestackedEncoder(enc, sched)
                  for a, enc in stacked.encoders.items()},
        decoders={k: DestackedDecoder(dec, sched)
                  for k, dec in stacked.decoders.items()},
        schedule=sched)
    params = CodeParameters(stacked.N * stacked.params.L,
                            stacked.N * stacked.params.n)
    return policy, params


def _rows_equal(a, b):
    """Per trial row, whether a and b agree in shape and in every entry."""
    if a.shape != b.shape:
        return np.zeros(len(a), dtype=bool)
    return (a == b).reshape(len(a), -1).all(axis=1)


def traces_match(stacked_trace, single_trace, schedule):
    """Per trial row, True iff its per-edge (x, y) sequences agree exactly
    under the schedule."""
    ok = np.ones(len(next(iter(stacked_trace.u.values()))), dtype=bool)
    for e, seq in stacked_trace.edge_io.items():
        flat = single_trace.edge_io[e]
        for t, (xv, yv) in enumerate(seq):
            for l in range(schedule.N):
                x1, y1 = flat[schedule.to_single(t, l)]
                ok &= _rows_equal(xv[:, l], x1) & _rows_equal(yv[:, l], y1)
    return ok


# ---------------------------------------------------------------------------
# even/odd layer split for mixing sources

class _Parity:
    def __init__(self, inner, L, N_inner):
        self.inner = inner
        self.L = L
        self.Ni = N_inner

    def interleave(self, classes):
        """Class arrays (T, Ni, ...) merged so that layer 2j + c holds class
        c's layer j: (T, 2 Ni, ...)."""
        merged = stack_arrays(classes, 2, "parity class outputs")
        return merged.reshape((len(merged), 2 * self.Ni) + merged.shape[3:])

    def class_view(self, u_full, received_all, c):
        """Class c's source blocks (layers c, c + 2, ...) and its own
        layers' history."""
        u = u_full.reshape(len(u_full), self.Ni, 2, self.L)[:, :, c]
        return (u.reshape(len(u_full), -1),
                {e: [obs[:, c::2] for obs in seq]
                 for e, seq in received_all.items()})


class _ParityEncoder(_Parity):
    def emit(self, t, u_full, received_all, rng):
        em = [self.inner.emit(t, *self.class_view(u_full, received_all, c),
                              rng.child("class", c)) for c in (0, 1)]
        return {e: self.interleave([em[0].get(e), em[1].get(e)])
                for e in em[0].keys() | em[1].keys()}


class _ParityDecoder(_Parity):
    def decode(self, u_full, received_all, rng):
        r = [self.inner.decode(*self.class_view(u_full, received_all, c),
                               rng.child("class", c)).reshape(
                                   len(u_full), self.Ni, self.L)
             for c in (0, 1)]
        return self.interleave(r).reshape(len(u_full), -1)


def even_odd_split(stacked, source):
    """Code even-numbered layers together and odd-numbered layers together.

    The given N-layer code is instantiated once per parity class; class c
    carries source blocks c, c+2, c+4, ... and sees only its own layers'
    history. Returns a 2N-layer code. Requires a source with memory (the
    construction is the identity statistically for i.i.d. sources).
    """
    if stacked.N < 1:
        raise ValueError("need at least one layer per class")
    L, Ni = stacked.params.L, stacked.N
    return StackedCode(
        encoders={a: _ParityEncoder(enc, L, Ni)
                  for a, enc in stacked.encoders.items()},
        decoders={k: _ParityDecoder(dec, L, Ni)
                  for k, dec in stacked.decoders.items()},
        N=2 * Ni, params=stacked.params)


def parity_class_dependence_tv(source, L, rng, num_blocks=4, samples=20000):
    """Dependence left inside one parity class, as a total variation.

    Takes node 0's first source symbol in each of `num_blocks` consecutive
    even-class blocks (blocks 0, 2, 4, ...), estimates their joint law by
    Monte Carlo, and returns its TV distance to the product of the estimated
    marginals. Near 0 when blocks of length L have mixed; large when L is
    too short for the chain's memory.
    """
    length = (2 * (num_blocks - 1)) * L + 1
    draws = source.draw_many(length, samples, rng.child("mixing"))
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
