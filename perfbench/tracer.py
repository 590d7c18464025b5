"""Spans around calls into sepnet's layers, recorded from outside the package.

Installing a Tracer replaces each traced function by a wrapper under every
name a sepnet module looks it up by (``experiments`` imports
``build_channel_code`` by name, so ``experiments.build_channel_code`` is
replaced as well as ``linkcodes.build_channel_code``), and each traced method
on its class. Uninstalling puts the originals back.

A span is ``(name_id, start, end, parent_index, amount_a, amount_b)``; spans
are kept in memory in call order and written out when the run ends. The
amounts carry counts measured at the boundary (solver iterations, words
decoded, codewords weighed, computed bytes).
"""

import json
import sys
from time import perf_counter

import numpy as np


def _iterations(args, result):
    return result.iterations, 0


def _decode_batch_amount(args, result):
    code, words = args[0], len(result)
    m, n = code.codebook.shape
    # computed, not measured: the float64 log-likelihood gather per word
    return words, words * m * n * 8


def _weights_rows(args, result):
    return result.size, 0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = [-1]
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        del self.spans[:]

    def wrap(self, name, fn, amount=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, 0, 0)
            if amount is not None:
                spans[idx] = (nid, t0, t1, parent) + amount(args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def _replace_function(self, fn, wrapper):
        """Point every sepnet module attribute that is ``fn`` at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sepnet"
                                   or mod_name.startswith("sepnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        from sepnet import (experiments, infosolvers, linkcodes, netmodel,
                            probkit, recipes, scenario, stacking)

        seed_stream = self.wrap("probkit.stream", probkit.RngStream.generator)

        def generator(stream):
            # only the first call on a stream seeds it; later calls are reads
            if stream._gen is not None:
                return stream._gen
            return seed_stream(stream)

        self._replace_method(probkit.RngStream, "generator", generator)

        functions = [
            ("probkit.sample_many", probkit.sample_many, None),
            ("infosolvers.capacity", infosolvers.blahut_capacity,
             _iterations),
            ("infosolvers.rd", infosolvers.blahut_rate_distortion,
             _iterations),
            ("infosolvers.invert", infosolvers.invert_rate_distortion,
             None),
            ("netmodel.run_block", netmodel.run_block, None),
            ("stacking.run_stacked_block", stacking.run_stacked_block,
             None),
            ("stacking.traces_match", stacking.traces_match, None),
            ("linkcodes.likelihood", linkcodes.likelihood_weights,
             _weights_rows),
            ("linkcodes.build_code", linkcodes.build_channel_code,
             None),
            ("linkcodes.build_code", linkcodes.build_synthesis_code,
             None),
            ("scenario.load", scenario.load_scenario, None),
        ]
        for fn_name in ("stack_check", "simulate",
                        "link_replacement_experiment",
                        "separation_experiment", "two_step_induction",
                        "verify_lemma1"):
            functions.append(("experiments." + fn_name,
                              getattr(experiments, fn_name), None))
        for name, fn, amount in functions:
            self._replace_function(fn, self.wrap(name, fn, amount))

        code = linkcodes.ChannelCode
        self._replace_method(code, "decode",
                             self.wrap("linkcodes.decode", code.decode))
        self._replace_method(code, "decode_batch",
                             self.wrap("linkcodes.decode_batch",
                                       code.decode_batch,
                                       _decode_batch_amount))
        for cls in vars(recipes).values():
            if isinstance(cls, type) and cls.__module__ == recipes.__name__ \
                    and "emit" in cls.__dict__:
                self._replace_method(cls, "emit",
                                     self.wrap("recipes.emit", cls.emit))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds and summed
        amounts, plus ``nested``: per (parent name, child name), how many
        spans of the child name were called directly by one of the parent.

        Self time is a span's duration minus the durations of its children;
        single-threaded children never overlap, so that is the time they
        cover."""
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 6)
        nid = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner],
                              minlength=len(arr))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        sums = [np.bincount(nid, weights=w, minlength=k)
                for w in (dur, dur - covered, arr[:, 4], arr[:, 5])]
        out = {name: {"calls": int(calls[i]), "s": float(sums[0][i]),
                      "self_s": float(sums[1][i]), "a": float(sums[2][i]),
                      "b": float(sums[3][i])}
               for i, name in enumerate(self.names)}
        pairs = np.bincount(nid[parent[inner]] * k + nid[inner],
                            minlength=k * k)
        nested = {(self.names[i // k], self.names[i % k]): int(pairs[i])
                  for i in np.flatnonzero(pairs)}
        return out, nested

    def write(self, path, origin):
        """Write the recorded spans, times in seconds from origin."""
        rows = [[s[0], round(s[1] - origin, 7), round(s[2] - origin, 7),
                 s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "amount_a", "amount_b"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
