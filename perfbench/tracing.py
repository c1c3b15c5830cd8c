"""Spans around the program's layers, recorded from outside the program.

A traced run installs wrappers on the module attributes and class methods
the program calls through (``autograd.matmul``, ``harness.clip_gradients``,
``text.WordCombiner.__call__`` ...), so the program itself is unchanged.
Spans are kept in memory and written out when the run ends.

Two kinds of span nest independently: *layer* spans (model stages, modules,
harness steps) and *op* spans (autograd ops, forward and backward).  A
layer's self time is its duration minus the layer spans nested in it; an
op's self time is its duration minus the op spans nested in it.  So an op
that runs inside a layer still counts towards that layer's self time, and a
``Linear`` inside attention does not.
"""

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from melformer import audio, autograd, data, fusion, harness, model, nn, text

LAYER, OP = "layer", "op"
NAME, KIND, START, END, PARENT, STEP, INFO = range(7)

# autograd functions that are engine plumbing, not ops
NOT_OPS = {"no_grad", "backward", "gradcheck", "gradcheck_sampled"}


class Tracer:
    """Records spans ``[name, kind, start, end, parent, step, info]``.

    ``parent`` is the index of the innermost open span of the same kind;
    ``step`` is the id of the training step or predict request that was
    running, or -1.  ``steps`` maps each id to "train" or "request".
    """

    def __init__(self):
        self.records = []
        self.steps = {}
        self.step = -1
        self._next_step = 0
        self.counts = defaultdict(float)
        self._open = {LAYER: [], OP: []}
        self._undo = []

    @property
    def installed(self):
        return bool(self._undo)

    # -- spans -------------------------------------------------------------

    def begin(self, name, kind=LAYER, info=None):
        stack = self._open[kind]
        self.records.append([name, kind, time.perf_counter(), None,
                             stack[-1] if stack else -1, self.step, info])
        idx = len(self.records) - 1
        stack.append(idx)
        return idx

    def end(self, idx):
        rec = self.records[idx]
        rec[END] = time.perf_counter()
        stack = self._open[rec[KIND]]
        while stack and stack.pop() != idx:
            pass

    def new_step(self, phase):
        """Open a step or request; only counted while the wrappers are installed."""
        if not self.installed:
            return -1
        self.step = self._next_step
        self._next_step += 1
        self.steps[self.step] = phase
        return self.step

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, wrapper)

    def _layer(self, owner, attr, name, info=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, info=info(args) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        self._patch(owner, attr, wrapper)

    def _op(self, name):
        fn = getattr(autograd, name)
        fwd, bwd = f"{name}.fwd", f"{name}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            shapes = _shapes(args)
            idx = self.begin(fwd, OP, shapes)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            inner = getattr(out, "_backward", None)
            # a compound op (dropout -> mul) returns a tensor whose backward
            # the inner op already timed
            if inner is not None and not getattr(inner, "traced", False):
                def timed_backward():
                    j = self.begin(bwd, OP, shapes)
                    try:
                        inner()
                    finally:
                        self.end(j)
                timed_backward.traced = True
                out._backward = timed_backward
            return out

        self._patch(autograd, name, wrapper)

    def _batches(self):
        fn = harness.batches

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                step = self.new_step("train")
                idx = self.begin("data.batch_wait")
                try:
                    batch = next(it)
                except StopIteration:
                    self.records[idx][STEP] = self.step = -1
                    del self.steps[step]
                    return
                finally:
                    self.end(idx)
                for enc, pad_words, pad_frames in batch:
                    self.counts["pad_frames"] += pad_frames
                    self.counts["frames"] += enc.n_frames + pad_frames
                    self.counts["pad_words"] += pad_words
                    self.counts["words"] += enc.n_words + pad_words
                idx = self.begin("harness.step")
                try:
                    yield batch
                finally:
                    self.end(idx)
                    self.step = -1

        self._patch(harness, "batches", wrapper)

    def _backward(self):
        fn = autograd.backward

        @functools.wraps(fn)
        def wrapper(loss):
            nodes, consts, nbytes = graph_size(loss)
            self.counts["graph_nodes"] += nodes
            self.counts["const_nodes"] += consts
            self.counts["graph_bytes"] += nbytes
            idx = self.begin("autograd.backward")
            try:
                return fn(loss)
            finally:
                self.end(idx)

        self._patch(autograd, "backward", wrapper)

    def install(self):
        """Wrap every traced layer and op; ``uninstall`` undoes it."""
        n_utts = lambda args: len(args[1])  # noqa: E731
        layers = [
            (audio, "featurize_wav", "audio.featurize_wav", None),
            (data, "featurize_wav", "audio.featurize_wav", None),
            (data, "read_mel_cache", "audio.read_mel_cache", None),
            (data, "featurize_manifest", "data.featurize_manifest",
             lambda args: len(args[0].records)),
            (data, "encode_manifest", "data.encode_manifest", None),
            (text, "tokenize_and_g2p", "text.tokenize_and_g2p", None),
            (data, "tokenize_and_g2p", "text.tokenize_and_g2p", None),
            (text.WordCombiner, "__call__", "text.word_combiner", None),
            (text.PhonemeCNN, "embed_word", "text.phoneme_cnn", None),
            (text.EncoderPrenet, "__call__", "text.prenet", None),
            (model.MultilevelTransformer, "forward_utterance", "model.forward", None),
            (model.MultilevelTransformer, "encode_text", "model.encode_text", None),
            (model.MultilevelTransformer, "encode_mel", "model.encode_mel", None),
            (model.MultiHeadAttention, "__call__", "model.attention", None),
            (harness, "save_checkpoint", "model.save_checkpoint", None),
            (model, "restore_model", "model.restore", None),
            (fusion, "restore_fusion_model", "model.restore", None),
            (fusion.MultiGranularityModel, "forward_utterance", "fusion.forward", None),
            (fusion.MultiGranularityModel, "utt_vector", "fusion.utt_vector", None),
            (nn.Linear, "__call__", "nn.linear", None),
            (nn.Module, "state_dict", "nn.state_dict", None),
            (harness, "clip_gradients", "harness.clip", None),
            (harness.Adam, "step", "harness.adam", None),
            (harness, "evaluate", "harness.evaluate", n_utts),
        ]
        for owner, attr, name, info in layers:
            self._layer(owner, attr, name, info)
        self._batches()
        self._backward()
        for name in op_names():
            self._op(name)

    def uninstall(self):
        for owner, attr, orig, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """All spans as gzipped JSON lines, times in microseconds from the first."""
        t0 = self.records[0][START] if self.records else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, kind, start, end, parent, step, info) in enumerate(self.records):
                fh.write(json.dumps({
                    "i": i, "name": name, "kind": kind,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1) if end is not None else None,
                    "parent": parent, "step": step,
                    "phase": self.steps.get(step), "info": info}) + "\n")


def op_names():
    return sorted(name for name, fn in vars(autograd).items()
                  if inspect.isfunction(fn) and fn.__module__ == autograd.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


def _shapes(args):
    tensor = autograd.Tensor
    return [a.data.shape if type(a) is tensor else f"{len(a)} tensors"
            for a in args
            if type(a) is tensor or (type(a) is list and a and type(a[0]) is tensor)]


def graph_size(loss):
    """(nodes, constant nodes, bytes of data) in the graph below ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    nodes = consts = nbytes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        consts += not node.requires_grad
        nbytes += node.data.nbytes
        for parent in node._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, consts, nbytes


# ---------------------------------------------------------------------------
# aggregation


def self_times(records):
    """Self time in seconds of every span, as a list aligned with ``records``."""
    child = [0.0] * len(records)
    dur = [0.0] * len(records)
    for i, rec in enumerate(records):
        if rec[END] is None:
            continue
        dur[i] = rec[END] - rec[START]
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur[i]
    return [d - c for d, c in zip(dur, child)], dur


class Summary:
    """Per-name totals over the spans of the unit steps (train or request)."""

    def __init__(self, tracer, unit_phase):
        self.tracer = tracer
        self.self_s, self.dur_s = self_times(tracer.records)
        self.unit_steps = {s for s, p in tracer.steps.items() if p == unit_phase}
        self.n_units = max(1, len(self.unit_steps))
        self.by_name = defaultdict(list)
        for i, rec in enumerate(tracer.records):
            if rec[END] is not None:
                self.by_name[rec[NAME]].append(i)

    def _in_units(self, name):
        return [i for i in self.by_name.get(name, ())
                if self.tracer.records[i][STEP] in self.unit_steps]

    def calls_per_step(self, name):
        return len(self._in_units(name)) / self.n_units

    def self_ms_per_step(self, name):
        return 1e3 * sum(self.self_s[i] for i in self._in_units(name)) / self.n_units

    def total_ms_per_step(self, name):
        return 1e3 * sum(self.dur_s[i] for i in self._in_units(name)) / self.n_units

    def self_ms_per_call(self, name):
        idx = self.by_name.get(name, ())
        return 1e3 * sum(self.self_s[i] for i in idx) / len(idx) if idx else 0.0

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total_ms_percentile(self, name, q):
        durs = [self.dur_s[i] for i in self._in_units(name)]
        return 1e3 * float(np.percentile(durs, q)) if durs else 0.0

    def self_ms_per_info(self, name, total=False):
        """Time per unit of the count each span carries in ``info``."""
        idx = self.by_name.get(name, ())
        n = sum(self.tracer.records[i][INFO] for i in idx)
        times = self.dur_s if total else self.self_s
        return 1e3 * sum(times[i] for i in idx) / n if n else 0.0

    def op_table(self):
        """{op: (calls, fwd ms, bwd ms) per step} for every op that ran."""
        table = {}
        for name in op_names():
            calls = self.calls_per_step(f"{name}.fwd")
            if calls or self.calls(f"{name}.fwd"):
                table[name] = (calls, self.self_ms_per_step(f"{name}.fwd"),
                               self.self_ms_per_step(f"{name}.bwd"))
        return table

    def shape_table(self, limit=15):
        """Backward ops with their operand shapes, largest self time first."""
        totals = defaultdict(lambda: [0, 0.0])
        for name, idx in self.by_name.items():
            if not name.endswith(".bwd"):
                continue
            for i in idx:
                if self.tracer.records[i][STEP] in self.unit_steps:
                    key = f"{name[:-4]} {self.tracer.records[i][INFO]}"
                    totals[key][0] += 1
                    totals[key][1] += self.self_s[i]
        rows = sorted(totals.items(), key=lambda kv: -kv[1][1])[:limit]
        return [{"op": k, "calls_per_step": n / self.n_units,
                 "ms_per_step": 1e3 * t / self.n_units} for k, (n, t) in rows]
