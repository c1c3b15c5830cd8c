"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree and that a run emits each one.
README.md in this directory maps each layer metric to the end-to-end metric
and workload it should move.
"""

# (name, unit, better, bound)
END_TO_END = [
    ("utt_per_s", "1/s", "higher", 0.25),
    ("predict_ms_p50", "ms", "lower", 0.25),
    ("predict_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# Ops the seed's training and predict paths call; the full per-op table of a
# traced run, with operand shapes, is in its report file.
OPS = ("add", "concat", "conv1d", "cross_entropy", "dropout", "embedding_rows",
       "getitem", "layer_norm", "matmul", "max_pool_time", "mul", "neg", "relu",
       "reshape", "sigmoid", "softmax", "stack_rows", "transpose", "zero_rows")

# (name, unit, better, how it is computed from a tracing.Summary s and the
# run's extra counts c).  "per step" is per training step on train-*
# workloads and per predict request on infer-long.  Times are self times
# unless the comment says total.
PER_LAYER = [
    ("audio.featurize_wav.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("audio.featurize_wav")),
    ("audio.read_mel_cache.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("audio.read_mel_cache")),
    ("data.featurize_manifest.ms_per_utt", "ms", "lower",
     lambda s, c: s.self_ms_per_info("data.featurize_manifest")),
    ("data.encode_manifest.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("data.encode_manifest")),
    ("data.pad_frame_share", "share", "lower", lambda s, c: _share(c, "pad_frames", "frames")),
    ("data.pad_word_share", "share", "lower", lambda s, c: _share(c, "pad_words", "words")),
    ("data.batch_wait.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("data.batch_wait")),
    ("text.tokenize_and_g2p.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("text.tokenize_and_g2p")),
    ("text.word_combiner.calls_per_step", "count", "lower",
     lambda s, c: s.calls_per_step("text.word_combiner")),
    ("text.word_combiner.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("text.word_combiner")),
    ("text.phoneme_cnn.calls_per_step", "count", "lower", lambda s, c: s.calls_per_step("text.phoneme_cnn")),
    ("text.phoneme_cnn.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("text.phoneme_cnn")),
    ("text.prenet.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("text.prenet")),
    # total time of MultilevelTransformer.forward_utterance
    ("model.forward.ms_per_step", "ms", "lower", lambda s, c: s.total_ms_per_step("model.forward")),
    ("model.encode_text.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("model.encode_text")),
    ("model.encode_mel.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("model.encode_mel")),
    # self time of forward_utterance: fusion blocks and head, less their attention and linears
    ("model.fusion_and_head.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("model.forward")),
    ("model.attention.calls_per_step", "count", "lower", lambda s, c: s.calls_per_step("model.attention")),
    ("model.attention.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("model.attention")),
    ("model.save_checkpoint.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("model.save_checkpoint")),
    ("model.restore.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("model.restore")),
    ("fusion.forward.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("fusion.forward")),
    ("fusion.utt_vector.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("fusion.utt_vector")),
    # includes the ops' backward closures; autograd.op.*.bwd_ms_per_step splits them out
    ("autograd.backward.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("autograd.backward")),
    ("autograd.graph_nodes_per_step", "count", "lower", lambda s, c: c["graph_nodes"] / s.n_units),
    ("autograd.const_nodes_per_step", "count", "lower", lambda s, c: c["const_nodes"] / s.n_units),
    ("autograd.graph_mb_per_step", "MB", "lower", lambda s, c: c["graph_bytes"] / 2**20 / s.n_units),
    ("nn.linear.calls_per_step", "count", "lower", lambda s, c: s.calls_per_step("nn.linear")),
    ("nn.linear.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("nn.linear")),
    # best-state copies per protocol run
    ("nn.state_dict.calls", "count", "lower",
     lambda s, c: s.calls("nn.state_dict") / max(1, c["protocol_runs"])),
    ("nn.state_dict.ms", "ms", "lower", lambda s, c: s.self_ms_per_call("nn.state_dict")),
    # total time of one step: forward, backward, clip and Adam
    ("harness.step.ms_p50", "ms", "lower", lambda s, c: s.total_ms_percentile("harness.step", 50)),
    ("harness.step.ms_p90", "ms", "lower", lambda s, c: s.total_ms_percentile("harness.step", 90)),
    ("harness.clip.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("harness.clip")),
    ("harness.adam.ms_per_step", "ms", "lower", lambda s, c: s.self_ms_per_step("harness.adam")),
    # total evaluation time per evaluated utterance
    ("harness.evaluate.ms_per_utt", "ms", "lower",
     lambda s, c: s.self_ms_per_info("harness.evaluate", total=True)),
    # wall time of a traced protocol run or request cycle over an untraced one
    ("trace.overhead_pct", "%", "lower", lambda s, c: c["overhead_pct"]),
]
for _op in OPS:
    PER_LAYER += [
        (f"autograd.op.{_op}.calls_per_step", "count", "lower",
         lambda s, c, op=_op: s.calls_per_step(f"{op}.fwd")),
        (f"autograd.op.{_op}.fwd_ms_per_step", "ms", "lower",
         lambda s, c, op=_op: s.self_ms_per_step(f"{op}.fwd")),
        (f"autograd.op.{_op}.bwd_ms_per_step", "ms", "lower",
         lambda s, c, op=_op: s.self_ms_per_step(f"{op}.bwd")),
    ]


def _share(counts, part, whole):
    return counts[part] / counts[whole] if counts[whole] else 0.0


def layer_metrics(summary, counts):
    return {name: {"value": float(fn(summary, counts)), "unit": unit}
            for name, unit, _, fn in PER_LAYER}
