"""Model-level tests: shapes, masking, attention structure, gradients,
checkpoints.

The single-key attention oracle is computed by hand from the layer's weight
matrices; the all-heads attention is checked against a per-head loop over
column slices; parameter counts come from the closed-form formula;
everything else is either a structural contract or goes through the
finite-difference harness.  Gradient and determinism tests run in eval mode
(or with equally seeded dropout on both sides) so dropout cannot inject
noise.
"""

import json
import struct

import numpy as np
import pytest

from melformer import autograd as ag
from melformer import nn
from melformer.autograd import Segments, Tensor, gradcheck_sampled
from melformer.config import ModelConfig
from melformer.errors import FormatError, ShapeError, ValidationError
from melformer.fusion import MultiGranularityModel
from melformer.model import (
    CrossModalBlock,
    EncoderBlock,
    FeedForward,
    MultiHeadAttention,
    MultilevelTransformer,
    Pack,
    build_variant,
    load_checkpoint,
    rebuild_model,
    restore_model,
    save_checkpoint,
)
from melformer.text import hash_word_vectors

from helpers import (WORDS, attention_modules, expected_parameter_count, make_enc, make_model,
                     nudge_off_kinks, parameter_count, per_utterance_batch, small_config,
                     utterance_logits, zero_fill_backward)

# ---------------------------------------------------------------------------
# attention structure

def test_single_token_self_attention_weight_is_one():
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(16, 2, rng)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 16)))
    mha(x, x, Segments([1]), Segments([1]))
    assert mha.last_weights.shape == (2, 1, 1)
    assert np.allclose(mha.last_weights, 1.0)


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(16, 2, rng, self_attention=False)
    q = Tensor(np.random.default_rng(3).standard_normal((4, 16)))
    kv = Tensor(np.random.default_rng(4).standard_normal((6, 16)))
    mha(q, kv, Segments([4]), Segments([6], valid=[4]))
    assert np.all(mha.last_weights >= 0.0)
    assert np.allclose(mha.last_weights.sum(axis=2), 1.0, atol=1e-6)
    # masked key columns get exactly zero weight
    assert np.all(mha.last_weights[:, :, 4:] == 0.0)


def test_single_key_attention_is_affine_in_the_key():
    """With one key, softmax weights are 1, so every output row equals
    wo(v(text_vec)) independent of the query, where v is the value block
    (the leading 16 columns) of the key/value projection. Oracle: dense
    affine math on the layer's own matrices."""
    rng = np.random.default_rng(5)
    mha = MultiHeadAttention(16, 2, rng, self_attention=False)
    q = Tensor(np.random.default_rng(6).standard_normal((5, 16)))
    kv = Tensor(np.random.default_rng(7).standard_normal((1, 16)))
    out = mha(q, kv, Segments([5]), Segments([1]))
    v = kv.data @ mha.wvk.weight.data[:, :16] + mha.wvk.bias.data
    expected = v @ mha.wo.weight.data + mha.wo.bias.data
    assert np.allclose(out.data, np.repeat(expected, 5, axis=0), atol=1e-12)


def test_key_valid_longer_than_sequence_rejected():
    rng = np.random.default_rng(8)
    mha = MultiHeadAttention(16, 2, rng)
    x = Tensor(np.zeros((3, 16)))
    with pytest.raises(ShapeError):
        mha(x, x, Segments([3]), Segments([3], valid=[4]))


def _per_head_attention(mha, queries, keys_values, q_segs, k_segs, drop=None):
    """Reference attention: q, k and v sliced out of the fused projections
    by ``getitem``, then one segment and one head at a time over column
    slices of them, with the scale on the scores and the key mask as an
    additive [Tq, Tk] tensor -> (output, last segment's weights).
    ``drop``'s keep mask, scaled by the inverse of the rule's exact kept
    share, 2**16 / (2**16 - ceil(rate * 2**16)), is drawn once over the
    fused op's flat map (segment, then head, then query and key) and sliced
    per segment and head: 16-bit draws of sizes that are not multiples of
    four do not compose into one."""
    d = mha.wo.n_in

    def block(t, i):
        return ag.getitem(t, (slice(None), slice(i * d, (i + 1) * d)))

    if mha.self_attention:
        qvk = mha.wqvk(queries)
        q, v, k = block(qvk, 0), block(qvk, 1), block(qvk, 2)
    else:
        vk = mha.wvk(keys_values)
        q, v, k = mha.wq(queries), block(vk, 0), block(vk, 1)
    d_head = d // mha.heads
    if drop is not None:
        flat = mha.heads * int(np.dot(q_segs.lengths, k_segs.lengths))
        kept_share = (2**16 - np.ceil(drop.rate * 2**16)) / 2**16
        keep = ag._keep_mask(drop.rng, (flat,), drop.rate, np.float64)[0] / kept_share
        at = 0
    rows = []
    for (q0, q1, _), (k0, k1, valid) in zip(q_segs.spans(), k_segs.spans()):
        mask = np.zeros((q1 - q0, k1 - k0))
        mask[:, valid:] = ag.NEG_MASK
        outs, weights = [], []
        for h in range(mha.heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            qh, kh = ag.getitem(q, (slice(q0, q1), cols)), ag.getitem(k, (slice(k0, k1), cols))
            vh = ag.getitem(v, (slice(k0, k1), cols))
            raw = ag.matmul(qh, ag.transpose(kh))
            scale = Tensor(np.full(raw.shape, 1.0 / np.sqrt(d_head), dtype=raw.data.dtype))
            scores = ag.add(ag.mul(raw, scale), Tensor(mask))
            att = ag.softmax(scores)
            weights.append(att.data.copy())
            if drop is not None:
                size = (q1 - q0) * (k1 - k0)
                att = ag.mul(att, Tensor(keep[at:at + size].reshape(q1 - q0, k1 - k0)))
                at += size
            outs.append(ag.matmul(att, vh))
        rows.append(ag.concat(outs, axis=1))
    return mha.wo(ag.concat(rows, axis=0)), np.stack(weights)


def _batched_attention(mha, queries, keys_values, q_segs, k_segs, drop=None):
    out = mha(queries, keys_values, q_segs, k_segs, drop=drop)
    return out, mha.last_weights


def _attention_run(attend, mha, q_lengths, k_lengths, self_attention, key_valid, rate):
    """Output, weights, and grads of the parameters and inputs of one call.

    Lengths and valid counts are per segment, or one int for a single
    segment; ``key_valid`` None means no padding."""
    q_segs = Segments(np.atleast_1d(q_lengths))
    k_segs = Segments(np.atleast_1d(k_lengths),
                      valid=None if key_valid is None else np.atleast_1d(key_valid))
    rng = np.random.default_rng(41)
    kv = Tensor(rng.standard_normal((k_segs.total, 16)), requires_grad=True)
    q = kv if self_attention else Tensor(rng.standard_normal((q_segs.total, 16)),
                                         requires_grad=True)
    probe = Tensor(rng.standard_normal((q_segs.total, 16)))
    drop = nn.Dropout(rate, np.random.default_rng(42)) if rate else None
    out, weights = attend(mha, q, kv, q_segs, k_segs, drop)
    ag.backward(ag.tsum(ag.mul(out, probe)))
    grads = {name: p.grad.copy() for name, p in mha.named_parameters()}
    grads.update(q=q.grad.copy(), kv=kv.grad.copy())
    return out.data.copy(), weights.copy(), grads


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n_q, n_k, self_attention, key_valid", [
    (5, 7, False, None), (5, 7, False, 7), (5, 7, False, 4), (6, 6, True, 3),
    # a pack of three: cls-only queries against padded key segments
    pytest.param([1, 1, 1], [5, 7, 4], False, [3, 7, 2], id="packed-cls-padded"),
    pytest.param([4, 6, 3], [4, 6, 3], True, [4, 5, 3], id="packed-self-padded")])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_batched_heads_match_per_head_loop(heads, n_q, n_k, self_attention, key_valid, rate):
    mha = MultiHeadAttention(16, heads, np.random.default_rng(40), self_attention=self_attention)
    args = (mha, n_q, n_k, self_attention, key_valid, rate)
    out, weights, grads = _attention_run(_batched_attention, *args)
    ref_out, ref_weights, ref_grads = _attention_run(_per_head_attention, *args)

    def rel_err(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

    assert weights.shape == (heads, np.atleast_1d(n_q)[-1], np.atleast_1d(n_k)[-1])
    assert rel_err(out, ref_out) <= 1e-12
    assert rel_err(weights, ref_weights) <= 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert rel_err(grads[name], ref) <= 1e-12, name


def test_attention_is_one_node_on_one_projection_per_input():
    """Graph walk over a training loss: each attention node's parents are
    its projections, one matmul per input (one [d, 3d] q | v | k projection
    for self-attention; a [d, d] query and a [d, 2d] v | k projection where
    the queries are other rows), and no bias reaches a key column."""
    model, cfg, wv = make_model(seed=46)
    d = cfg.d_model
    batch = [(make_enc(wv, seed=47 + s, n_words=2 + s, n_frames=5 + s), 0, 0) for s in range(3)]
    loss = ag.cross_entropy(model.forward_batch(batch), [0, 1, 2])
    names = {id(p): name.rsplit(".", 2)[-2:] for name, p in model.named_parameters()}
    layouts = []
    for node in _graph_tensors(loss):
        if node._prev and node._backward.__qualname__.startswith("attention."):
            projections = node._prev
            assert all(p._backward.__qualname__.startswith("matmul.") for p in projections)
            # each projection node's parents: its input rows, a weight and a bias
            layouts.append(sorted((names[id(w)], w.shape, names[id(b)], b.shape)
                                  for _, w, b in (p._prev for p in projections)))
    self_layout = [(["wqvk", "weight"], (d, 3 * d), ["wqvk", "bias"], (2 * d,))]
    cross_layout = [(["wq", "weight"], (d, d), ["wq", "bias"], (d,)),
                    (["wvk", "weight"], (d, 2 * d), ["wvk", "bias"], (d,))]
    n_self = cfg.layers_text + cfg.layers_cross + cfg.layers_fusion - 1
    assert sorted(layouts) == sorted([self_layout] * n_self
                                     + [cross_layout] * (cfg.layers_cross + 1))
    assert not [name for name, _ in model.named_parameters() if ".wk." in name]
    mha = model.fusion_blocks[0].attn
    assert mha.last_weights.base is not None  # a view of the node's map, not a copy


def test_blocks_put_no_add_node_in_the_loss_graph(monkeypatch):
    """Biases ride in ``matmul`` and residuals in ``layer_norm``, so no text,
    cross or fusion block adds an ``add`` node to a training loss's graph;
    the position signal, outside the blocks, still does."""
    model, _, wv = make_model(seed=60)
    depth, inside, outside = [0], [], []
    add = ag.add

    def recording_add(a, b):
        out = add(a, b)
        (inside if depth[0] else outside).append(out)
        return out

    monkeypatch.setattr(ag, "add", recording_add)
    for block in (EncoderBlock, CrossModalBlock):
        def entering(self, *args, call=block.__call__):
            depth[0] += 1
            try:
                return call(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(block, "__call__", entering)
    batch = [(make_enc(wv, seed=s, n_words=2 + s, n_frames=5 + s), 0, 0) for s in range(3)]
    loss = ag.cross_entropy(model.forward_batch(batch), [0, 1, 2])
    nodes = {id(t) for t in _graph_tensors(loss)}
    assert any(id(t) in nodes for t in outside)
    assert not any(id(t) in nodes for t in inside)


def test_each_highway_layer_is_one_node_and_only_the_position_signals_add(monkeypatch):
    """The highway gating is one ``highway`` node per layer, so a training
    loss's graph has no ``sigmoid``, ``neg`` or ``mul`` node, and its only
    ``add`` nodes are the two ``nn.add_positions`` outputs."""
    model, cfg, wv = make_model(seed=61)
    assert cfg.combine_mode == "highway"
    positions = []
    add_positions = nn.add_positions

    def recording(x, segs):
        positions.append(add_positions(x, segs))
        return positions[-1]

    monkeypatch.setattr(nn, "add_positions", recording)
    batch = [(make_enc(wv, seed=s, n_words=2 + s, n_frames=5 + s), 0, 0) for s in range(3)]
    loss = ag.cross_entropy(model.forward_batch(batch), [0, 1, 2])
    by_op = {}
    for t in _graph_tensors(loss):
        if t._backward is not None:
            by_op.setdefault(t._backward.__qualname__.split(".")[0], []).append(t)
    assert len(by_op["highway"]) == len(model.combiner.layers) == 2
    assert not {"sigmoid", "neg", "mul"} & set(by_op)
    assert sorted(map(id, by_op["add"])) == sorted(map(id, positions)) and len(positions) == 2


def test_attention_graph_does_not_grow_with_heads():
    counts = []
    for heads in (1, 2, 4):
        mha = MultiHeadAttention(16, heads, np.random.default_rng(43))
        x = Tensor(np.random.default_rng(44).standard_normal((6, 16)), requires_grad=True)
        drop = nn.Dropout(0.5, np.random.default_rng(45))
        counts.append(_graph_nodes(mha(x, x, Segments([6]), Segments([6], valid=[4]), drop=drop)))
    assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# mel prenet

def test_mel_prenet_shape_and_zero_map():
    rng = np.random.default_rng(9)
    prenet = FeedForward(128, 16, 16, rng)
    out = prenet(Tensor(np.zeros((7, 128))))
    assert out.shape == (7, 16)
    assert np.all(out.data == 0.0)  # biases start at zero


def test_mel_prenet_gradcheck():
    rng = np.random.default_rng(10)
    prenet = FeedForward(6, 5, 5, rng)
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)

    def f(*_):
        return ag.tsum(prenet(x))

    err = gradcheck_sampled(f, [x] + prenet.parameters(), per_tensor=6,
                            rng=np.random.default_rng(11))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# whole-model forward

def test_forward_shapes_and_trace_contract():
    model, cfg, wv = make_model(precision="float64")
    model.eval()
    enc = make_enc(wv, n_words=3, n_frames=5)
    trace = model.forward_utterance(enc)
    assert set(vars(trace)) == {"cls", "logits"}
    pack = Pack([(enc, 0, 0)], wv.pad_id, model.dtype)
    text = model.encode_text(pack)
    assert text.shape == (3, 16)
    assert model.encode_mel(pack, text).shape == (5, 16)
    assert trace.cls.shape == (16,)
    assert trace.logits.shape == (4,)
    relogits = trace.cls.data @ model.head.weight.data + model.head.bias.data
    assert np.allclose(relogits, trace.logits.data, atol=1e-12)


def test_probabilities_sum_to_one():
    model, _, wv = make_model(seed=1)
    model.eval()
    probs = model.predict_probs(make_enc(wv, seed=2))
    assert probs.shape == (4,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= 0.0)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_predict_probs_needs_no_softmax_op(monkeypatch, precision):
    model, _, wv = make_model(seed=1, precision=precision)
    enc = make_enc(wv, seed=2)
    model.eval()
    with ag.no_grad():
        logits = model.forward_utterance(enc).logits.data
    expected = ag.softmax(Tensor(logits.astype(np.float64))).data
    model.train()

    def refuse(_):
        raise AssertionError("predict_probs called the softmax op")

    monkeypatch.setattr(ag, "softmax", refuse)
    probs = model.predict_probs(enc)
    assert probs.dtype == np.float64 and probs.tobytes() == expected.tobytes()
    assert model.training


def test_eval_forward_is_deterministic():
    model, _, wv = make_model(seed=3)
    model.eval()
    enc = make_enc(wv, seed=4)
    a = model.forward_utterance(enc).logits.data
    b = model.forward_utterance(enc).logits.data
    assert np.array_equal(a, b)


def test_train_mode_dropout_changes_outputs():
    model, _, wv = make_model(seed=5)
    model.train()
    enc = make_enc(wv, seed=6)
    a = model.forward_utterance(enc).logits.data
    b = model.forward_utterance(enc).logits.data
    assert not np.array_equal(a, b)


def test_padding_invariance_of_logits():
    model, _, wv = make_model(seed=7)
    model.eval()
    enc = make_enc(wv, seed=8, n_words=3, n_frames=5)
    plain = model.forward_utterance(enc).logits.data
    padded = model.forward_utterance(enc, pad_words=2, pad_frames=3).logits.data
    assert np.max(np.abs(plain - padded)) < 1e-5


def test_attention_rows_sum_to_one_at_every_layer():
    model, _, wv = make_model(seed=9)
    model.eval()
    model.forward_utterance(make_enc(wv, seed=10), pad_words=1, pad_frames=2)
    mhas = attention_modules(model)
    assert len(mhas) == 1 + 2 + 2  # text, cross (self+cross), two fusion blocks
    for mha in mhas:
        assert mha.last_weights is not None
        assert np.allclose(mha.last_weights.sum(axis=2), 1.0, atol=1e-6)


@pytest.mark.parametrize("layers_fusion", [1, 2])
def test_cls_rows_equal_row_zero_of_the_full_last_block(layers_fusion):
    """The last fusion block runs on the cls rows only; run over every row
    as ``block(x, x, segs, segs)``, its position-0 rows are the same."""
    model, _, wv = make_model(seed=11, layers_fusion=layers_fusion, precision="float64")
    model.eval()
    rows = [(make_enc(wv, seed=12, n_words=3, n_frames=6), 1, 2),
            (make_enc(wv, seed=13, n_words=2, n_frames=4), 0, 0)]
    pack = Pack(rows, wv.pad_id, model.dtype)
    trace = model.forward_utterance(pack)
    x = model.encode_mel(pack, model.encode_text(pack))
    for block in model.fusion_blocks:
        x = block(x, x, pack.frames, pack.frames)
    full_cls = x.data[pack.frames.offsets[:-1]]
    assert trace.cls.shape == (2, 16)
    assert np.max(np.abs(trace.cls.data - full_cls)) <= 1e-12


def test_untrained_models_predict_near_uniform():
    """Monte-Carlo over init seeds: fresh symmetric init has no class bias."""
    totals = np.zeros(4)
    n = 100
    for seed in range(n):
        model, _, wv = make_model(seed=1000 + seed)
        model.eval()
        totals += model.predict_probs(make_enc(wv, seed=2000 + seed))
    mean = totals / n
    assert np.all(np.abs(mean - 0.25) < 0.05)


# ---------------------------------------------------------------------------
# packed batches against the per-utterance oracle

def _model(granularity, combine_mode, seed=50, **overrides):
    cfg = small_config(combine_mode=combine_mode, **overrides)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    if granularity == "fine":
        return MultilevelTransformer(cfg, wv, seed=seed), wv
    utt_dim = None if granularity == "multi" else 6
    return MultiGranularityModel(cfg, wv, utt_dim=utt_dim, seed=seed), wv


def _rows(wv, n, granularity):
    """n utterances of unequal lengths, each padded differently."""
    shapes = [(3, 5, 0, 0), (5, 9, 2, 0), (1, 4, 0, 3), (4, 7, 1, 2)]
    rows, from_file = [], granularity == "multi-file"
    for i, (n_words, n_frames, pad_words, pad_frames) in enumerate(shapes[:n]):
        emb = np.random.default_rng(60 + i).standard_normal(6) if from_file else None
        rows.append((make_enc(wv, seed=51 + i, n_words=n_words, n_frames=n_frames,
                              utt_embedding=emb), pad_words, pad_frames))
    return rows


def _logits_grads_and_maps(model, forward, rows):
    model.zero_grad()
    logits = forward(model, rows)
    ag.backward(ag.cross_entropy(logits, list(range(len(rows)))))
    grads = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
    maps = [mha.last_weights.copy() for mha in attention_modules(model)]
    return logits.data.copy(), grads, maps


def _assert_packed_matches_the_oracle(model, rows, bound=1e-10):
    logits, grads, maps = _logits_grads_and_maps(model, lambda m, r: m.forward_batch(r), rows)
    ref_logits, ref_grads, ref_maps = _logits_grads_and_maps(model, per_utterance_batch, rows)

    def rel_err(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

    assert logits.shape == (len(rows), 4)
    assert rel_err(logits, ref_logits) <= bound
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == ref.dtype == model.dtype, name
        assert rel_err(grads[name], ref) <= bound, name
    # last_weights holds the pack's last segment, which the oracle ran last;
    # the last fusion block computes only the oracle's query row 0
    assert len(maps) == len(ref_maps)
    ref_maps[-1] = ref_maps[-1][:, :1]
    for weights, ref in zip(maps, ref_maps):
        assert weights.shape == ref.shape
        assert rel_err(weights, ref) <= bound


@pytest.mark.parametrize("granularity", ["fine", "multi", "multi-file"])
@pytest.mark.parametrize("combine_mode", ["highway", "concat"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_batch_matches_the_per_utterance_oracle(granularity, combine_mode, n):
    model, wv = _model(granularity, combine_mode, dropout=0.0, finetune_word_vectors=True,
                       precision="float64")
    _assert_packed_matches_the_oracle(model, _rows(wv, n, granularity))


# float32 rounds at about 6e-8 relative, and the pack sums in another order
# than the oracle; through these models that grows to at most about 2e-6
# (logits, gradients and maps).  1e-4 leaves room for other BLAS builds and
# still catches a packing fault, which shows at order 1.
F32_ORACLE_BOUND = 1e-4


@pytest.mark.parametrize("granularity", ["fine", "multi", "multi-file"])
@pytest.mark.parametrize("combine_mode", ["highway", "concat"])
def test_float32_packed_batch_matches_the_per_utterance_oracle(granularity, combine_mode):
    model, wv = _model(granularity, combine_mode, dropout=0.0, finetune_word_vectors=True)
    assert model.dtype == np.float32
    _assert_packed_matches_the_oracle(model, _rows(wv, 4, granularity), bound=F32_ORACLE_BOUND)


@pytest.mark.parametrize("granularity", ["fine", "multi", "multi-file"])
@pytest.mark.parametrize("layers_fusion", [1, 2])
def test_cls_only_last_block_matches_the_oracle_at_each_fusion_depth(granularity,
                                                                     layers_fusion):
    """With one fusion block the cls-only block reads the cross-modal stream
    itself; every row of the pack carries word and frame padding."""
    model, wv = _model(granularity, "highway", dropout=0.0, finetune_word_vectors=True,
                       layers_fusion=layers_fusion, precision="float64")
    rows = [(enc, pad_words + 1, pad_frames + 2)
            for enc, pad_words, pad_frames in _rows(wv, 4, granularity)]
    _assert_packed_matches_the_oracle(model, rows)


@pytest.mark.parametrize("layers_fusion", [1, 2, 3])
def test_only_the_last_fusion_block_runs_on_cls_rows(layers_fusion):
    """Structural guard: every FFN but the last fusion block's has ΣT
    hidden rows; that one has one row per utterance, and its attention map
    has one query row."""
    model, wv = _model("fine", "highway", layers_fusion=layers_fusion)
    rows = _rows(wv, 3, "fine")
    pack = Pack(rows, wv.pad_id, model.dtype)
    out = model.forward_utterance(pack).logits
    d_ff, heads = model.cfg.d_ff, model.cfg.heads
    assert pack.words.total != pack.frames.total and d_ff not in (model.cfg.d_model, 128)
    hidden = [node.shape[0] for node in _graph_tensors(out) if node._prev
              and node._backward.__qualname__.startswith("relu.") and node.shape[1:] == (d_ff,)]
    assert sorted(hidden) == sorted([len(rows)]
                                    + [pack.words.total] * model.cfg.layers_text
                                    + [pack.frames.total] * (model.cfg.layers_cross
                                                             + layers_fusion - 1))
    assert model.fusion_blocks[-1].attn.last_weights.shape == (heads, 1, pack.frames.lengths[-1])


@pytest.mark.parametrize("granularity", ["fine", "multi"])
def test_predict_probs_matches_the_per_utterance_oracle(granularity):
    model, wv = _model(granularity, "highway", seed=52, precision="float64")
    enc = make_enc(wv, seed=53, n_words=4, n_frames=8)
    probs = model.predict_probs(enc)
    model.eval()
    ref = ag.softmax(ag.reshape(utterance_logits(model, enc), (1, -1))).data[0]
    assert np.max(np.abs(probs - ref)) <= 1e-12


@pytest.mark.parametrize("granularity", ["fine", "multi"])
@pytest.mark.parametrize("combine_mode", ["highway", "concat"])
def test_forward_batch_graph_does_not_grow_with_the_batch(granularity, combine_mode):
    model, wv = _model(granularity, combine_mode)
    rows = [(enc, 0, 0) for enc, _, _ in _rows(wv, 4, granularity)]
    one = _graph_nodes(model.forward_batch(rows[:1]))
    four = _graph_nodes(model.forward_batch(rows))
    assert one == four


@pytest.mark.parametrize("granularity", ["fine", "multi"])
def test_every_forward_goes_through_forward_utterance(granularity, monkeypatch):
    """Training batches, evaluation and prediction all enter the model's
    one forward, which is what the benchmark times as its forward span."""
    model, wv = _model(granularity, "highway")
    rows = [(enc, 0, 0) for enc, _, _ in _rows(wv, 3, granularity)]
    seen = []
    forward = type(model).forward_utterance
    monkeypatch.setattr(type(model), "forward_utterance",
                        lambda self, enc, *args: seen.append(type(enc)) or forward(self, enc, *args))
    assert model.forward_batch(rows).shape == (3, 4)
    assert model.predict_probs(rows[0][0]).shape == (4,)
    assert seen == [Pack, type(rows[0][0])]
    with pytest.raises(ShapeError):  # a pack carries its own padding
        forward(model, Pack(rows, wv.pad_id, model.dtype), 1)


def test_position_table_rows_are_the_formula_and_read_only():
    def formula(length, dim):
        position = np.arange(length)[:, None].astype(np.float64)
        div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
        pe = np.zeros((length, dim))
        pe[:, 0::2] = np.sin(position * div)
        pe[:, 1::2] = np.cos(position * div[: dim // 2])
        return pe

    for dim in (16, 7):
        for length in [*range(1, 301), 5]:
            rows = nn.sinusoidal_positions(length, dim)
            assert rows.tobytes() == formula(length, dim).tobytes(), (dim, length)
            assert not rows.flags.writeable


def test_packed_positions_count_from_zero_in_each_segment():
    x = Tensor(np.zeros((5, 4)))
    packed = nn.add_positions(x, Segments([2, 3])).data
    np.testing.assert_array_equal(packed[:2], nn.sinusoidal_positions(2, 4))
    np.testing.assert_array_equal(packed[2:], nn.sinusoidal_positions(3, 4))


# ---------------------------------------------------------------------------
# gradients

def test_end_to_end_gradcheck_two_sample_batch():
    model, _, wv = make_model(seed=13, precision="float64")
    model.eval()
    nudge_off_kinks(model, seed=99)
    encs = [make_enc(wv, seed=14, n_words=2, n_frames=4),
            make_enc(wv, seed=15, n_words=3, n_frames=3)]
    labels = [1, 2]

    def f(*_):
        return ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), labels)

    params = model.parameters()
    err = gradcheck_sampled(f, params, per_tensor=2, rng=np.random.default_rng(16))
    assert err < 1e-4


def test_every_parameter_receives_gradient():
    model, _, wv = make_model(seed=17)
    model.eval()
    encs = [make_enc(wv, seed=18), make_enc(wv, seed=19)]
    loss = ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), [0, 3])
    ag.backward(loss)
    dead = [name for name, p in model.named_parameters()
            if p.grad is None or not np.any(p.grad)]
    assert dead == []


def _train_mode_leaf_grads(granularity, rate, backward):
    cfg = small_config(dropout=rate)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = (MultilevelTransformer(cfg, wv, seed=21) if granularity == "fine"
             else MultiGranularityModel(cfg, wv, utt_dim=None, seed=21))
    encs = [make_enc(wv, seed=22 + i, n_words=2 + i, n_frames=4 + 3 * i) for i in range(3)]
    loss = ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), [0, 3, 1])
    backward(loss)
    return {name: p.grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("granularity", ["fine", "multi"])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_leaf_grads_match_the_zero_filling_backward(granularity, rate):
    grads = _train_mode_leaf_grads(granularity, rate, ag.backward)
    ref = _train_mode_leaf_grads(granularity, rate, zero_fill_backward)
    assert grads.keys() == ref.keys()
    # every parameter is in the graph
    assert [n for n, g in ref.items() if g is None] == []
    assert [n for n, g in grads.items() if g is None] == []
    for name, g in grads.items():
        assert g.shape == ref[name].shape, name
        # the oracle's 0.0 + g turns a -0.0 into +0.0; nothing else may differ
        assert (g + 0.0).tobytes() == ref[name].tobytes(), name


# ---------------------------------------------------------------------------
# parameter count and checkpoints

def test_parameter_count_matches_formula():
    model, cfg, _ = make_model()
    assert parameter_count(model) == expected_parameter_count(cfg)


def test_parameter_count_formula_default_config():
    cfg = ModelConfig()
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultilevelTransformer(cfg, wv)
    assert parameter_count(model) == expected_parameter_count(cfg)


def test_parameter_count_with_finetuned_word_vectors():
    model, cfg, wv = make_model(finetune_word_vectors=True)
    expected = expected_parameter_count(cfg, vocab_rows=wv.matrix.shape[0])
    assert parameter_count(model) == expected


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model, cfg, wv = make_model(seed=20)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model, cfg, extra={"seed": 20})
    restored, rcfg, extra = restore_model(p1, wv)
    assert extra == {"seed": 20}
    assert rcfg.d_model == cfg.d_model
    save_checkpoint(p2, restored, rcfg, extra={"seed": 20})
    assert p1.read_bytes() == p2.read_bytes()


def test_restored_model_reproduces_logits(tmp_path):
    model, cfg, wv = make_model(seed=21)
    model.eval()
    enc = make_enc(wv, seed=22)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, cfg)
    restored, _, _ = restore_model(path, wv)
    restored.eval()
    # records in the model's precision restore it exactly
    assert restored.dtype == model.dtype == np.float32
    a = model.forward_utterance(enc).logits.data
    b = restored.forward_utterance(enc).logits.data
    assert np.array_equal(a, b)


def _drop_header_key(path, section, key):
    """Rewrite a checkpoint's JSON header without ``header[section][key]``."""
    raw = path.read_bytes()
    end = 8 + int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8:end])
    del header[section][key]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[end:])


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_header_without_precision_restores_as_float32(tmp_path, precision):
    """A header without ``precision`` means the float32 default: a float32
    checkpoint restores as float32, and a float64 one, whose records are
    twice as long as that header says, is refused as malformed, not misread."""
    model, cfg, wv = make_model(seed=23, precision=precision)
    path = tmp_path / "old.ckpt"
    if precision == "float64":
        # the first stored value's low word reads as a float32 NaN: the file
        # must still be refused for its layout, not for that value
        first = sorted(model.named_parameters())[0][1]
        first.data.reshape(-1)[0] = np.array([0x3F8000007FC00000], np.uint64).view(np.float64)[0]
    save_checkpoint(path, model, cfg, extra={"seed": 23})
    _drop_header_key(path, "model", "precision")
    if precision == "float64":
        with pytest.raises(FormatError) as exc_info:
            load_checkpoint(path)
        assert str(exc_info.value).startswith(f"{path}: ")
        return
    restored, rcfg, _ = restore_model(path, wv)
    assert rcfg.precision == "float32" and restored.dtype == np.float32
    stored = load_checkpoint(path)[2]
    for name, p in restored.named_parameters():
        assert p.data.dtype == np.float32, name
        assert np.array_equal(p.data, stored[name]), name


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_load_checkpoint_returns_the_parameters_bit_for_bit(tmp_path, precision):
    model, cfg, _ = make_model(seed=24, precision=precision)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, cfg)
    params = load_checkpoint(path)[2]
    for name, p in model.named_parameters():
        assert params[name].dtype == np.dtype(precision), name
        assert params[name].tobytes() == p.data.tobytes(), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_checkpoint_refuses_a_non_finite_record(tmp_path, value):
    model, cfg, _ = make_model(seed=25)
    model.head.bias.data[1] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, model, cfg)
    with pytest.raises(ValidationError) as exc_info:
        load_checkpoint(path)
    assert str(exc_info.value) == (f"{path}: parameter record 'head.bias' "
                                   "holds a non-finite value")


def test_a_zero_length_record_is_read_and_then_refused_by_its_shape(tmp_path):
    model, cfg, wv = make_model(seed=26)
    path = tmp_path / "empty.ckpt"
    save_checkpoint(path, model, cfg)
    raw = path.read_bytes()
    at = raw.index(b"head.bias") + len("head.bias")  # then its rank and dims
    width = model.head.bias.size
    assert raw[at:at + 8] == struct.pack("<II", 1, width)
    path.write_bytes(raw[:at] + struct.pack("<II", 1, 0) + raw[at + 8 + 4 * width:])
    assert load_checkpoint(path)[2]["head.bias"].shape == (0,)
    with pytest.raises(ShapeError, match="head.bias"):
        restore_model(path, wv)


def test_checkpoint_header_restores_config(tmp_path):
    model, cfg, _ = make_model(layers_fusion=3, combine_mode="concat")
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, model, cfg)
    loaded_cfg, _, params = load_checkpoint(path)
    assert loaded_cfg.layers_fusion == 3
    assert loaded_cfg.combine_mode == "concat"
    assert set(params) == {name for name, _ in model.named_parameters()}


class NoDraws:
    """A generator stand-in whose every method raises: a module built with
    one may hold it, but may not draw from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from a generator ({name})")


RESTORE_VARIANTS = {
    "fine": dict(granularity="fine"),
    "multi-builtin": dict(granularity="multi", builtin=True, freeze_fine=False),
    "multi-builtin-frozen": dict(granularity="multi", builtin=True, freeze_fine=True),
    "multi-file": dict(granularity="multi", builtin=False, freeze_fine=False),
    "multi-file-frozen": dict(granularity="multi", builtin=False, freeze_fine=True),
}


def _trained_like(variant, seed, **overrides):
    """A model of ``variant`` with every parameter moved off its initial
    value, a conventionally built twin of another seed, the config, word
    vectors and header fields, and the utterance embedding it reads."""
    v = RESTORE_VARIANTS[variant]
    cfg = small_config(dropout=0.0, **overrides)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)

    def build(s):
        if v["granularity"] == "fine":
            return MultilevelTransformer(cfg, wv, seed=s)
        return MultiGranularityModel(cfg, wv, utt_dim=None if v["builtin"] else 8, seed=s,
                                  freeze_fine=v["freeze_fine"])

    model, twin = build(seed), build(seed + 1)
    nudge_off_kinks(model, seed=seed + 2)
    emb = None if v.get("builtin", True) else np.random.default_rng(seed + 3).standard_normal(8)
    return model, twin, cfg, wv, {"seed": seed, **model.checkpoint_extra()}, emb


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", sorted(RESTORE_VARIANTS))
def test_rebuild_model_draws_nothing_and_matches_a_built_and_loaded_model(
        tmp_path, monkeypatch, variant, precision):
    model, twin, cfg, wv, extra, emb = _trained_like(variant, seed=60, precision=precision)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, cfg, extra=extra)
    loaded_cfg, loaded_extra, params = load_checkpoint(path)
    twin.load_state_dict(params)  # the records, as a restore sees them
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
    restored = rebuild_model(loaded_cfg, loaded_extra, params, wv)
    monkeypatch.undo()
    assert type(restored) is type(twin)
    assert [(n, p.requires_grad) for n, p in restored.named_parameters()] == \
        [(n, p.requires_grad) for n, p in twin.named_parameters()]
    for name, p in restored.named_parameters():
        assert p.data.dtype == np.dtype(precision), name
    restored.eval()
    twin.eval()
    enc = make_enc(wv, seed=61, utt_embedding=emb)
    batch = [(enc, 0, 0), (make_enc(wv, seed=62, n_words=4, n_frames=7, utt_embedding=emb), 0, 0)]
    with ag.no_grad():
        assert np.array_equal(restored.forward_batch(batch).data, twin.forward_batch(batch).data)
        assert np.array_equal(restored.forward_utterance(enc).logits.data,
                              twin.forward_utterance(enc).logits.data)


def test_skip_init_allocates_in_its_dtype_and_draws_nothing():
    rng = np.random.default_rng(63)
    state = rng.bit_generator.state
    with nn.skip_init(np.float32):
        with nn.skip_init("float64"):
            inner = nn.Linear(3, 4, rng)
        layers = [nn.Linear(3, 4, rng), nn.LayerNorm(4), nn.Embedding(5, 4, rng, pad_id=0),
                  nn.Conv1d(2, 3, 4, rng)]
    assert rng.bit_generator.state == state
    assert {p.data.dtype for _, p in inner.named_parameters()} == {np.dtype(np.float64)}
    for layer in layers:
        for name, p in layer.named_parameters():
            assert p.data.dtype == np.float32 and p.requires_grad, name
    fresh = nn.Linear(3, 4, rng)  # outside the block: drawn in float64 again
    assert fresh.weight.data.dtype == np.float64
    assert rng.bit_generator.state != state


@pytest.mark.parametrize("variant", sorted(RESTORE_VARIANTS))
def test_a_float32_model_starts_from_the_same_seed_float64_model_rounded(variant):
    v = RESTORE_VARIANTS[variant]
    models = {}
    for precision in ("float32", "float64"):
        cfg = small_config(precision=precision)
        wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
        models[precision] = build_variant(cfg, wv, v["granularity"], seed=67,
                                          utt_dim=None if v.get("builtin", True) else 8,
                                          freeze_fine=v.get("freeze_fine", False))
    wide = dict(models["float64"].named_parameters())
    narrow = dict(models["float32"].named_parameters())
    assert list(narrow) == list(wide)
    for name, p in narrow.items():
        assert p.data.dtype == np.float32 and p.requires_grad == wide[name].requires_grad, name
        assert np.array_equal(p.data, wide[name].data.astype(np.float32)), name


@pytest.mark.parametrize("granularity", ["fine", "multi"])
def test_a_float32_build_holds_no_float64_copy_of_the_parameters(granularity):
    """Peak traced memory over a paper-default build stays near one float32
    copy of the parameters: each is rounded as it is drawn, so the float64
    model, twice that size, never exists."""
    import tracemalloc

    cfg = ModelConfig()
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    tracemalloc.start()
    try:
        model = build_variant(cfg, wv, granularity, seed=68)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(p.data.nbytes for p in model.parameters())
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert peak < 1.25 * nbytes


def test_a_float32_restore_holds_no_float64_copy_of_the_parameters(tmp_path):
    """Peak traced memory over a paper-default restore stays near one float32
    copy of the parameters: a float64 initial draw alone would be twice that."""
    import tracemalloc

    cfg = ModelConfig()
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultilevelTransformer(cfg, wv, seed=64)
    path = tmp_path / "paper.ckpt"
    save_checkpoint(path, model, cfg, extra={"seed": 64})
    loaded_cfg, extra, params = load_checkpoint(path)
    nbytes = sum(p.data.nbytes for p in model.parameters())
    assert nbytes == 4 * expected_parameter_count(cfg)
    tracemalloc.start()
    try:
        restored = rebuild_model(loaded_cfg, extra, params, wv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * nbytes
    for name, p in restored.named_parameters():
        assert np.array_equal(p.data, params[name]), name


def test_a_restore_adopts_its_records_and_predicts_as_the_model_did(tmp_path):
    for precision in ("float32", "float64"):
        model, cfg, wv = make_model(seed=65, precision=precision)
        path = tmp_path / f"{precision}.ckpt"
        save_checkpoint(path, model, cfg)
        loaded_cfg, extra, params = load_checkpoint(path)
        restored = rebuild_model(loaded_cfg, extra, params, wv)
        for name, p in restored.named_parameters():
            assert p.data is params[name], (precision, name)
            assert p.data.flags.writeable and p.data.flags.c_contiguous, (precision, name)
        model.eval()
        restored.eval()
        enc = make_enc(wv, seed=66)
        assert np.array_equal(restored.predict_probs(enc), model.predict_probs(enc)), precision


# ---------------------------------------------------------------------------
# row-wise text frontend

def _per_word_encode_text(model, pack):
    """Reference frontend: phoneme CNN and combiner one word at a time."""
    word_emb = ag.embedding_rows(model.word_table, pack.word_ids,
                                 frozen_row=model.word_vectors.pad_id)
    rows = [model.combiner(ag.getitem(word_emb, i),
                           ag.getitem(model.phoneme_cnn.embed_word([phons]), 0))
            for i, phons in enumerate(pack.phonemes)]
    x = nn.add_positions(model.prenet(ag.stack_rows(rows), pack.words), pack.words)
    for block in model.text_blocks:
        x = block(x, x, pack.words, pack.words)
    return x


def _logits_and_grads(model, enc, pad_words):
    model.zero_grad()
    logits = model.forward_utterance(enc, pad_words=pad_words).logits
    ag.backward(ag.cross_entropy(ag.stack_rows([logits]), [1]))
    return logits.data.copy(), {name: p.grad.copy() for name, p in model.named_parameters()}


@pytest.mark.parametrize("combine_mode", ["highway", "concat"])
@pytest.mark.parametrize("pad_words", [0, 2])
def test_row_wise_text_frontend_matches_per_word_loop(monkeypatch, combine_mode, pad_words):
    model, _, wv = make_model(seed=30, combine_mode=combine_mode, dropout=0.0,
                              finetune_word_vectors=True, precision="float64")
    enc = make_enc(wv, seed=31, n_words=5)  # 2-4 phonemes per word
    logits, grads = _logits_and_grads(model, enc, pad_words)
    monkeypatch.setattr(MultilevelTransformer, "encode_text", _per_word_encode_text)
    ref_logits, ref_grads = _logits_and_grads(model, enc, pad_words)

    def rel_err(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

    assert rel_err(logits, ref_logits) <= 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert rel_err(grads[name], ref) <= 1e-12, name


def _graph_tensors(out):
    """Every tensor of ``out``'s graph, ``out`` and the leaves included."""
    seen, stack = {id(out): out}, [out]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _graph_nodes(out):
    return len(_graph_tensors(out))


def test_unpadded_forward_has_no_row_zeroing_nodes():
    model, _, wv = make_model(seed=36)
    enc = make_enc(wv, seed=37)
    unpadded = _graph_nodes(model.forward_utterance(enc).logits)
    padded = _graph_nodes(model.forward_utterance(enc, pad_words=1).logits)
    assert padded - unpadded == 3  # one zero_rows before each of the 3 prenet convs


def test_encode_text_graph_does_not_grow_with_word_count():
    model, _, wv = make_model(seed=32)
    counts = []
    for n_words in (1, 4, 12):
        enc = make_enc(wv, seed=33, n_words=n_words)
        counts.append(_graph_nodes(model.encode_text(Pack([(enc, 0, 0)], wv.pad_id, model.dtype))))
    assert counts[0] == counts[1] == counts[2]


def test_predict_is_deterministic_on_restored_dropout_model(tmp_path):
    model, cfg, wv = make_model(seed=34, dropout=0.5)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, model, cfg)
    restored, _, _ = restore_model(path, wv)
    assert restored.training
    enc = make_enc(wv, seed=35)
    first = restored.predict_probs(enc)
    assert np.array_equal(first, restored.predict_probs(enc))
    assert restored.training  # the caller's mode comes back


def test_load_checkpoint_rejects_truncation_bad_utf8_and_trailing_bytes(tmp_path):
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, nn.Linear(2, 3, np.random.default_rng(0)), ModelConfig(),
                    extra={"seed": 1})
    raw = path.read_bytes()
    assert set(load_checkpoint(path)[2]) == {"weight", "bias"}
    bad = tmp_path / "bad.ckpt"
    for n in range(len(raw)):
        bad.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    bad.write_bytes(raw[:8] + b"\xff" + raw[9:])   # first header byte
    with pytest.raises(FormatError, match="header"):
        load_checkpoint(bad)
    bad.write_bytes(raw + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(bad)
