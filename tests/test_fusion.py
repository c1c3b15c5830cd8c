"""Fusion model tests: embedding file parsing, the concatenation structure,
branch gradients, and checkpoint restore.

The degradation oracle builds the equivalent single-branch head by hand from
the fusion model's own weight slices and demands exact logit equality.
"""

import numpy as np
import pytest

from melformer import autograd as ag
from melformer.autograd import gradcheck_sampled
from melformer.data import check_coverage
from melformer.errors import FormatError, ValidationError
from melformer.fusion import (
    MeanPoolUtteranceEncoder,
    MultiGranularityModel,
    load_utterance_embeddings,
    restore_fusion_model,
)
from melformer.model import restore_model, save_checkpoint
from melformer.text import hash_word_vectors

from helpers import WORDS, make_enc, make_model, nudge_off_kinks, small_config


def write_uemb(path, dim, table):
    lines = [f"UEMB {dim}"]
    for utt_id, vec in table.items():
        lines.append(utt_id + " " + " ".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n")


def make_fusion(seed=0, utt_dim=8, builtin=False, **overrides):
    cfg = small_config(**overrides)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultiGranularityModel(cfg, wv, utt_dim=None if builtin else utt_dim, seed=seed)
    return model, cfg, wv


# ---------------------------------------------------------------------------
# embedding file

def test_header_only_file_gives_empty_map(tmp_path):
    path = tmp_path / "e.uemb"
    write_uemb(path, 4, {})
    dim, table = load_utterance_embeddings(path)
    assert dim == 4
    assert table == {}


def test_three_ids_of_dim_8(tmp_path):
    rng = np.random.default_rng(0)
    vecs = {f"utt-{i}": rng.standard_normal(8) for i in range(3)}
    path = tmp_path / "t.uemb"
    write_uemb(path, 8, vecs)
    dim, table = load_utterance_embeddings(path)
    assert dim == 8
    assert sorted(table) == sorted(vecs)
    for utt_id, vec in vecs.items():
        assert np.allclose(table[utt_id], vec, atol=1e-12)


def test_duplicate_id_names_the_id(tmp_path):
    path = tmp_path / "d.uemb"
    path.write_text("UEMB 2\na 1.0 2.0\nb 3.0 4.0\na 5.0 6.0\n")
    with pytest.raises(ValidationError, match="'a'"):
        load_utterance_embeddings(path)


def test_dim_mismatch_names_the_line(tmp_path):
    path = tmp_path / "m.uemb"
    path.write_text("UEMB 3\na 1.0 2.0 3.0\nb 1.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_utterance_embeddings(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "h.uemb"
    path.write_text("VECTORS 3\n")
    with pytest.raises(FormatError, match="UEMB"):
        load_utterance_embeddings(path)


def test_missing_ids_reported_as_complete_list():
    with pytest.raises(ValidationError, match=r"\['u2', 'u4'\]"):
        check_coverage({"u1": None, "u3": None}, ["u1", "u2", "u3", "u4"])


# ---------------------------------------------------------------------------
# classify structure

def test_fused_logits_have_k_classes():
    model, _, wv = make_fusion(seed=1)
    model.eval()
    enc = make_enc(wv, seed=2, utt_embedding=np.random.default_rng(3).standard_normal(8))
    assert model.forward_utterance(enc).logits.shape == (4,)


def test_zero_utterance_branch_reduces_to_fine_head():
    """Criterion: with the utterance projection zeroed, fusion logits equal
    the fine branch through the top half of the head, exactly."""
    model, _, wv = make_fusion(seed=4)
    model.eval()
    model.proj_utt.weight.data[:] = 0.0
    model.proj_utt.bias.data[:] = 0.0
    enc = make_enc(wv, seed=5, utt_embedding=np.random.default_rng(6).standard_normal(8))
    trace = model.forward_utterance(enc)

    d_fuse = model.proj_fine.n_out
    pf = trace.cls.data @ model.proj_fine.weight.data + model.proj_fine.bias.data
    equivalent = pf @ model.head.weight.data[:d_fuse] + model.head.bias.data
    assert np.array_equal(trace.logits.data, equivalent)


def test_zero_embedding_and_zero_bias_depend_only_on_fine_branch():
    model, _, wv = make_fusion(seed=7, precision="float64")
    model.eval()
    model.proj_utt.bias.data[:] = 0.0
    a = make_enc(wv, seed=8, utt_embedding=np.zeros(8))
    logits = model.forward_utterance(a).logits.data
    pf = model.forward_utterance(a).cls.data @ model.proj_fine.weight.data + model.proj_fine.bias.data
    d_fuse = model.proj_fine.n_out
    expected = pf @ model.head.weight.data[:d_fuse] + model.head.bias.data
    assert np.allclose(logits, expected, atol=1e-12)


def test_gradients_flow_into_both_branches():
    model, _, wv = make_fusion(seed=9)
    model.eval()
    encs = [make_enc(wv, seed=10, utt_embedding=np.random.default_rng(11).standard_normal(8)),
            make_enc(wv, seed=12, utt_embedding=np.random.default_rng(13).standard_normal(8))]
    loss = ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), [0, 2])
    ag.backward(loss)
    assert np.linalg.norm(model.proj_fine.weight.grad) > 0.0
    assert np.linalg.norm(model.proj_utt.weight.grad) > 0.0


def test_fusion_gradcheck_both_branches():
    model, _, wv = make_fusion(seed=14, precision="float64")
    model.eval()
    nudge_off_kinks(model, seed=15)
    encs = [make_enc(wv, seed=16, n_words=2, n_frames=3,
                     utt_embedding=np.random.default_rng(17).standard_normal(8)),
            make_enc(wv, seed=18, n_words=2, n_frames=4,
                     utt_embedding=np.random.default_rng(19).standard_normal(8))]

    def f(*_):
        return ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), [1, 3])

    err = gradcheck_sampled(f, model.parameters(), per_tensor=2,
                            rng=np.random.default_rng(20))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# built-in encoder, freezing, checkpoints

def test_builtin_encoder_used_when_no_embedding():
    model, cfg, wv = make_fusion(seed=21, builtin=True)
    model.eval()
    enc = make_enc(wv, seed=22)  # utt_embedding=None
    probs = model.predict_probs(enc)
    assert probs.shape == (4,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_a_builtin_encoder_ignores_vectors_on_the_encodings():
    """The built-in encoder is the model's one source: vectors the encodings
    carry change neither the logits nor the encoder's gradients."""
    model, cfg, wv = make_fusion(seed=24, builtin=True, dropout=0.0)
    rng = np.random.default_rng(25)

    def step(with_vectors):
        encs = [make_enc(wv, seed=26 + i, n_words=2 + i, n_frames=4 + i,
                         utt_embedding=rng.standard_normal(cfg.word_dim) if with_vectors else None)
                for i in range(3)]
        logits = model.forward_batch([(e, 0, 0) for e in encs])
        ag.backward(ag.cross_entropy(logits, [0, 1, 3]))
        return logits.data.copy(), [p.grad.copy() for p in model.utt_encoder.parameters()]

    logits, grads = step(with_vectors=True)  # first, so no earlier gradient lingers
    ref_logits, ref_grads = step(with_vectors=False)
    assert np.array_equal(logits, ref_logits)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


def test_no_embedding_and_no_encoder_rejected():
    model, _, wv = make_fusion(seed=23)
    with pytest.raises(ValidationError, match=r"needs an embedding of shape \(8,\), got none"):
        model.forward_utterance(make_enc(wv, seed=24))


def test_batch_mixing_file_and_missing_embeddings_rejected():
    # the file variant's one refusal: every utterance needs its own vector
    model, _, wv = make_fusion(seed=24, utt_dim=8)
    rows = [(make_enc(wv, seed=26, utt_embedding=np.zeros(8)), 0, 0),
            (make_enc(wv, seed=27), 0, 0)]
    with pytest.raises(ValidationError, match=r"^utterance 1 of the batch needs an embedding "
                                              r"of shape \(8,\), got none$"):
        model.forward_batch(rows)


def test_wrong_embedding_width_rejected():
    model, _, wv = make_fusion(seed=25, utt_dim=8)
    with pytest.raises(ValidationError, match=r"shape \(8,\), got \(5,\)$"):
        model.forward_utterance(make_enc(wv, seed=26, utt_embedding=np.zeros(5)))


def test_freeze_fine_hides_fine_params_from_training_only():
    cfg = small_config()
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    fusion = {"proj_fine.weight", "proj_fine.bias", "proj_utt.weight", "proj_utt.bias",
              "head.weight", "head.bias"}
    for utt_dim, encoder in [(8, set()), (None, {"utt_encoder.proj.weight",
                                                 "utt_encoder.proj.bias"})]:
        model = MultiGranularityModel(cfg, wv, utt_dim=utt_dim, seed=27, freeze_fine=True)
        trainable = {name for name, _ in model.trainable_named_parameters()}
        assert trainable == fusion | encoder
        assert "fusion_blocks.0.attn.wqvk.weight" in dict(model.named_parameters())


FUSION_PARTS = ("utt_encoder.", "proj_", "head.")


def _graph_tensors(loss):
    """id -> tensor for every tensor the graph below ``loss`` reaches, leaves
    included (the benchmark's graph size counts the same set)."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return seen


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin-encoder", "file-embeddings"])
def test_a_frozen_step_builds_no_encoder_graph_and_no_encoder_grad(builtin):
    cfg = small_config(finetune_word_vectors=True)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultiGranularityModel(cfg, wv, utt_dim=None if builtin else 8, seed=45,
                               freeze_fine=True)
    rng = np.random.default_rng(46)
    batch = [(make_enc(wv, seed=47 + i, n_words=2 + i, n_frames=5 + i,
                       utt_embedding=None if builtin else rng.standard_normal(8)), 0, 0)
             for i in range(3)]
    loss = ag.cross_entropy(model.forward_batch(batch), [0, 1, 3])
    graph = _graph_tensors(loss)
    frozen = {name: p for name, p in model.named_parameters()
              if not name.startswith(FUSION_PARTS)}
    assert "fusion_blocks.0.attn.wqvk.weight" in frozen and "word_table" in frozen
    assert not [name for name, p in frozen.items() if id(p) in graph]
    assert len(graph) == (16 if builtin else 13)  # the fused head's nodes and leaves only
    ag.backward(loss)
    for name, p in model.named_parameters():
        assert (p.grad is None) == (name in frozen), name


def test_fused_head_replaces_the_fine_head_and_everything_trains():
    model, cfg, _ = make_fusion(seed=27, utt_dim=8)
    names = [name for name, _ in model.trainable_named_parameters()]
    assert names == [name for name, _ in model.named_parameters()]
    assert not any(name.startswith("fine.") for name in names)
    assert model.head.weight.shape == (2 * cfg.d_fuse, cfg.num_classes)


def test_fusion_checkpoint_round_trip(tmp_path):
    model, cfg, wv = make_fusion(seed=28, utt_dim=8)
    model.eval()
    enc = make_enc(wv, seed=29, utt_embedding=np.random.default_rng(30).standard_normal(8))
    before = model.forward_utterance(enc).logits.data

    path = tmp_path / "fusion.ckpt"
    # no freeze_fine: the benchmark in perfbench/ writes multi headers without it
    extra = {"granularity": "multi", "utt_dim": 8, "builtin_encoder": False, "seed": 28}
    save_checkpoint(path, model, cfg, extra=extra)
    restored, _, _ = restore_model(path, wv)
    assert isinstance(restored, MultiGranularityModel) and not restored.freeze_fine
    restored.eval()
    after = restored.forward_utterance(enc).logits.data
    # records in the model's precision restore it exactly
    assert np.array_equal(before, after)


def test_fusion_predict_is_deterministic_with_dropout(tmp_path):
    model, cfg, wv = make_fusion(seed=33, utt_dim=8, dropout=0.5)
    path = tmp_path / "fusion.ckpt"
    extra = {"granularity": "multi", "utt_dim": 8, "builtin_encoder": False, "seed": 33}
    save_checkpoint(path, model, cfg, extra=extra)
    restored, _, _ = restore_fusion_model(path, wv)
    enc = make_enc(wv, seed=34, utt_embedding=np.random.default_rng(35).standard_normal(8))
    first = restored.predict_probs(enc)
    assert np.array_equal(first, restored.predict_probs(enc))
    assert restored.training


@pytest.mark.parametrize("builtin,freeze_fine", [(False, False), (True, True)])
def test_restore_model_rebuilds_multi_from_its_header(tmp_path, builtin, freeze_fine):
    cfg = small_config(dropout=0.0)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultiGranularityModel(cfg, wv, utt_dim=None if builtin else 8, seed=36,
                               freeze_fine=freeze_fine)
    path = tmp_path / "fusion.ckpt"
    save_checkpoint(path, model, cfg, extra={"seed": 36, **model.checkpoint_extra()})
    restored, _, _ = restore_model(path, wv)
    assert isinstance(restored, MultiGranularityModel)
    assert restored.freeze_fine == freeze_fine
    assert (restored.utt_encoder is not None) == builtin
    for name, p in restored.named_parameters():
        assert p.requires_grad == (not freeze_fine or name.startswith(FUSION_PARTS)), name
    emb = None if builtin else np.random.default_rng(38).standard_normal(8)
    enc = make_enc(wv, seed=37, utt_embedding=emb)
    np.testing.assert_allclose(restored.predict_probs(enc), model.predict_probs(enc), atol=1e-5)


def test_restore_model_rejects_multi_header_without_utt_dim(tmp_path):
    model, cfg, wv = make_fusion(seed=39, utt_dim=8)
    path = tmp_path / "fusion.ckpt"
    save_checkpoint(path, model, cfg, extra={"granularity": "multi", "builtin_encoder": False})
    with pytest.raises(FormatError, match="utt_dim"):
        restore_model(path, wv)


def test_mean_pool_encoder_is_deterministic():
    wv = hash_word_vectors(WORDS, dim=12)
    encoder = MeanPoolUtteranceEncoder(wv, 6, np.random.default_rng(31))
    encs = [make_enc(wv, seed=32), make_enc(wv, seed=33, n_words=5)]
    a = encoder(encs).data
    b = encoder(encs).data
    assert np.array_equal(a, b)
    assert a.shape == (2, 6)
