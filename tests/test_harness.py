"""Optimizer, splitting, metrics, the fold trainer, and aggregation."""

import gc
import json
import math
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (WORDS, PerParameterAdam, make_enc, mask_tensor_dropout, small_config,
                     zero_fill_backward)
from melformer import autograd as ag
from melformer import data, harness
from melformer.autograd import Tensor
from melformer.config import HarnessConfig, LABELS, ModelConfig, RunConfig
from melformer.data import (Manifest, Record, encode_manifest, gen_synthetic,
                            parse_manifest)
from melformer.errors import ContractError, ShapeError, TrainingDiverged, ValidationError
from melformer.fusion import MultiGranularityModel
from melformer.harness import (BLOCK, Adam, FoldMetrics, TrainResult, build_model,
                               clip_gradients, evaluate, format_mean_std, kfold_split,
                               metrics_from_confusion, run_protocol, summarize,
                               train_epochs, train_fold, write_results,
                               _worker_count)
from melformer.model import MultilevelTransformer, load_checkpoint, restore_model
from melformer.text import Lexicon, hash_word_vectors


# ---------------------------------------------------------------------------
# Adam

def param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


def test_adam_first_step_is_signed_lr():
    p = param([3.0, -2.0, 0.5])
    opt = Adam([("p", p)], lr=0.01)
    p.grad = np.array([3.0, -2.0, 0.5])
    opt.step()
    np.testing.assert_allclose(p.data - np.array([3.0, -2.0, 0.5]),
                               [-0.01, 0.01, -0.01], atol=1e-9)


def test_adam_eps_sits_outside_the_sqrt():
    # with g tiny, update = lr * g / (|g| + eps) exactly; eps inside the
    # root would shrink the step by four orders of magnitude
    p = param([0.0])
    opt = Adam([("p", p)], lr=0.1)
    g = 1e-9
    p.grad = np.array([g])
    opt.step()
    expected = -0.1 * g / (g + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = param([1.5, -2.5])
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -2.5])


def test_adam_matches_scalar_reference_over_100_steps():
    shapes = [(3,), (2, 2)]
    tensors = [param(np.zeros(s)) for s in shapes]
    opt = Adam([(f"p{i}", t) for i, t in enumerate(tensors)],
               lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)

    # independent per-coordinate reference in plain python floats
    ref = [np.zeros(s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 101):
        grads = [np.asarray([[math.sin(0.1 * t * (i + 2) + j) for j in range(s[-1])]
                             for i in range(int(np.prod(s[:-1])) or 1)]).reshape(s)
                 for s in shapes]
        for tensor, g in zip(tensors, grads):
            tensor.grad = g.copy()
        opt.step()
        for i, g in enumerate(grads):
            flat_m, flat_v, flat_x = m[i].ravel(), v[i].ravel(), ref[i].ravel()
            for j, gj in enumerate(g.ravel()):
                flat_m[j] = 0.9 * flat_m[j] + 0.1 * gj
                flat_v[j] = 0.999 * flat_v[j] + 0.001 * gj * gj
                mhat = flat_m[j] / (1 - 0.9 ** t)
                vhat = flat_v[j] / (1 - 0.999 ** t)
                flat_x[j] -= 1e-3 * mhat / (math.sqrt(vhat) + 1e-8)
    for tensor, x in zip(tensors, ref):
        np.testing.assert_allclose(tensor.data, x, atol=1e-12)


def twin_params(shapes, seed=0):
    """Two parameter sets with equal values: one for Adam, one for the oracle."""
    rng = np.random.default_rng(seed)
    ours = [param(rng.standard_normal(s)) for s in shapes]
    return ours, [param(p.data.copy()) for p in ours]


def named(params):
    return [(f"p{i}", p) for i, p in enumerate(params)]


def segment(opt, i):
    return slice(opt.offsets[i], opt.offsets[i + 1])


def test_adam_matches_per_parameter_oracle_bit_for_bit_across_blocks():
    shapes = [(1,), (BLOCK - 1,), (BLOCK,), (7,), (BLOCK + 1,), (3 * BLOCK + 7,),
              (13, 11), (3, 4, 5)]
    skipped = 3  # its grad stays None: a gap in the middle of a block
    ours, ref = twin_params(shapes)
    untouched = ours[skipped].data.copy()
    opt = Adam(named(ours), lr=1e-2)
    oracle = PerParameterAdam(named(ref), lr=1e-2)
    rng = np.random.default_rng(1)
    for step in range(50):
        for i, (p, q) in enumerate(zip(ours, ref)):
            if i == skipped or (i == 4 and step % 3 == 0):  # p4 skips every third step
                p.grad = q.grad = None
                continue
            g = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-8, 3)
            p.grad, q.grad = g.copy(), g.copy()
        opt.step()
        oracle.step()
    for i, (p, q) in enumerate(zip(ours, ref)):
        assert np.array_equal(p.data, q.data), i
        assert np.array_equal(opt.m[segment(opt, i)], oracle.m[i].ravel()), i
        assert np.array_equal(opt.v[segment(opt, i)], oracle.v[i].ravel()), i
    assert np.array_equal(ours[skipped].data, untouched)
    assert not opt.m[segment(opt, skipped)].any() and not opt.v[segment(opt, skipped)].any()


def test_adam_takes_a_huge_finite_gradient_like_the_oracle():
    # 1e200 squared overflows the second moment to inf, with numpy's
    # warning; the gradient itself is finite, so the step goes on as the
    # oracle's does
    ours, ref = twin_params([(BLOCK + 5,), (4,)])
    opt = Adam(named(ours), lr=0.1)
    oracle = PerParameterAdam(named(ref), lr=0.1)
    with pytest.warns(RuntimeWarning, match="overflow"):
        for step in range(3):
            for p, q in zip(ours, ref):
                g = np.full(p.shape, 0.5)
                g[::7] = 1e200 * (-1) ** step
                p.grad, q.grad = g, g.copy()
            opt.step()
            oracle.step()
    for p, q in zip(ours, ref):
        assert np.array_equal(p.data, q.data)


def test_adam_refuses_a_rebound_parameter_by_name():
    ours, _ = twin_params([(3,), (4,)])
    opt = Adam([("kept", ours[0]), ("rebound", ours[1])], lr=0.1)
    ours[1].data = ours[1].data + 1.0  # a copy: the optimizer would no longer train it
    for p in ours:
        p.grad = np.ones(p.shape)
    with pytest.raises(ContractError, match="rebound"):
        opt.step()


def test_adam_refuses_a_gradient_of_another_shape_by_name():
    # the same size in another shape would scramble the flat gather silently
    ours, _ = twin_params([(3,), (2, 3)])
    opt = Adam([("a", ours[0]), ("b", ours[1])], lr=0.1)
    ours[0].grad, ours[1].grad = np.ones(3), np.ones((3, 2))
    with pytest.raises(ShapeError, match="parameter b:"):
        opt.step()


def test_adam_refuses_a_gradient_of_another_dtype_before_any_update():
    # a float64 gradient on a float32 parameter would be narrowed silently
    rng = np.random.default_rng(0)
    ps = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
          for s in ((BLOCK + 5,), (4,))]
    opt = Adam([("first", ps[0]), ("wide", ps[1])], lr=0.1)
    ps[0].grad = np.ones(ps[0].shape, dtype=np.float32)
    ps[1].grad = np.ones(4)
    before = [opt.arena.copy(), opt.m.copy(), opt.v.copy()]
    with pytest.raises(ContractError, match="parameter wide: gradient float64 vs float32"):
        opt.step()
    for now, then in zip((opt.arena, opt.m, opt.v), before):
        assert np.array_equal(now, then)
    assert opt.t == 0


def test_adam_step_allocates_no_full_size_temporaries():
    cfg = ModelConfig(d_model=16, heads=2, layers_text=1, layers_cross=1, layers_fusion=1,
                      d_ff=32, dropout=0.0)  # the quick-start model
    model = MultilevelTransformer(cfg, hash_word_vectors(WORDS, dim=cfg.word_dim), seed=0)
    opt = Adam(model.trainable_named_parameters(), lr=1e-3)
    assert opt.arena.size > 800_000
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.shape, dtype=p.data.dtype)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"Adam.step peaked at {peak} traced bytes"


def test_clip_rescales_to_global_norm():
    a, b = param([6.0]), param([8.0])
    a.grad, b.grad = np.array([6.0]), np.array([8.0])
    norm = clip_gradients([a, b], max_norm=5.0)
    assert norm == pytest.approx(10.0)
    np.testing.assert_allclose(a.grad, [3.0])
    np.testing.assert_allclose(b.grad, [4.0])


def test_clip_leaves_small_gradients_alone():
    a = param([3.0, 4.0])
    a.grad = np.array([3.0, 4.0])
    norm = clip_gradients([a], max_norm=5.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])


def test_clip_scales_a_huge_finite_float32_gradient_instead_of_zeroing_it():
    # each entry's square (4e38) is past float32's max (3.4e38): a float32
    # dot overflows to inf, and max_norm / inf would zero every gradient
    a = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    a.grad = np.full(4, 2e19, dtype=np.float32)
    b.grad = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    norm = clip_gradients([a, b], max_norm=5.0)
    assert math.isfinite(norm) and norm == pytest.approx(4e19, rel=1e-6)
    assert a.grad.dtype == b.grad.dtype == np.float32
    scaled = np.sqrt(np.dot(a.grad.astype(np.float64), a.grad)
                     + np.dot(b.grad.astype(np.float64), b.grad))
    assert scaled == pytest.approx(5.0, rel=1e-6)
    np.testing.assert_allclose(a.grad, 2.5, rtol=1e-6)
    assert np.all(b.grad != 0.0)


def test_clip_scales_a_huge_finite_float64_gradient_instead_of_zeroing_it():
    # 1e200 squared is past float64's max: the dot overflows to inf, and
    # max_norm / inf would zero every gradient
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.array([1e200, 1.0])
    b.grad = np.array([1.0, -2.0, 3.0])
    norm = clip_gradients([a, b], max_norm=5.0)
    assert norm == pytest.approx(1e200, rel=1e-12)
    np.testing.assert_allclose(a.grad, [5.0, 5e-200], rtol=1e-12)
    np.testing.assert_allclose(b.grad, [5e-200, -1e-199, 1.5e-199], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_returns_a_non_finite_norm_and_scales_nothing(bad):
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    a.grad = np.array([bad, 1e200])
    b.grad = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    norm = clip_gradients([a, b], max_norm=5.0)
    assert np.isnan(norm) if np.isnan(bad) else norm == math.inf
    np.testing.assert_array_equal(a.grad, [bad, 1e200])
    np.testing.assert_array_equal(b.grad, [1.0, -2.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clip_norm_matches_a_float64_reference(dtype):
    rng = np.random.default_rng(7)
    shapes = [(450, 450), (128,), (3, 64, 50), (1,)]
    params = [Tensor(np.zeros(s, dtype=dtype), requires_grad=True) for s in shapes]
    for p in params:
        p.grad = (rng.standard_normal(p.shape) * 0.3).astype(dtype)
    grads = [p.grad.astype(np.float64) for p in params]
    ref = math.sqrt(sum(float((g * g).sum()) for g in grads))
    norm = clip_gradients(params, max_norm=1.0)
    # one float32 dot per tensor rounds at about 1e-7 relative per partial sum
    assert norm == pytest.approx(ref, rel=1e-5 if dtype == np.float32 else 1e-12)
    for p, g in zip(params, grads):
        assert p.grad.dtype == dtype
        np.testing.assert_allclose(p.grad, g * (1.0 / norm), rtol=1e-6)


# ---------------------------------------------------------------------------
# precision: one training step stays in the model's dtype

def _graph_dtypes(loss):
    """The dtypes of every tensor in the graph below ``loss``, constants included."""
    seen, stack, dtypes = {id(loss)}, [loss], set()
    while stack:
        node = stack.pop()
        dtypes.add(node.data.dtype)
        for parent in node._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return dtypes


def _paper_multi(precision):
    cfg = ModelConfig(precision=precision)  # the paper's shape, dropout 0.1
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    return build_model(cfg, HarnessConfig(granularity="multi"), wv, seed=0), wv


def _fine_highway(precision):
    cfg = small_config(combine_mode="highway", precision=precision)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    return MultilevelTransformer(cfg, wv, seed=0), wv


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("build", [_paper_multi, _fine_highway])
def test_one_training_step_stays_in_the_model_precision(build, precision):
    model, wv = build(precision)
    dtype = np.dtype(precision)
    assert model.dtype == dtype
    encs = [make_enc(wv, seed=70 + i, n_words=2 + i, n_frames=5 + 3 * i) for i in range(3)]
    named = list(model.trainable_named_parameters())
    params = [p for _, p in named]
    opt = Adam(named, lr=1e-3)
    model.train()
    loss = ag.cross_entropy(model.forward_batch([(e, 0, 0) for e in encs]), [0, 1, 3])
    assert _graph_dtypes(loss) == {dtype}
    ag.backward(loss)
    assert all(p.grad is not None for p in params)
    assert {p.grad.dtype for p in params} == {dtype}
    clip_gradients(params, max_norm=1e-3)  # small enough to scale every gradient
    assert {p.grad.dtype for p in params} == {dtype}
    opt.step()
    assert {a.dtype for a in (opt.arena, opt.m, opt.v, opt._g, opt._s)} == {dtype}
    assert {p.data.dtype for p in model.parameters()} == {dtype}
    probs = model.predict_probs(encs[0])
    assert probs.dtype == np.float64
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_adam_refuses_parameters_of_mixed_dtypes():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="mix dtypes"):
        Adam([("a", a), ("b", param([1.0]))])


# ---------------------------------------------------------------------------
# splitting

def fake_manifest(session_sizes=None, n_random=None):
    records = []
    if session_sizes is not None:
        i = 0
        for name, size in session_sizes.items():
            for _ in range(size):
                records.append(Record(id=f"u{i}", transcript="x", label=LABELS[i % 4],
                                      audio_path="x.wav", session=name))
                i += 1
    else:
        for i in range(n_random):
            records.append(Record(id=f"u{i}", transcript="x", label=LABELS[i % 4],
                                  audio_path="x.wav"))
    return Manifest(records=records, class_totals={}, path="m.jsonl")


def test_kfold_rotation_with_five_sessions():
    man = fake_manifest({f"s{k}": 2 for k in range(5)})
    plans = kfold_split(man)
    all_ids = {r.id for r in man.records}
    for p in plans:
        train, dev, test = set(p.train_ids), set(p.dev_ids), set(p.test_ids)
        assert len(train) == 6 and len(dev) == 2 and len(test) == 2
        assert not (train & dev) and not (train & test) and not (dev & test)
        assert train | dev | test == all_ids
    # the test group of fold i becomes the dev group of fold i+1
    for i in range(5):
        assert set(plans[i].test_ids) == set(plans[(i + 1) % 5].dev_ids)
    # test sets partition the corpus
    covered = [i for p in plans for i in p.test_ids]
    assert sorted(covered) == sorted(all_ids)


def test_kfold_packs_many_sessions_balanced():
    sizes = {"sA": 5, "sB": 4, "sC": 3, "sD": 2, "sE": 2, "sF": 1, "sG": 1}
    man = fake_manifest(sizes)
    plans = kfold_split(man)
    fold0 = plans[0]
    assert sum(len(g) for g in (fold0.train_ids, fold0.dev_ids, fold0.test_ids)) == 18
    # greedy largest-first packing of 5,4,3,2,2,1,1 gives buckets 5,4,3,3,3
    assert sorted(len(p.test_ids) for p in plans) == [3, 3, 3, 4, 5]
    # sessions never straddle groups
    by_session = {}
    for r in man.records:
        by_session.setdefault(r.session, set()).add(r.id)
    groups = [set(p.test_ids) for p in plans]
    for ids in by_session.values():
        assert sum(bool(ids & g) for g in groups) == 1
    # purely structural, so a second call is identical
    again = kfold_split(man)
    assert [p.test_ids for p in again] == [p.test_ids for p in plans]


def test_kfold_too_few_sessions_suggests_random_grouping():
    man = fake_manifest({"sA": 4, "sB": 4, "sC": 4})
    with pytest.raises(ValidationError, match="random grouping"):
        kfold_split(man, group_mode="session")


def test_kfold_session_mode_requires_sessions():
    man = fake_manifest(n_random=20)
    with pytest.raises(ValidationError, match="session metadata"):
        kfold_split(man, group_mode="session")


def test_kfold_random_grouping_is_stratified_and_seeded():
    man = fake_manifest(n_random=20)  # 5 per class
    plans = kfold_split(man, seed=3)
    label_of = {r.id: r.label for r in man.records}
    for p in plans:
        test_labels = [label_of[i] for i in p.test_ids]
        assert sorted(test_labels) == sorted(LABELS)  # one of each class
    assert [p.test_ids for p in kfold_split(man, seed=3)] == [p.test_ids for p in plans]


def test_kfold_auto_prefers_sessions():
    man = fake_manifest({f"s{k}": 4 for k in range(5)})
    assert [p.test_ids for p in kfold_split(man, group_mode="auto")] == \
           [p.test_ids for p in kfold_split(man, group_mode="session")]


# ---------------------------------------------------------------------------
# metrics

def test_metrics_hand_oracle():
    m = metrics_from_confusion([[2, 0], [2, 4]])
    assert m.wa == pytest.approx(0.75)
    assert m.ua == pytest.approx(5 / 6)
    assert m.per_class_recall == [pytest.approx(1.0), pytest.approx(2 / 3)]


def test_metrics_skip_classes_without_support():
    m = metrics_from_confusion([[3, 0, 1], [0, 0, 0], [0, 0, 4]])
    assert m.per_class_recall[1] is None
    assert m.ua == pytest.approx((0.75 + 1.0) / 2)


def test_metrics_invariant_to_count_duplication():
    conf = np.array([[5, 1, 0], [2, 7, 1], [0, 3, 6]])
    a = metrics_from_confusion(conf)
    b = metrics_from_confusion(conf * 3)
    assert a.wa == pytest.approx(b.wa)
    assert a.ua == pytest.approx(b.ua)


def test_metrics_empty_confusion_rejected():
    with pytest.raises(ValidationError):
        metrics_from_confusion(np.zeros((3, 3), dtype=int))


def fixed_model(logits_by_id, k):
    return SimpleNamespace(
        training=False, eval=lambda: None, train=lambda: None,
        head=SimpleNamespace(n_out=k),
        forward_batch=lambda batch: Tensor(np.asarray(
            [logits_by_id[enc.id] for enc, _, _ in batch], dtype=np.float64)))


def test_evaluate_accumulates_confusion_and_breaks_ties_low():
    encs = [SimpleNamespace(id="a", label=0), SimpleNamespace(id="b", label=1),
            SimpleNamespace(id="c", label=2)]
    model = fixed_model({"a": [0, 0, 0], "b": [0.5, 0.3, 0.0], "c": [0, 0, 1]}, k=3)
    m = evaluate(model, encs)
    np.testing.assert_array_equal(m.confusion, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    assert m.wa == pytest.approx(2 / 3)
    assert m.ua == pytest.approx(2 / 3)


def test_evaluate_runs_unshuffled_batches_of_the_batch_size():
    encs = [SimpleNamespace(id=str(i), label=i % 2) for i in range(5)]
    model = fixed_model({str(i): [0, 1] for i in range(5)}, k=2)
    seen = []
    forward = model.forward_batch
    model.forward_batch = lambda batch: seen.append([e.id for e, _, _ in batch]) or forward(batch)
    assert evaluate(model, encs, batch_size=2).confusion.tolist() == [[0, 3], [0, 2]]
    assert seen == [["0", "1"], ["2", "3"], ["4"]]


def test_evaluate_rejects_empty_set():
    model = fixed_model({}, k=2)
    with pytest.raises(ValidationError, match="empty"):
        evaluate(model, [])


def test_evaluate_restores_training_mode_when_a_batch_fails():
    cfg = small_config(num_classes=2)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    model = MultiGranularityModel(cfg, wv, utt_dim=6, seed=0)
    encs = [make_enc(wv, seed=i, utt_embedding=np.ones(6) if i == 0 else None) for i in range(2)]
    for i, enc in enumerate(encs):
        enc.id, enc.label = f"u{i}", i
    with pytest.raises(ValidationError, match="mixes utterances with and without"):
        evaluate(model, encs)
    assert all(m.training for m in model.modules())


# ---------------------------------------------------------------------------
# training folds (small real models on tiny synthetic data)

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    from melformer.data import SyntheticSpec
    man_path = gen_synthetic(SyntheticSpec(classes=2, per_class=5, seed=11), root)
    man = parse_manifest(man_path)
    words = sorted({w for r in man.records for w in r.transcript.split()})
    wv = hash_word_vectors(words, dim=24)
    encs = encode_manifest(man, Lexicon({}), wv)
    return man, encs, wv


def tiny_cfg():
    return small_config(num_classes=2, dropout=0.0)


def hcfg(**kw):
    base = dict(lr=3e-3, batch_size=5, max_epochs=40, patience=0, seeds=(0,))
    base.update(kw)
    return HarnessConfig(**base)


def test_early_stopping_uses_patience(corpus):
    _, encs, wv = corpus
    for patience in (0, 2):
        cfg = tiny_cfg()
        model = MultilevelTransformer(cfg, wv, seed=1)
        h = hcfg(patience=patience)
        _, history, best_epoch, epochs_run, _ = train_epochs(
            model, encs, encs, h, seed=1)
        assert history[best_epoch - 1] == max(history)
        assert epochs_run == min(best_epoch + patience + 1, h.max_epochs)


def test_train_fold_is_deterministic(corpus):
    man, encs, wv = corpus
    plan = kfold_split(man)[0]
    encs_by_id = {e.id: e for e in encs}
    h = hcfg(max_epochs=3, patience=5)
    a = train_fold(plan, encs_by_id, tiny_cfg(), h, wv, seed=4)
    b = train_fold(plan, encs_by_id, tiny_cfg(), h, wv, seed=4)
    assert a.dev_history == b.dev_history
    assert a.test.wa == b.test.wa
    np.testing.assert_array_equal(a.test.confusion, b.test.confusion)


def test_divergence_aborts_with_checkpoint_path(corpus, tmp_path):
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=0)
    model.head.bias.data[:] = np.nan  # poisoned weights make the first loss NaN
    with pytest.raises(TrainingDiverged, match="checkpoint") as exc_info:
        train_epochs(model, encs, encs, hcfg(max_epochs=2), seed=0,
                     out_dir=tmp_path, tag="diverge")
    assert (tmp_path / "diverge-best.ckpt").exists()
    assert str(exc_info.value).startswith("training diverged in epoch 1, step 1: loss became nan;")
    assert str(exc_info.value).endswith(f"best checkpoint: {tmp_path / 'diverge-best.ckpt'}")
    assert "last finite loss: none, its pre-clip gradient norm: none" in str(exc_info.value)


def test_best_checkpoint_takes_no_state_copies_of_its_own(corpus, tmp_path, monkeypatch):
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=2)
    copies = []
    state_dict = MultilevelTransformer.state_dict
    monkeypatch.setattr(MultilevelTransformer, "state_dict",
                        lambda self: copies.append(1) or state_dict(self))
    best_state, history, *_, ckpt = train_epochs(
        model, encs, encs, hcfg(max_epochs=4, patience=5), seed=2, out_dir=tmp_path, tag="b")
    improving = sum(wa > max(history[:i], default=-1.0) for i, wa in enumerate(history))
    assert len(copies) == 1 + improving  # the initial state and each improving epoch
    saved = load_checkpoint(ckpt)[2]
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, best_state[name])
        np.testing.assert_array_equal(saved[name], best_state[name].astype(np.float32))


def test_divergence_leaves_the_model_holding_the_saved_best_state(corpus, tmp_path,
                                                                  monkeypatch):
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=0)
    initial = model.state_dict()  # the best state: no epoch finishes
    step = Adam.step

    def poisoning_step(self):  # the second batch's loss comes out NaN
        step(self)
        model.head.bias.data[:] = np.nan

    monkeypatch.setattr(Adam, "step", poisoning_step)
    with pytest.raises(TrainingDiverged):
        train_epochs(model, encs, encs, hcfg(max_epochs=2), seed=0, out_dir=tmp_path, tag="d")
    saved = load_checkpoint(tmp_path / "d-best.ckpt")[2]
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, initial[name])
        np.testing.assert_array_equal(saved[name], initial[name].astype(np.float32))


def test_divergence_names_the_last_finite_loss_and_gradient_norm(corpus, monkeypatch):
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=0)
    losses, norms = [], []
    cross_entropy, clip, step = ag.cross_entropy, harness.clip_gradients, Adam.step

    def recording_loss(*args):
        loss = cross_entropy(*args)
        losses.append(float(loss.data))
        return loss

    def recording_clip(*args):
        norms.append(clip(*args))
        return norms[-1]

    def poisoning_step(self):  # the second batch's loss comes out NaN
        step(self)
        model.head.bias.data[:] = np.nan

    monkeypatch.setattr(ag, "cross_entropy", recording_loss)
    monkeypatch.setattr(harness, "clip_gradients", recording_clip)
    monkeypatch.setattr(Adam, "step", poisoning_step)
    with pytest.raises(TrainingDiverged) as exc_info:
        train_epochs(model, encs, encs, hcfg(max_epochs=2), seed=0)
    assert len(norms) == 1 and np.isnan(losses[1])
    assert (f"last finite loss: {losses[0]:.6g}, "
            f"its pre-clip gradient norm: {norms[0]:.6g}") in str(exc_info.value)


def train_with_poisoned_gradients(corpus, monkeypatch, t, poison):
    """Train until Adam has taken ``t`` steps, then call ``poison(named
    parameters)`` after the next ``ag.backward``.  Returns the optimizer, its
    arena, ``m`` and ``v`` as they were just before the poison, the arena
    when the divergence path restores the best state, and the
    ``TrainingDiverged``."""
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=0)
    params = dict(model.named_parameters())
    opts, before, at_restore = [], [], []

    class RecordedAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opts.append(self)

    backward, load = ag.backward, model.load_state_dict

    def poisoning_backward(loss):
        backward(loss)
        opt = opts[0]
        if opt.t == t:
            before.extend([opt.arena.copy(), opt.m.copy(), opt.v.copy()])
            poison(params)

    def recording_load(state):
        at_restore.append(opts[0].arena.copy())
        load(state)

    monkeypatch.setattr(harness, "Adam", RecordedAdam)
    monkeypatch.setattr(ag, "backward", poisoning_backward)
    monkeypatch.setattr(model, "load_state_dict", recording_load)
    with pytest.raises(TrainingDiverged) as exc_info:
        train_epochs(model, encs, encs, hcfg(max_epochs=2), seed=0)
    return opts[0], before, at_restore[0], exc_info.value


def test_adam_rejects_non_finite_gradient_by_name(corpus, monkeypatch):
    # two NaN gradients on the first step: the first in Adam's order is named,
    # and no parameter or moment has moved
    def poison(params):
        params["head.bias"].grad[1] = np.nan
        params["fusion_blocks.1.norm1.bias"].grad[0] = np.nan

    opt, before, restored, exc = train_with_poisoned_gradients(corpus, monkeypatch, 0, poison)
    assert str(exc) == ("training diverged in epoch 1, step 1: non-finite gradient in "
                        "parameter fusion_blocks.1.norm1.bias; last finite loss: none, "
                        "its pre-clip gradient norm: none; best checkpoint: none saved")
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()
    assert np.array_equal(restored, before[0])


@pytest.mark.parametrize("where", [0, 2, 3, 9])  # in the first block, or in the second
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_names_a_non_finite_gradient_in_a_parameter_that_straddles_blocks(
        corpus, monkeypatch, where, bad):
    # the trainer refuses the step before Adam walks any block: with the block
    # boundary three entries into a late parameter, a bad entry on either side
    # of it is named, and every parameter and moment keeps its value from
    # before the second step (nonzero moments)
    name = "fusion_blocks.1.norm2.bias"
    model = MultilevelTransformer(tiny_cfg(), corpus[2], seed=0)
    sizes = [p.data.size for _, p in model.trainable_named_parameters()]
    names = [n for n, _ in model.trainable_named_parameters()]
    monkeypatch.setattr(harness, "BLOCK", sum(sizes[:names.index(name)]) + 3)

    def poison(params):
        params[name].grad[where] = bad

    opt, before, restored, exc = train_with_poisoned_gradients(corpus, monkeypatch, 1, poison)
    i = [n for n, _ in opt.items].index(name)
    assert opt.offsets[i] < harness.BLOCK < opt.offsets[i + 1]
    assert str(exc).startswith(
        f"training diverged in epoch 1, step 2: non-finite gradient in parameter {name};")
    assert opt.t == 1
    for now, then in zip((restored, opt.m, opt.v), before):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("where", ["step 2", "dev evaluation"])
def test_a_forward_numeric_error_diverges_with_the_named_checkpoint(corpus, tmp_path,
                                                                    monkeypatch, where):
    # a NaN bias makes the text self-attention's scores NaN, which its softmax refuses
    _, encs, wv = corpus
    model = MultilevelTransformer(tiny_cfg(), wv, seed=0)
    bias = model.text_blocks[0].attn.wqvk.bias
    step, evaluate = Adam.step, harness.evaluate

    def poisoning_step(self):  # the second step's forward fails
        step(self)
        bias.data[:] = np.nan

    def poisoning_evaluate(*args):
        bias.data[:] = np.nan
        return evaluate(*args)

    if where == "step 2":
        monkeypatch.setattr(Adam, "step", poisoning_step)
    else:
        monkeypatch.setattr(harness, "evaluate", poisoning_evaluate)
    with pytest.raises(TrainingDiverged) as exc_info:
        train_epochs(model, encs, encs, hcfg(max_epochs=2), seed=0, out_dir=tmp_path, tag="f")
    message = str(exc_info.value)
    assert message.startswith(
        f"training diverged in epoch 1, {where}: softmax input contains NaN; last finite loss: 0.")
    assert message.endswith(f"best checkpoint: {tmp_path / 'f-best.ckpt'}")
    saved = load_checkpoint(tmp_path / "f-best.ckpt")[2]
    assert np.isfinite(saved["text_blocks.0.attn.wqvk.bias"]).all()


def padded_batches(encs, batch_size, rng=None):
    """The earlier training batches: each row padded to the batch's longest."""
    for batch in data.batches(encs, batch_size, rng=rng):
        max_words = max(e.n_words for e, _, _ in batch)
        max_frames = max(e.n_frames for e, _, _ in batch)
        yield [(e, max_words - e.n_words, max_frames - e.n_frames) for e, _, _ in batch]


def _trained_state(corpus, rate, granularity="fine", precision="float64"):
    # float64 unless asked: its callers hold training to an oracle within
    # 1e-10 or bit for bit, bounds set at that precision
    _, encs, wv = corpus
    cfg = small_config(num_classes=2, dropout=rate, precision=precision)
    model = build_model(cfg, hcfg(granularity=granularity), wv, seed=6)
    train_epochs(model, encs, encs, hcfg(max_epochs=2, patience=5), seed=6)
    return model.state_dict()


def test_unpadded_batches_train_like_padded_ones(corpus, monkeypatch):
    state = _trained_state(corpus, 0.0)
    monkeypatch.setattr(harness, "batches", padded_batches)
    ref = _trained_state(corpus, 0.0)
    assert any(pad for b in padded_batches(corpus[1], 5) for _, _, pad in b)
    for name, value in state.items():
        scale = max(np.linalg.norm(ref[name]), 1e-300)
        assert np.linalg.norm(value - ref[name]) / scale <= 1e-10, name


@pytest.mark.parametrize("granularity", ["fine", "multi"])
@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_lazy_backward_and_mask_dropout_train_bit_identically(corpus, monkeypatch,
                                                               granularity, rate):
    state = _trained_state(corpus, rate, granularity)
    monkeypatch.setattr(ag, "backward", zero_fill_backward)
    monkeypatch.setattr(ag, "dropout", mask_tensor_dropout)
    ref = _trained_state(corpus, rate, granularity)
    for name, value in state.items():
        assert value.tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("granularity, precision", [
    ("fine", "float64"), ("multi", "float64"), ("fine", "float32"), ("multi", "float32")],
    ids=["fine", "multi", "fine-float32", "multi-float32"])
def test_arena_adam_trains_folds_like_the_per_parameter_oracle(corpus, monkeypatch,
                                                               granularity, precision):
    state = _trained_state(corpus, 0.1, granularity, precision)
    monkeypatch.setattr(harness, "Adam", PerParameterAdam)
    ref = _trained_state(corpus, 0.1, granularity, precision)
    for name, value in state.items():
        assert value.dtype == ref[name].dtype == precision, name
        assert value.tobytes() == ref[name].tobytes(), name


def test_parameters_still_view_the_arena_after_training(corpus, monkeypatch):
    _, encs, wv = corpus
    made = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "Adam", RecordingAdam)
    model = build_model(tiny_cfg(), hcfg(granularity="multi"), wv, seed=3)
    best_state, *_ = train_epochs(model, encs, encs, hcfg(max_epochs=2, patience=5), seed=3)
    (opt,) = made
    assert [name for name, _ in opt.items] == [n for n, _ in model.trainable_named_parameters()]
    for (name, p), view in zip(opt.items, opt.views):
        assert p.data is view and view.base is opt.arena, name
        np.testing.assert_array_equal(p.data, best_state[name])


@pytest.mark.parametrize("granularity", ["fine", "multi"])
def test_a_trained_model_frees_its_arena_without_the_cycle_collector(corpus, monkeypatch,
                                                                     granularity):
    # a graph node off the loss's path (a reference cycle) holding one
    # parameter would keep the whole arena alive until the collector runs
    _, encs, wv = corpus
    arenas = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            arenas.append(weakref.ref(self.arena))

    monkeypatch.setattr(harness, "Adam", RecordingAdam)
    gc.collect()
    gc.disable()
    try:
        model = build_model(tiny_cfg(), hcfg(granularity=granularity), wv, seed=3)
        train_epochs(model, encs, encs, hcfg(max_epochs=1), seed=3)
        del model
        assert arenas[0]() is None
    finally:
        gc.enable()


def test_a_multi_training_step_leaves_no_reference_cycles(corpus):
    # every node of the step's graph reaches the loss, so backward frees it;
    # a node off that path (say, a head the forward never ran) would be a cycle
    _, encs, wv = corpus
    model = build_model(tiny_cfg(), hcfg(granularity="multi"), wv, seed=4)
    opt = Adam(model.trainable_named_parameters(), lr=1e-3)
    batch = [(e, 0, 0) for e in encs[:4]]
    gc.collect()
    gc.disable()
    try:
        loss = ag.cross_entropy(model.forward_batch(batch), [e.label for e, _, _ in batch])
        ag.backward(loss)
        clip_gradients([p for _, p in model.trainable_named_parameters()], 5.0)
        opt.step()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def _prefix_filter(model):
    """The earlier ``freeze_fine`` rule, kept as an oracle: the optimizer
    took the parameters named under the utterance encoder, the projections
    and the head, and the encoder still built its graph."""
    return ((name, p) for name, p in model.named_parameters()
            if name.startswith(("utt_encoder.", "proj_", "head.")))


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_frozen_fine_trains_like_the_prefix_filter_oracle(corpus, monkeypatch, precision):
    _, encs, wv = corpus
    cfg = small_config(num_classes=2, dropout=0.1, precision=precision)
    frozen = MultiGranularityModel(cfg, wv, seed=6, freeze_fine=True)
    oracle = MultiGranularityModel(cfg, wv, seed=6)
    monkeypatch.setattr(oracle, "trainable_named_parameters", lambda: _prefix_filter(oracle))
    initial = frozen.state_dict()
    for model in (frozen, oracle):
        train_epochs(model, encs, encs, hcfg(max_epochs=2, patience=5), seed=6)
    state, ref = frozen.state_dict(), oracle.state_dict()
    assert list(state) == list(ref)
    for name, value in state.items():
        assert value.dtype == precision and value.tobytes() == ref[name].tobytes(), name
    assert not np.array_equal(state["head.weight"], initial["head.weight"])


def test_freezing_fine_model_trains_only_fusion_side(corpus):
    _, encs, wv = corpus
    model = MultiGranularityModel(tiny_cfg(), wv, utt_dim=None, seed=2, freeze_fine=True)
    before = {name: p.data.copy() for name, p in model.named_parameters()}
    train_epochs(model, encs, encs, hcfg(max_epochs=1, lr=1e-2), seed=2)
    after = dict(model.named_parameters())
    frozen = [name for name in before
              if not name.startswith(("utt_encoder.", "proj_fine.", "proj_utt.", "head."))]
    assert "fusion_blocks.0.ffn.lin1.weight" in frozen
    for name in frozen:
        np.testing.assert_array_equal(after[name].data, before[name], err_msg=name)
    assert not np.array_equal(after["head.weight"].data, before["head.weight"])


def test_run_protocol_serial_and_parallel_agree(corpus, tmp_path):
    man, encs, wv = corpus
    plans = kfold_split(man)
    h_serial = hcfg(max_epochs=2, patience=5, workers=1)
    h_par = hcfg(max_epochs=2, patience=5, workers=2)
    res_s, sum_s = run_protocol(encs, plans, tiny_cfg(), h_serial, wv)
    res_p, sum_p = run_protocol(encs, plans, tiny_cfg(), h_par, wv)
    assert [r.dev_history for r in res_s] == [r.dev_history for r in res_p]
    assert sum_s["wa"] == sum_p["wa"]
    assert len(res_s) == 5
    assert set(sum_s) >= {"per_seed", "wa", "ua", "wa_mean", "ua_std"}


def _received(marker, message):
    """Unpickles a ``_Diverged`` where its result is received: in the parent."""
    Path(marker).touch()
    return TrainingDiverged(message)


class _Diverged(TrainingDiverged):
    def __init__(self, marker, message):
        super().__init__(message)
        self.marker = marker

    def __reduce__(self):
        return _received, (self.marker, self.args[0])


def test_a_fold_that_fails_under_workers_stops_the_folds_not_yet_started(monkeypatch, tmp_path):
    """Two workers, five folds, and fold 0 diverges at once.  The other
    folds return only once the parent has received that error (a marker its
    unpickling leaves, not a clock), so none of them can free a worker
    first: fold 0's error is raised and no fold queued behind it trains."""
    received = tmp_path / "received"

    def train_fold(plan, *args, **kwargs):
        (tmp_path / f"started{plan.fold}").touch()
        if plan.fold == 0:
            raise _Diverged(str(received), "training diverged in fold 0")
        deadline = time.monotonic() + 60  # a bound for a broken pool, not a timing
        while not received.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return plan.fold

    monkeypatch.setattr(harness, "train_fold", train_fold)
    monkeypatch.delenv("MELFORMER_NUM_WORKERS", raising=False)
    plans = [SimpleNamespace(fold=fold) for fold in range(5)]
    with pytest.raises(TrainingDiverged, match="fold 0"):
        run_protocol([], plans, tiny_cfg(), hcfg(workers=2), None)
    assert received.exists()
    assert {int(path.name[len("started"):]) for path in tmp_path.glob("started*")} == {0, 1}


def test_worker_count_respects_env_cap(monkeypatch):
    monkeypatch.delenv("MELFORMER_NUM_WORKERS", raising=False)
    assert _worker_count(8) == 8
    monkeypatch.setenv("MELFORMER_NUM_WORKERS", "2")
    assert _worker_count(8) == 2
    assert _worker_count(1) == 1
    monkeypatch.setenv("MELFORMER_NUM_WORKERS", "abc")
    with pytest.raises(ValidationError, match="MELFORMER_NUM_WORKERS"):
        _worker_count(2)


@pytest.mark.parametrize("granularity", ["fine", "multi"])
def test_checkpoint_header_restores_the_trained_model(corpus, tmp_path, granularity):
    _, encs, wv = corpus
    h = hcfg(max_epochs=1, granularity=granularity, freeze_fine=True)
    model = build_model(tiny_cfg(), h, wv, seed=3)
    *_, ckpt = train_epochs(model, encs, encs, h, seed=3, out_dir=tmp_path, tag="hdr")
    expected = {"seed": 3, "best_epoch": 1, "granularity": granularity}
    if granularity == "multi":
        expected.update(utt_dim=wv.dim, builtin_encoder=True, freeze_fine=True)
    assert load_checkpoint(ckpt)[1] == expected
    restored, _, _ = restore_model(ckpt, wv)
    assert type(restored) is type(model)
    np.testing.assert_allclose(restored.predict_probs(encs[0]), model.predict_probs(encs[0]),
                               atol=1e-5)


# ---------------------------------------------------------------------------
# aggregation and reports

def fake_result(seed, fold, wa, ua):
    return TrainResult(fold=fold, seed=seed,
                       test=FoldMetrics(wa=wa, ua=ua, per_class_recall=[wa],
                                        confusion=np.zeros((2, 2), dtype=np.int64)),
                       dev_history=[wa], best_epoch=1, epochs_run=1)


def test_format_mean_std():
    assert format_mean_std(0.75, 0.05) == "0.750 ± 0.050"
    assert format_mean_std(1.0, 0.0) == "1.000 ± 0.000"


def test_summary_uses_population_std_over_seed_means():
    results = [fake_result(0, f, 0.7, 0.6) for f in range(5)] + \
              [fake_result(1, f, 0.8, 0.8) for f in range(5)]
    s = summarize(results, seeds=(0, 1))
    assert s["per_seed"] == [{"seed": 0, "wa": pytest.approx(0.7), "ua": pytest.approx(0.6)},
                             {"seed": 1, "wa": pytest.approx(0.8), "ua": pytest.approx(0.8)}]
    assert s["wa"] == "0.750 ± 0.050"
    assert s["ua"] == "0.700 ± 0.100"


def test_write_results_emits_json_and_table(tmp_path):
    run_cfg = RunConfig()
    results = [fake_result(0, f, 0.9, 0.85) for f in range(5)]
    summary = summarize(results, seeds=(0,))
    path = write_results(tmp_path, run_cfg, results, summary)
    doc = json.loads(path.read_text())
    assert doc["run_id"] == run_cfg.run_id()
    assert len(doc["folds"]) == 5
    assert doc["summary"]["wa"] == "0.900 ± 0.000"
    assert doc["folds"][0]["confusion"] == [[0, 0], [0, 0]]
    table = (tmp_path / "table.txt").read_text().splitlines()
    assert table[0].split() == ["model", "WA", "UA"]
    assert table[1].startswith(f"fine (1|1|2) {run_cfg.run_id()}  ")
    assert "0.900 ± 0.000" in table[1]
