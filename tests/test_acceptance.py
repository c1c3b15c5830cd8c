"""Acceptance suite: six gate checks for the whole package.

Each test prints one `ACCEPTANCE n <name>: PASS|FAIL` line (visible under
`pytest -s`).  The training checks run real models on generated data and
carry explicit wall-clock budgets.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from helpers import attention_modules, make_enc, make_model, nudge_off_kinks
from melformer import autograd as ag
from melformer.audio import FRAME_MS, HOP_MS, frame_signal
from melformer.config import HarnessConfig, LABELS, ModelConfig
from melformer.data import (SyntheticSpec, batches, encode_manifest,
                            gen_synthetic, parse_manifest)
from melformer.errors import ValidationError
from melformer.fusion import MultiGranularityModel
from melformer.harness import (Adam, clip_gradients, evaluate, kfold_split,
                               metrics_from_confusion, run_protocol, train_fold)
from melformer.model import MultilevelTransformer, load_checkpoint, save_checkpoint
from melformer.text import HighwayLayer, Lexicon, hash_word_vectors
from melformer.verify import GRAD_TOL, run_all
from test_harness import fake_manifest


@contextlib.contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {n} {name}: PASS")


def synth_corpus(tmp_path, classes, per_class, seed, word_dim):
    man = parse_manifest(gen_synthetic(
        SyntheticSpec(classes=classes, per_class=per_class, seed=seed), tmp_path))
    words = sorted({w for r in man.records for w in r.transcript.split()})
    wv = hash_word_vectors(words, dim=word_dim)
    encs = encode_manifest(man, Lexicon({}), wv)
    return man, encs, wv


def test_criterion_1_gradients_verified():
    with criterion(1, "gradient checks"):
        start = time.monotonic()
        results = run_all(report=None)
        elapsed = time.monotonic() - start
        worst = max(err for _, err, _ in results)
        assert all(ok for _, _, ok in results), \
            [name for name, _, ok in results if not ok]
        assert worst < GRAD_TOL
        assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"


def test_criterion_2_overfits_small_corpus(tmp_path):
    with criterion(2, "overfit 16 utterances"):
        start = time.monotonic()
        _, encs, wv = synth_corpus(tmp_path, classes=4, per_class=4, seed=5,
                                   word_dim=300)
        assert len(encs) == 16
        cfg = ModelConfig(layers_text=1, layers_cross=1, layers_fusion=2, dropout=0.0)
        model = MultilevelTransformer(cfg, wv, seed=0)
        opt = Adam(model.trainable_named_parameters(), lr=1e-3)
        params = [p for _, p in model.trainable_named_parameters()]
        rng = np.random.default_rng(0)
        steps, accuracy = 0, 0.0
        while steps < 300 and accuracy < 1.0:
            for batch in batches(encs, 8, rng=rng):
                logits = ag.stack_rows(
                    [model.forward_utterance(e, pad_words=pw, pad_frames=pf).logits
                     for e, pw, pf in batch])
                loss = ag.cross_entropy(logits, [e.label for e, _, _ in batch])
                ag.backward(loss)
                clip_gradients(params, 5.0)
                opt.step()
                steps += 1
            accuracy = evaluate(model, encs).wa
        elapsed = time.monotonic() - start
        assert accuracy == 1.0, f"train accuracy {accuracy} after {steps} steps"
        assert steps <= 300
        assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"


def test_criterion_3_synthetic_five_fold_protocol(tmp_path):
    with criterion(3, "synthetic five-fold protocol"):
        start = time.monotonic()
        man, encs, wv = synth_corpus(tmp_path, classes=4, per_class=40, seed=0,
                                     word_dim=50)
        cfg = ModelConfig(d_model=32, heads=4, layers_text=1, layers_cross=1,
                          layers_fusion=2, dropout=0.0, d_ff=64, phoneme_dim=16,
                          phoneme_channels=30, word_dim=50)
        hcfg = HarnessConfig(lr=1e-3, batch_size=8, max_epochs=100, patience=10,
                             seeds=(0,), workers=1)
        plans = kfold_split(man, seed=0, group_mode=hcfg.group_mode)
        results, summary = run_protocol(encs, plans, cfg, hcfg, wv)
        elapsed = time.monotonic() - start
        assert len(results) == 5
        assert summary["wa_mean"] >= 0.90, summary
        assert summary["ua_mean"] >= 0.90, summary
        assert elapsed < 1800.0, f"protocol took {elapsed:.0f}s"


def test_criterion_4_protocol_properties():
    with criterion(4, "protocol properties"):
        # rotation over five session groups: disjoint, exhaustive, chained
        man = fake_manifest({f"s{k}": 4 for k in range(5)})
        plans = kfold_split(man)
        everything = {r.id for r in man.records}
        for p in plans:
            parts = [set(p.train_ids), set(p.dev_ids), set(p.test_ids)]
            assert parts[0] | parts[1] | parts[2] == everything
            assert not (parts[0] & parts[1]) and not (parts[0] & parts[2])
            assert not (parts[1] & parts[2])
        for i in range(5):
            assert set(plans[i].test_ids) == set(plans[(i + 1) % 5].dev_ids)
        assert sorted(i for p in plans for i in p.test_ids) == sorted(everything)

        # many sessions pack into five balanced groups without splitting any
        packed = kfold_split(fake_manifest(
            {"sA": 5, "sB": 4, "sC": 3, "sD": 2, "sE": 2, "sF": 1, "sG": 1}))
        assert sorted(len(p.test_ids) for p in packed) == [3, 3, 3, 4, 5]

        # no sessions: label-stratified random groups, reproducible by seed
        rand_man = fake_manifest(n_random=20)
        rand_plans = kfold_split(rand_man, seed=3)
        label_of = {r.id: r.label for r in rand_man.records}
        for p in rand_plans:
            assert sorted(label_of[i] for i in p.test_ids) == sorted(LABELS)
        assert [p.test_ids for p in kfold_split(rand_man, seed=3)] == \
               [p.test_ids for p in rand_plans]

        # fewer than five session groups is refused with a way out
        with pytest.raises(ValidationError, match="random grouping"):
            kfold_split(fake_manifest({"sA": 4, "sB": 4}), group_mode="session")

        # metric definitions on a hand-checked confusion
        m = metrics_from_confusion([[2, 0], [2, 4]])
        assert m.wa == pytest.approx(0.75)
        assert m.ua == pytest.approx(5 / 6)
        dup = metrics_from_confusion(np.array([[2, 0], [2, 4]]) * 7)
        assert dup.wa == pytest.approx(m.wa) and dup.ua == pytest.approx(m.ua)


def test_criterion_5_invariants(tmp_path):
    with criterion(5, "numeric and structural invariants"):
        # padding never changes logits beyond float noise
        model, cfg, wv = make_model(seed=3)
        model.eval()
        enc = make_enc(wv, seed=4)
        base = model.forward_utterance(enc).logits.data
        padded = model.forward_utterance(enc, pad_words=3, pad_frames=4).logits.data
        assert np.max(np.abs(base - padded)) < 1e-5

        # attention rows are distributions at every attention module
        for mha in attention_modules(model):
            sums = mha.last_weights.sum(axis=2)
            assert np.max(np.abs(sums - 1.0)) < 1e-6

        # highway gate limits and midpoint
        rng = np.random.default_rng(0)
        u = ag.Tensor(rng.standard_normal((1, 6)))
        hw = HighwayLayer(6, rng)
        hw.gate.bias.data[:] = -1e9
        assert np.array_equal(hw(u).data, u.data)            # closed gate copies
        hw.gate.bias.data[:] = 1e9
        transformed = ag.relu(hw.transform(u)).data
        assert np.array_equal(hw(u).data, transformed)       # open gate transforms
        hw.gate.weight.data[:] = 0.0
        hw.gate.bias.data[:] = 0.0
        blend = hw(u).data
        np.testing.assert_allclose(blend, 0.5 * transformed + 0.5 * u.data, rtol=0, atol=0)

        # WA/UA agree with a loop-based reference on 50 random confusions
        crng = np.random.default_rng(42)
        for _ in range(50):
            k = int(crng.integers(2, 6))
            conf = crng.integers(0, 12, size=(k, k))
            conf[int(crng.integers(0, k)), 0] += 1  # never empty
            m = metrics_from_confusion(conf)
            total = correct = 0
            recalls = []
            for i in range(k):
                row = int(conf[i].sum())
                total += row
                correct += int(conf[i, i])
                if row:
                    recalls.append(conf[i, i] / row)
            assert abs(m.wa - correct / total) < 1e-12
            assert abs(m.ua - sum(recalls) / len(recalls)) < 1e-12

        # Adam against an independent per-coordinate reference
        t = ag.Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([("p", t)], lr=1e-3)
        ref = np.zeros(4)
        mm, vv = np.zeros(4), np.zeros(4)
        for step in range(1, 101):
            g = np.array([math.sin(0.3 * step + i) for i in range(4)])
            t.grad = g.copy()
            opt.step()
            for j in range(4):
                mm[j] = 0.9 * mm[j] + 0.1 * g[j]
                vv[j] = 0.999 * vv[j] + 0.001 * g[j] * g[j]
                ref[j] -= 1e-3 * (mm[j] / (1 - 0.9 ** step)) / \
                    (math.sqrt(vv[j] / (1 - 0.999 ** step)) + 1e-8)
        np.testing.assert_allclose(t.data, ref, atol=1e-12)

        # frame counts match exhaustive enumeration over 1000 random lengths
        frng = np.random.default_rng(7)
        for _ in range(1000):
            sr = int(frng.choice([8000, 16000]))
            win = sr * FRAME_MS // 1000
            hop = sr * HOP_MS // 1000
            n = int(frng.integers(win, 3 * sr))
            count, pos = 0, 0
            while pos + win <= n:
                count += 1
                pos += hop
            assert frame_signal(np.zeros(n), sr).shape[0] == count, (n, sr)

        # checkpoints round-trip bit for bit
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(path_a, model, cfg, extra={"seed": 3})
        cfg_back, extra, params = load_checkpoint(path_a)
        restored, _, wv2 = make_model(seed=9)
        restored.load_state_dict(params)
        save_checkpoint(path_b, restored, cfg_back, extra=extra)
        assert path_a.read_bytes() == path_b.read_bytes()


def test_criterion_6_fusion_degrades_to_fine_model():
    with criterion(6, "fusion degradation"):
        _, cfg, wv = make_model(seed=1)
        fusion = MultiGranularityModel(cfg, wv, utt_dim=6, seed=1)
        fusion.eval()
        fusion.proj_utt.weight.data[:] = 0.0
        fusion.proj_utt.bias.data[:] = 0.0
        enc = make_enc(wv, seed=2, utt_embedding=np.zeros(6))
        trace = fusion.forward_utterance(enc)
        d_fuse = fusion.proj_fine.n_out
        pf = trace.cls.data @ fusion.proj_fine.weight.data + fusion.proj_fine.bias.data
        expected = pf @ fusion.head.weight.data[:d_fuse] + fusion.head.bias.data
        assert np.array_equal(trace.logits.data, expected)
