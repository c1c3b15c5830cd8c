"""End-to-end command-line behavior: exit codes, file outputs, precedence."""

import dataclasses
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from melformer import nn
from melformer.cli import _config_and_flags, build_parser, main
from melformer.config import (CHOICES, LABELS, HarnessConfig, ModelConfig, RunConfig,
                              resolve_config, run_keys)
from melformer.errors import ValidationError
from melformer.model import save_checkpoint

TINY_MODEL = ["--d-model", "16", "--heads", "2", "--d-ff", "32", "--dropout", "0.0",
              "--layers-text", "1", "--layers-cross", "1", "--layers-fusion", "1",
              "--num-classes", "2"]
TINY_RUN = ["--lr", "3e-3", "--batch-size", "5", "--max-epochs", "2",
            "--patience", "5", "--seeds", "0", "--workers", "1"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    assert main(["gen-synthetic", "--out", str(raw), "--classes", "2",
                 "--per-class", "5", "--seed", "11"]) == 0
    feats = root / "feats"
    assert main(["featurize", "--manifest", str(raw / "manifest.jsonl"),
                 "--out-dir", str(feats)]) == 0
    return root, raw, feats / "manifest.jsonl"


def test_gen_synthetic_writes_corpus(corpus):
    _, raw, _ = corpus
    assert len(list(raw.glob("*.wav"))) == 10
    assert (raw / "manifest.jsonl").exists()
    assert (raw / "uemb.txt").exists()
    assert (raw / "wordvecs.txt").exists()


def test_featurize_second_run_skips_everything(corpus, capsys):
    _, raw, feats_manifest = corpus
    capsys.readouterr()
    assert main(["featurize", "--manifest", str(raw / "manifest.jsonl"),
                 "--out-dir", str(feats_manifest.parent)]) == 0
    out = capsys.readouterr().out
    assert "features written: 0, unchanged: 10" in out


def test_missing_config_exits_one_with_message(capsys):
    assert main(["train", "--config", "missing.json"]) == 1
    assert "error: config not found: missing.json" in capsys.readouterr().err


def test_missing_manifest_exits_one(capsys):
    assert main(["train", "--manifest", "nowhere.jsonl"] + TINY_MODEL + TINY_RUN) == 1
    assert "error: manifest not found" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seeds", "zero,one"])
    assert exc.value.code == 2


def test_train_writes_results_and_config_echo(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    out = tmp_path / "run"
    rc = main(["train", "--manifest", str(manifest), "--out-dir", str(out)]
              + TINY_MODEL + TINY_RUN)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "WA " in stdout and "UA " in stdout

    echoed = json.loads((out / "config.json").read_text())
    assert echoed["harness"]["lr"] == pytest.approx(3e-3)
    assert echoed["model"]["d_model"] == 16

    doc = json.loads((out / "results.json").read_text())
    assert len(doc["folds"]) == 5
    assert len(doc["run_id"]) == 12
    assert (out / "table.txt").exists()
    assert list(out.glob("seed0-fold*-best.ckpt"))


def test_a_run_that_fails_in_training_keeps_its_config_echo(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    out = tmp_path / "run"
    argv = (["train", "--manifest", str(manifest), "--out-dir", str(out)]
            + TINY_MODEL + TINY_RUN + ["--lr", "1e30"])
    errors = []
    for workers in ("1", "2"):  # a worker's divergence reads as the serial one's
        for ckpt in out.glob("*.ckpt"):
            ckpt.unlink()
        assert main(argv + ["--workers", workers]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged in epoch \d+, [^\n]+\n", err), err
        assert Path(err.rsplit("best checkpoint: ", 1)[1].strip()).exists()
        errors.append(err)
    assert errors[0] == errors[1]
    assert json.loads((out / "config.json").read_text())["harness"]["lr"] == 1e30
    assert not (out / "results.json").exists()


def test_a_parameter_whose_float64_draw_overflows_memory_is_refused_before_the_config_echo(
        corpus, tmp_path, capsys, monkeypatch):
    _, _, manifest = corpus
    u = ModelConfig().word_dim + ModelConfig().phoneme_channels  # the highway weights, [u, u]
    monkeypatch.setattr(nn, "_MEMORY_BYTES", 6 * u * u)  # room for them in float32, not in float64
    out = tmp_path / "run"
    argv = ["train", "--manifest", str(manifest), "--out-dir", str(out)] + TINY_MODEL + TINY_RUN
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: a parameter of shape \({u}, {u}\) needs [^\n]+\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("granularity,precision,utt_file",
                         [("fine", "float32", False), ("multi", "float32", False),
                          ("fine", "float64", False), ("multi", "float32", True)],
                         ids=["fine", "multi", "fine-float64", "multi-file"])
def test_eval_on_each_best_checkpoint_reproduces_its_fold(corpus, tmp_path, capsys, granularity,
                                                          precision, utt_file):
    from melformer.cli import _checkpoint_utt_table, _restore
    from melformer.data import encode_manifest, parse_manifest
    from melformer.harness import kfold_split
    from melformer.text import Lexicon
    _, raw, manifest = corpus
    uemb = ["--utt-embeddings", str(raw / "uemb.txt")] if utt_file else []
    out = tmp_path / "run"
    argv = ["train", "--manifest", str(manifest), "--out-dir", str(out),
            "--granularity", granularity, "--precision", precision
            ] + uemb + TINY_MODEL + TINY_RUN + ["--batch-size", "4"]
    assert main(argv) == 0
    folds = {f["fold"]: f for f in json.loads((out / "results.json").read_text())["folds"]}
    records = {}
    for line in manifest.read_text().splitlines():
        rec = json.loads(line)
        records[rec["id"]] = {**rec, "features_path": str(manifest.parent / rec["features_path"])}
    raw_lines = (raw / "manifest.jsonl").read_text().splitlines()
    audio = {rec["id"]: rec["audio_path"] for rec in map(json.loads, raw_lines)}
    for plan in kfold_split(parse_manifest(manifest)):
        fold_manifest = tmp_path / f"fold{plan.fold}.jsonl"
        fold_manifest.write_text("".join(json.dumps(records[i]) + "\n" for i in plan.test_ids))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / f"seed0-fold{plan.fold}-best.ckpt"),
                     "--manifest", str(fold_manifest)] + uemb) == 0
        shown = capsys.readouterr().out.split("confusion (rows true, cols predicted):\n")[1]
        confusion = [[int(v) for v in line.split()] for line in shown.splitlines()]
        assert confusion == folds[plan.fold]["confusion"], plan.fold
        # predict on one test utterance's WAV names the class that eval gives
        # on that utterance's feature cache, with the probabilities the
        # restored model gives on the encoding eval reads
        ckpt = str(out / f"seed0-fold{plan.fold}-best.ckpt")
        rec = records[plan.test_ids[0]]
        one = tmp_path / f"one{plan.fold}.jsonl"
        one.write_text(json.dumps(rec) + "\n")
        assert main(["eval", "--checkpoint", ckpt, "--manifest", str(one)] + uemb) == 0
        shown = capsys.readouterr().out.split("confusion (rows true, cols predicted):\n")[1]
        predicted, = [j for line in shown.splitlines() for j, v in enumerate(line.split())
                      if v == "1"]
        utt_id = ["--utt-id", rec.get("utt_embedding_id") or rec["id"]] if utt_file else []
        assert main(["predict", "--checkpoint", ckpt, "--wav", str(raw / audio[rec["id"]]),
                     "--transcript", rec["transcript"]] + uemb + utt_id) == 0
        model, wv = _restore(SimpleNamespace(checkpoint=ckpt, word_vectors=None),
                             [rec["transcript"]], Lexicon({}))
        enc, = encode_manifest(parse_manifest(one), Lexicon({}), wv,
                               utt_table=_checkpoint_utt_table(model, uemb[-1] if uemb else None))
        probs = model.predict_probs(enc)
        assert capsys.readouterr().out == "".join(
            f"{label} {p:.4f}\n" for label, p in zip(LABELS, probs)
        ) + f"predicted: {LABELS[predicted]}\n", plan.fold


def test_word_vector_file_sets_its_own_width(corpus, tmp_path, capsys):
    _, raw, manifest = corpus
    narrow = tmp_path / "wv24.txt"
    narrow.write_text("".join(" ".join(line.split()[:25]) + "\n"
                              for line in (raw / "wordvecs.txt").read_text().splitlines()))
    run = ["train", "--manifest", str(manifest), "--word-vectors", str(narrow)]
    assert main(run + ["--out-dir", str(tmp_path / "run"), "--word-dim", "24"]
                + TINY_MODEL + TINY_RUN) == 0
    capsys.readouterr()
    assert main(run + ["--out-dir", str(tmp_path / "run300")] + TINY_MODEL + TINY_RUN) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: word vectors are 24-dimensional") and "word_dim=300" in err


def test_flags_override_config_file(corpus, tmp_path):
    _, _, manifest = corpus
    cfg_file = tmp_path / "base.json"
    cfg_file.write_text(json.dumps({
        "model": {k.replace("-", "_"): v for k, v in zip(
            ["d_model", "heads", "d_ff", "dropout", "layers_text", "layers_cross",
             "layers_fusion", "num_classes"], [16, 2, 32, 0.0, 1, 1, 1, 2])},
        "harness": {"lr": 1e-5, "batch_size": 5, "max_epochs": 1,
                    "patience": 5, "seeds": [0]},
        "manifest": str(manifest),
    }))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_file), "--lr", "0.002",
               "--out-dir", str(out)])
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["harness"]["lr"] == pytest.approx(0.002)   # flag wins
    assert echoed["harness"]["batch_size"] == 5              # file value kept


def test_unknown_config_key_is_rejected(corpus, tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"harness": {"learning_rate": 1e-3}}))
    assert main(["train", "--config", str(cfg_file)]) == 1
    assert "unknown config key 'learning_rate'" in capsys.readouterr().err


def test_eval_and_predict_roundtrip(corpus, tmp_path, capsys):
    root, raw, manifest = corpus
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out-dir", str(out)]
                + TINY_MODEL + TINY_RUN) == 0
    ckpt = str(out / "seed0-fold0-best.ckpt")
    capsys.readouterr()

    assert main(["eval", "--checkpoint", ckpt, "--manifest", str(manifest)]) == 0
    eval_out = capsys.readouterr().out
    assert "WA " in eval_out and "recall[angry]" in eval_out and "confusion" in eval_out

    wav = str(raw / "angry-000.wav")
    assert main(["predict", "--checkpoint", ckpt, "--wav", wav,
                 "--transcript", "stop shouting right now"]) == 0
    pred_out = capsys.readouterr().out
    assert "predicted: " in pred_out
    probs = [float(line.split()[1]) for line in pred_out.splitlines()[:2]]
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_multi_granularity_with_embedding_file(corpus, tmp_path, capsys):
    root, raw, manifest = corpus
    out = tmp_path / "multi"
    rc = main(["train", "--manifest", str(manifest), "--out-dir", str(out),
               "--granularity", "multi", "--utt-embeddings", str(raw / "uemb.txt")]
              + TINY_MODEL + TINY_RUN)
    assert rc == 0
    assert (out / "results.json").exists()
    ckpt = str(out / "seed0-fold0-best.ckpt")
    capsys.readouterr()

    assert main(["eval", "--checkpoint", ckpt, "--manifest", str(manifest),
                 "--utt-embeddings", str(raw / "uemb.txt")]) == 0
    assert "recall[angry]" in capsys.readouterr().out

    assert main(["predict", "--checkpoint", ckpt, "--wav", str(raw / "angry-000.wav"),
                 "--transcript", "stop shouting right now",
                 "--utt-embeddings", str(raw / "uemb.txt"), "--utt-id", "angry-000"]) == 0
    pred_out = capsys.readouterr().out
    probs = [float(line.split()[1]) for line in pred_out.splitlines()[:2]]
    assert "predicted: " in pred_out and all(0.0 <= p <= 1.0 for p in probs)

    assert main(["predict", "--checkpoint", ckpt, "--wav", str(raw / "angry-000.wav"),
                 "--transcript", "stop shouting right now",
                 "--utt-embeddings", str(raw / "uemb.txt"), "--utt-id", "nobody"]) == 1
    assert capsys.readouterr().err == "error: 1 utterance ids have no embedding: ['nobody']\n"


def test_eval_on_truncated_checkpoint_exits_one(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    ckpt = tmp_path / "cut.ckpt"
    save_checkpoint(ckpt, nn.Linear(2, 3, np.random.default_rng(0)), ModelConfig())
    ckpt.write_bytes(ckpt.read_bytes()[:-10])
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err


def test_mistyped_checkpoint_header_exits_one(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    ckpt = tmp_path / "typed.ckpt"
    save_checkpoint(ckpt, nn.Linear(2, 3, np.random.default_rng(0)), ModelConfig())
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    header["model"]["phoneme_widths"] = 5
    new = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(raw[:4] + struct.pack("<I", len(new)) + new + raw[8 + hlen:])
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "phoneme_widths" in err


@pytest.mark.parametrize("doc, named", [
    ({"model": {"heads": 0}}, "heads"),
    ({"model": {"d_ff": 0}}, "d_ff"),
    ({"model": {"phoneme_widths": []}}, "phoneme_widths"),
    ({"model": {"d_model": True}}, "d_model"),
    ({"harness": {"lr": "fast"}}, "lr"),
    ({"harness": {"clip_norm": -1}}, "clip_norm"),
    ({"harness": {"seeds": [0, 1.5]}}, "seeds"),
    ({"model": 4}, "object"),
])
def test_mistyped_or_out_of_range_config_values_exit_one(tmp_path, capsys, doc, named):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_one(capsys, workers):
    assert main(["train", "--workers", workers]) == 1
    assert capsys.readouterr().err.startswith(f"error: workers must be >= 1, got {workers}")


def test_integer_config_values_are_accepted_for_float_fields():
    cfg = resolve_config({"model": {"dropout": 0}, "harness": {"lr": 1}})
    assert type(cfg.model.dropout) is float and cfg.model.dropout == 0.0
    assert type(cfg.harness.lr) is float and cfg.harness.lr == 1.0


@pytest.mark.parametrize("line", [
    b"5",
    json.dumps({"id": "u0", "transcript": "hi", "label": ["happy"], "audio_path": "u0.wav"}).encode(),
    b'{"id": "caf\xe9", "transcript": "hi", "label": "sad", "audio_path": "u0.wav"}',
    b'{"id": "u0", "transcript": "hi", "label": "sad", "audio_path": "u\\u0000.wav"}',
    b'{"id": "u\\u00000", "transcript": "hi", "label": "sad", "audio_path": "u0.wav"}',
], ids=["not_an_object", "list_label", "non_utf8", "nul_in_audio_path", "nul_in_id"])
def test_malformed_manifest_record_exits_one(tmp_path, capsys, line):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(line + b"\n")
    assert main(["featurize", "--manifest", str(manifest), "--out-dir", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: ")


@pytest.mark.parametrize("flag, payload, message", [
    ("--lexicon", b"HELLO HH AH0\nCAF\xc9 K AE F\n", "line 2: not UTF-8"),
    ("--lexicon", b"HELLO HH AH0\n;;; comment\nStop S T AA1 P\nHello HH EH0 L OW1\n",
     "line 4: duplicate word 'Hello' (line 1 has 'hello' already)"),
    ("--word-vectors", b"w\xff " + b" ".join([b"0.5"] * 300) + b"\n", "line 1: not UTF-8"),
    ("--word-vectors", b"stop 0.5 0.5\nnow 0.5 nan\n", "line 2: non-finite value for 'now'"),
    ("--word-vectors", b"cat 1 2\nCat 3 4\ndog 5 6\n", "line 2: duplicate word 'Cat'"),
    ("--utt-embeddings", b"UEMB 2\nangry-000 1.0 \xe9\n", "line 2: not UTF-8"),
    ("--utt-embeddings", b"UEMB 2\nangry-000 1.0 2.0\nangry-001 1.0 zz\n",
     "line 3: bad value for 'angry-001'"),
], ids=["lexicon_non_utf8", "lexicon_duplicate", "word_vectors_non_utf8", "word_vectors_nan",
        "word_vectors_duplicate", "uemb_non_utf8", "uemb_non_numeric"])
def test_malformed_text_input_exits_one(corpus, tmp_path, capsys, flag, payload, message):
    _, _, manifest = corpus
    bad = tmp_path / "input.txt"
    bad.write_bytes(payload)
    extra = ["--granularity", "multi"] if flag == "--utt-embeddings" else []
    rc = main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"),
               flag, str(bad)] + extra + TINY_MODEL + TINY_RUN)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize("utt_id", ["../escaped", "", ".", "..", "a/b", "a\\b"])
def test_featurize_refuses_an_id_that_is_not_a_file_name(corpus, tmp_path, capsys, utt_id):
    _, raw, _ = corpus
    wav = str(raw / "angry-000.wav")
    manifest = tmp_path / "in" / "m.jsonl"
    manifest.parent.mkdir()
    manifest.write_text("".join(json.dumps({"id": i, "transcript": "stop", "label": "angry",
                                            "audio_path": wav}) + "\n"
                                for i in ("first", utt_id)))
    assert main(["featurize", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "in" / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: id {utt_id!r} is not a file name")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["in", "m.jsonl"]


def test_featurize_refuses_to_overwrite_the_manifest_it_reads(tmp_path, capsys):
    raw = tmp_path / "c"
    assert main(["gen-synthetic", "--out", str(raw), "--classes", "2", "--per-class", "2"]) == 0
    manifest = raw / "manifest.jsonl"
    before = sorted(raw.iterdir()), manifest.read_bytes()
    capsys.readouterr()
    assert main(["featurize", "--manifest", str(manifest), "--out-dir", str(raw)]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest} is the manifest being read; its features manifest would "
        f"replace its records, so write it elsewhere\n")
    assert (sorted(raw.iterdir()), manifest.read_bytes()) == before
    assert not list(raw.glob("*.mel"))


def test_featurize_reruns_over_a_features_manifest_in_its_own_directory(corpus, capsys):
    _, _, feats_manifest = corpus
    before = {p.name: p.read_bytes() for p in feats_manifest.parent.iterdir()}
    capsys.readouterr()
    assert main(["featurize", "--manifest", str(feats_manifest),
                 "--out-dir", str(feats_manifest.parent)]) == 0
    assert "features written: 0, unchanged: 10" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in feats_manifest.parent.iterdir()} == before


@pytest.mark.parametrize("flags, settings, message", [
    (["--freeze-fine"], {"harness": {"freeze_fine": True}},
     "freeze_fine needs granularity multi, got granularity fine"),
    (["--freeze-fine", "--granularity", "multi", "--finetune-word-vectors"],
     {"model": {"finetune_word_vectors": True},
      "harness": {"freeze_fine": True, "granularity": "multi"}},
     "finetune_word_vectors does nothing with freeze_fine, which freezes the word table "
     "with the rest of the encoder"),
], ids=["fine", "multi_finetune"])
def test_flag_pairs_that_do_nothing_are_refused(corpus, tmp_path, capsys, flags, settings,
                                                message):
    _, _, manifest = corpus
    with pytest.raises(ValidationError, match=f"^{message}$"):
        resolve_config(settings)
    for command, extra in (("train", []), ("sweep", ["--grid", "layers_fusion=1,2"])):
        out = tmp_path / command
        rc = main([command, "--manifest", str(manifest), "--out-dir", str(out)] + flags + extra
                  + TINY_MODEL + TINY_RUN)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_sweep_point_with_a_pair_that_does_nothing_stops_the_sweep(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    rc = main(["sweep", "--manifest", str(manifest), "--out-dir", str(out), "--freeze-fine",
               "--grid", "granularity=multi,fine"] + TINY_MODEL + TINY_RUN)
    assert rc == 1
    assert "error: freeze_fine needs granularity multi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_and_predict_parse_the_checkpoint_once(corpus, checkpoints, tmp_path, monkeypatch,
                                                     command):
    import melformer.cli
    import melformer.model
    _, raw, feats = corpus
    ckpt = tmp_path / "fine.ckpt"
    ckpt.write_bytes(checkpoints[0])
    load, calls = melformer.model.load_checkpoint, []

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(melformer.model, "load_checkpoint", counted)
    monkeypatch.setattr(melformer.cli, "load_checkpoint", counted)
    inputs = (["--manifest", str(feats)] if command == "eval" else
              ["--wav", str(raw / "angry-000.wav"), "--transcript", "stop shouting"])
    assert main([command, "--checkpoint", str(ckpt)] + inputs) == 0
    assert calls == [str(ckpt)]


def test_multi_granularity_missing_coverage(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    empty = tmp_path / "empty.txt"
    empty.write_text("UEMB 4\n")
    rc = main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x"),
               "--granularity", "multi", "--utt-embeddings", str(empty)]
              + TINY_MODEL + TINY_RUN)
    assert rc == 1
    assert "no embedding" in capsys.readouterr().err


def test_sweep_rows_keep_grid_order(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    rc = main(["sweep", "--manifest", str(manifest), "--out-dir", str(out),
               "--grid", "layers_text=1", "layers_cross=1", "layers_fusion=1,2"]
              + TINY_MODEL + TINY_RUN)
    assert rc == 0
    table = (out / "table.txt").read_text().splitlines()
    assert "layers_fusion=1" in table[1] and "layers_fusion=2" in table[2]
    doc = json.loads((out / "sweep.json").read_text())
    assert [d["grid"]["layers_fusion"] for d in doc] == [1, 2]
    point = out / "layers_text=1,layers_cross=1,layers_fusion=2"
    assert (point / "results.json").exists()


def test_sweep_point_reproduces_train_with_that_flag(corpus, tmp_path):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", str(manifest), "--out-dir", str(out),
                 "--grid", "layers_fusion=1,2"] + TINY_MODEL + TINY_RUN) == 0
    doc = json.loads((out / "sweep.json").read_text())
    for entry, fusion in zip(doc, ("1", "2")):
        point = out / f"layers_fusion={fusion}"
        swept = json.loads((point / "results.json").read_text())
        assert main(["train", "--manifest", str(manifest), "--out-dir", str(point)]
                    + TINY_MODEL + TINY_RUN + ["--layers-fusion", fusion]) == 0
        trained = json.loads((point / "results.json").read_text())
        assert entry["run_id"] == swept["run_id"] == trained["run_id"]
        assert swept["folds"] == trained["folds"]
        assert entry["summary"] == trained["summary"]


def test_sweep_over_combine_mode_and_granularity_names_both_axes(corpus, tmp_path):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", str(manifest), "--out-dir", str(out),
                 "--grid", "combine_mode=concat,highway", "granularity=fine,multi"]
                + TINY_MODEL + TINY_RUN[:5] + ["1"] + TINY_RUN[6:]) == 0
    rows = (out / "table.txt").read_text().splitlines()[1:]
    points = [(c, g) for c in ("concat", "highway") for g in ("fine", "multi")]
    assert len(rows) == 4
    for row, (c, g) in zip(rows, points):
        assert row.startswith(f"combine_mode={c} granularity={g} ")
    doc = json.loads((out / "sweep.json").read_text())
    assert [d["grid"] for d in doc] == [{"combine_mode": c, "granularity": g} for c, g in points]
    for c, g in points:
        echoed = json.loads((out / f"combine_mode={c},granularity={g}" / "config.json").read_text())
        assert (echoed["model"]["combine_mode"], echoed["harness"]["granularity"]) == (c, g)


def test_sweep_points_name_their_own_table_rows_apart(corpus, tmp_path):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", str(manifest), "--out-dir", str(out),
                 "--grid", "combine_mode=concat,highway"] + TINY_MODEL + TINY_RUN) == 0
    rows = []
    for entry in json.loads((out / "sweep.json").read_text()):
        point = out / f"combine_mode={entry['grid']['combine_mode']}"
        (row,) = (point / "table.txt").read_text().splitlines()[1:]
        assert entry["run_id"] in row
        rows.append(row.split("  ")[0])
    assert rows[0] != rows[1]


def test_invalid_sweep_point_exits_one_before_any_training(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    out = tmp_path / "sweep"
    rc = main(["sweep", "--manifest", str(manifest), "--out-dir", str(out),
               "--grid", "heads=2,3"] + TINY_MODEL + TINY_RUN)
    assert rc == 1
    assert "error: d_model 16 not divisible by 3 heads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--seeds", "zero,one"],
    ["train", "--combine-mode", "bogus"],
    ["train", "--group-mode", "sessions"],
    ["train", "--heads", "two"],
    ["sweep", "--grid", "combine_mode=bogus"],
    ["sweep", "--grid", "heads=2,x"],
    ["sweep", "--grid", "finetune_word_vectors=yes"],
    ["sweep", "--grid", "no_such_field=1,2"],
    ["sweep", "--grid", "seeds=0,1"],
    ["sweep", "--grid", "out_dir=a,b"],
    ["sweep", "--grid", "heads"],
    ["sweep", "--grid", "heads=2,2"],
    ["sweep", "--grid", "dropout=0.5,.5"],
    ["sweep", "--layers", "fusion=1,2"],
    ["sweep"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_or_grid_axis_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_repeated_grid_key_exits_one(capsys):
    assert main(["sweep", "--grid", "heads=1,2", "heads=4"]) == 1
    assert "error: each --grid key may be given once" in capsys.readouterr().err


def test_grid_values_are_read_by_their_fields_flag_parsers():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--grid", "dropout=0,0.5", "finetune_word_vectors=true,false",
                              "granularity=multi", "batch_size=2,3"])
    assert args.grid == [("dropout", (0.0, 0.5)), ("finetune_word_vectors", (True, False)),
                         ("granularity", ("multi",)), ("batch_size", (2, 3))]


def _non_default(key, default):
    """A valid value other than the default, for every model and harness field."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, str):
        return next(c for c in CHOICES[key] if c != default)
    if isinstance(default, tuple):
        return tuple(reversed(default))
    if isinstance(default, float):
        return default / 2
    return 2 * default


def test_every_config_field_has_a_flag_that_round_trips():
    """Each run sets every field but ``held`` (the two may not both be on)
    by its flag to a value other than its default."""
    defaults = RunConfig()
    for held in ("finetune_word_vectors", "freeze_fine"):
        expected, argv = {}, ["train"]
        for section, key, kind in run_keys():
            flag = "--" + key.replace("_", "-")
            if section is None:
                expected[(section, key)] = value = f"{key}.txt"
            else:
                value = getattr(getattr(defaults, section), key)
                if key != held:
                    value = _non_default(key, value)
                expected[(section, key)] = value
            if kind is bool:
                argv.append(flag if value else "--no-" + flag[2:])
            else:
                argv += [flag, ",".join(map(str, value)) if kind is tuple else str(value)]
        fields = [f.name for cls in (ModelConfig, HarnessConfig) for f in dataclasses.fields(cls)]
        assert sorted(k for s, k in expected if s) == sorted(fields)
        cfg = resolve_config(*_config_and_flags(build_parser().parse_args(argv)))
        for (section, key), value in expected.items():
            got = getattr(getattr(cfg, section) if section else cfg, key)
            assert got == value and type(got) is type(value), key


def test_no_flag_turns_a_config_file_boolean_off(tmp_path):
    cfg_file = tmp_path / "on.json"
    cfg_file.write_text(json.dumps({"model": {"finetune_word_vectors": True},
                                    "harness": {"freeze_fine": True, "granularity": "multi"}}))
    args = build_parser().parse_args(["train", "--config", str(cfg_file),
                                      "--no-finetune-word-vectors"])
    cfg = resolve_config(*_config_and_flags(args))
    assert cfg.model.finetune_word_vectors is False and cfg.harness.freeze_fine is True


def test_default_run_id_is_pinned():
    assert RunConfig().run_id() == "e737cb57a111"


@pytest.mark.parametrize("doc, named", [
    ('{"harness": {"lr": NaN}}', "lr"),
    ('{"harness": {"clip_norm": Infinity}}', "clip_norm"),
    ('{"model": {"dropout": -Infinity}}', "dropout"),
    ('{"harness": {"lr": 1%s}}' % ("0" * 400), "lr"),
])
def test_non_finite_config_values_exit_one(tmp_path, capsys, doc, named):
    cfg_file = tmp_path / "nan.json"
    cfg_file.write_text(doc)
    assert main(["train", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file: {named} must be a finite number")


@pytest.mark.parametrize("flag", ["--clip-norm", "--lr", "--dropout"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_values_exit_one(capsys, flag, value):
    assert main(["train", f"{flag}={value}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: flags: {flag[2:].replace('-', '_')} must")


def test_non_finite_checkpoint_header_value_exits_one(corpus, tmp_path, capsys):
    _, _, manifest = corpus
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, nn.Linear(2, 3, np.random.default_rng(0)), ModelConfig())
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    new = raw[8:8 + hlen].replace(b'"dropout": 0.1', b'"dropout": NaN')
    ckpt.write_bytes(raw[:4] + struct.pack("<I", len(new)) + new + raw[8 + hlen:])
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint header: dropout must be a finite number")


# ---------------------------------------------------------------------------
# every malformed input exits 1 with `error:`, never a traceback

def _with_header(raw, section, **changes):
    """Checkpoint bytes ``raw`` with fields of header ``section`` changed."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    header[section].update(changes)
    new = json.dumps(header).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(new)) + new + raw[8 + hlen:]


def _with_extra(raw, **changes):
    """Checkpoint bytes ``raw`` with header extras changed."""
    return _with_header(raw, "extra", **changes)


def _with_first_record_u32(raw, index, value):
    """Checkpoint bytes ``raw`` with the first record's u32 at ``index``
    (0: rank, 1: first dim) set to ``value``."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    at = 8 + hlen + 4  # past the record count
    at += 4 + struct.unpack("<I", raw[at:at + 4])[0] + 4 * index  # past the name
    return raw[:at] + struct.pack("<I", value) + raw[at + 4:]


def _with_head_bias_nan(raw):
    """Checkpoint bytes ``raw`` with the first value of its ``head.bias`` record NaN."""
    at = raw.index(struct.pack("<I", 9) + b"head.bias") + 4 + 9 + 8  # past name, rank, dim
    return raw[:at] + struct.pack("<f", np.nan) + raw[at + 4:]


def _wav_at_rate(rate):
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 2000) + bytes(2000)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _mel1(rows, cols, trailing=b""):
    return b"MEL1" + struct.pack("<II", rows, cols) + bytes(4 * rows * cols) + trailing


@pytest.fixture(scope="module")
def checkpoints(corpus, tmp_path_factory):
    """A fine and a built-in-encoder multi checkpoint of a small 2-class model."""
    from melformer.fusion import MultiGranularityModel
    from melformer.model import MultilevelTransformer
    from melformer.text import hash_word_vectors
    root = tmp_path_factory.mktemp("ckpts")
    cfg = ModelConfig(d_model=16, heads=2, d_ff=32, layers_text=1, layers_cross=1,
                      layers_fusion=1, word_dim=8, phoneme_channels=6, phoneme_dim=4,
                      num_classes=2)
    wv = hash_word_vectors(["stop"], dim=cfg.word_dim)
    fine, multi = root / "fine.ckpt", root / "multi.ckpt"
    save_checkpoint(fine, MultilevelTransformer(cfg, wv), cfg,
                    extra={"seed": 0, "granularity": "fine"})
    model = MultiGranularityModel(cfg, wv)
    save_checkpoint(multi, model, cfg, extra={"seed": 0, **model.checkpoint_extra()})
    return fine.read_bytes(), multi.read_bytes()


_NO_WAV = json.dumps({"id": "angry-000", "transcript": "stop", "label": "angry",
                      "audio_path": "nowhere.wav"}).encode() + b"\n"

# name -> (command, {file: bytes, or a function of the good inputs' bytes}, message);
# each file is written to the test's directory and named in the command as {file}
REPRODUCTIONS = {
    "wav_truncated": ("predict --checkpoint {fine} --wav {bad}",
                      {"bad": lambda b: b.wav[:30]}, "truncated"),
    "wav_10_hz": ("predict --checkpoint {fine} --wav {bad}", {"bad": _wav_at_rate(10)}, "10 Hz"),
    "wav_0_hz": ("predict --checkpoint {fine} --wav {bad}", {"bad": _wav_at_rate(0)}, "0 Hz"),
    "mel1_truncated": ("eval --checkpoint {fine} --manifest {manifest}",
                       {"bad": _mel1(3, 128)[:-10]}, "truncated"),
    "mel1_zero_rows": ("eval --checkpoint {fine} --manifest {manifest}",
                       {"bad": _mel1(0, 128)}, "at least 2 rows"),
    "mel1_127_columns": ("eval --checkpoint {fine} --manifest {manifest}",
                         {"bad": _mel1(3, 127)}, "128 columns"),
    "mel1_trailing_bytes": ("eval --checkpoint {fine} --manifest {manifest}",
                            {"bad": _mel1(3, 128, b"\0")}, "trailing"),
    "mel1_nan_eval": ("eval --checkpoint {fine} --manifest {manifest}",
                      {"bad": _mel1(3, 128)[:-4] + struct.pack("<f", np.nan)},
                      "bad: non-finite feature value"),
    "mel1_inf_train": ("train --manifest {manifest} --out-dir {dir}/run",
                       {"bad": _mel1(3, 128)[:-4] + struct.pack("<f", np.inf)},
                       "bad: non-finite feature value"),
    "mel1_nan_featurize": ("featurize --manifest {manifest} --out-dir {dir}/feats",
                           {"bad": _mel1(3, 128)[:-4] + struct.pack("<f", np.nan)},
                           "bad: non-finite feature value"),
    "ckpt_nan_eval": ("eval --checkpoint {ckpt} --manifest {feats}",
                      {"ckpt": lambda b: _with_head_bias_nan(b.multi)},
                      "ckpt: parameter record 'head.bias' holds a non-finite value"),
    "ckpt_nan_predict": ("predict --checkpoint {ckpt}",
                         {"ckpt": lambda b: _with_head_bias_nan(b.fine)},
                         "ckpt: parameter record 'head.bias' holds a non-finite value"),
    "eval_label_beyond_classes": (
        "eval --checkpoint {fine} --manifest {manifest}",
        {"bad": _mel1(3, 128), "manifest": json.dumps({
            "id": "happy-000", "transcript": "stop", "label": "happy",
            "features_path": "bad"}).encode() + b"\n"},
        "utterance 'happy-000' has label 3, but the model has 2 classes"),
    "ckpt_huge_dims": ("predict --checkpoint {ckpt}",
                       {"ckpt": lambda b: _with_first_record_u32(b.fine, 1, 2**32 - 1)},
                       "truncated"),
    "ckpt_huge_rank": ("predict --checkpoint {ckpt}",
                       {"ckpt": lambda b: _with_first_record_u32(b.fine, 0, 2**32 - 1)},
                       "truncated"),
    # a model too large to allocate is refused before any parameter is built
    "ckpt_huge_d_model": ("predict --checkpoint {ckpt}",
                          {"ckpt": lambda b: _with_header(b.fine, "model", d_model=10**12,
                                                          heads=1)},
                          "error: a parameter of shape ("),
    "train_huge_d_ff": ("train --manifest {feats} --out-dir {dir}/run --d-ff 100000000000000",
                        {}, "error: a parameter of shape ("),
    "train_huge_prenet_width": ("train --manifest {feats} --out-dir {dir}/run "
                                "--prenet-width 99999999999999", {},
                                "error: a parameter of shape ("),
    "seed_negative": ("predict --checkpoint {ckpt}",
                      {"ckpt": lambda b: _with_extra(b.fine, seed=-1)}, "seed"),
    "seed_string": ("predict --checkpoint {ckpt}",
                    {"ckpt": lambda b: _with_extra(b.fine, seed="x")}, "seed"),
    "granularity_bogus": ("predict --checkpoint {ckpt}",
                          {"ckpt": lambda b: _with_extra(b.fine, granularity="bogus")},
                          "granularity"),
    "utt_dim_string": ("predict --checkpoint {ckpt}",
                       {"ckpt": lambda b: _with_extra(b.multi, builtin_encoder=False,
                                                      utt_dim="abc")}, "utt_dim"),
    "utt_dim_zero": ("predict --checkpoint {ckpt}",
                     {"ckpt": lambda b: _with_extra(b.multi, builtin_encoder=False, utt_dim=0)},
                     "utt_dim"),
    "builtin_encoder_string": ("predict --checkpoint {ckpt}",
                               {"ckpt": lambda b: _with_extra(b.multi, builtin_encoder="no")},
                               "builtin_encoder"),
    "utt_embeddings_on_builtin_encoder": (
        "predict --checkpoint {multi} --utt-embeddings {uemb} --utt-id angry-000", {},
        "built-in encoder"),
    "utt_embeddings_on_builtin_encoder_eval": (
        "eval --checkpoint {multi} --manifest {feats} --utt-embeddings {uemb}", {},
        "built-in encoder"),
    "config_not_utf8": ("train --config {cfg}", {"cfg": b'{"lr": "caf\xe9"}'}, "UTF-8"),
    "config_nul_in_out_dir": ("train --config {cfg}", {"cfg": b'{"out_dir": "a\\u0000b"}'},
                              "config file: out_dir holds a NUL character"),
    "seeds_negative_flag": ("train --manifest {feats} --seeds -1", {}, "seeds"),
    "seeds_negative_config": ("train --manifest {feats} --config {cfg}",
                              {"cfg": b'{"harness": {"seeds": [-1]}}'}, "seeds"),
    "gen_synthetic_seed_negative": ("gen-synthetic --out {dir}/g --seed -1", {}, "seed"),
    "gen_synthetic_utt_dim_zero": ("gen-synthetic --out {dir}/g --utt-dim 0", {}, "utt_dim"),
    "manifest_is_a_directory": ("train --manifest {dir}", {}, "Is a directory"),
    "train_missing_wav": ("train --manifest {manifest} --out-dir {dir}/run",
                          {"manifest": _NO_WAV}, "/nowhere.wav"),
    "sweep_missing_wav": ("sweep --manifest {manifest} --out-dir {dir}/run --grid lr=1e-3,2e-3",
                          {"manifest": _NO_WAV}, "/nowhere.wav"),
    "ckpt_mlt1": ("predict --checkpoint {ckpt}", {"ckpt": lambda b: b"MLT1" + b.fine[4:]},
                  "ckpt: an MLT1 checkpoint"),
    "ckpt_mlt1_eval": ("eval --checkpoint {ckpt} --manifest {feats}",
                       {"ckpt": lambda b: b"MLT1" + b.multi[4:]}, "ckpt: an MLT1 checkpoint"),
}


@pytest.mark.parametrize("name", sorted(REPRODUCTIONS))
def test_malformed_input_exits_one_without_traceback(corpus, checkpoints, tmp_path, capsys,
                                                    monkeypatch, name):
    _, raw, feats = corpus
    monkeypatch.chdir(tmp_path)  # where a command without --out-dir writes
    command, files, message = REPRODUCTIONS[name]
    paths = {"fine": tmp_path / "fine.ckpt", "multi": tmp_path / "multi.ckpt",
             "uemb": raw / "uemb.txt", "feats": feats, "dir": tmp_path,
             "manifest": tmp_path / "m.jsonl", "bad": tmp_path / "bad",
             "ckpt": tmp_path / "ckpt", "cfg": tmp_path / "cfg"}
    paths["fine"].write_bytes(checkpoints[0])
    paths["multi"].write_bytes(checkpoints[1])
    paths["manifest"].write_text(json.dumps({"id": "angry-000", "transcript": "stop",
                                             "label": "angry", "features_path": "bad"}) + "\n")
    good = SimpleNamespace(wav=(raw / "angry-000.wav").read_bytes(),
                           fine=checkpoints[0], multi=checkpoints[1])
    for key, content in files.items():
        paths[key].write_bytes(content(good) if callable(content) else content)
    argv = shlex.split(command.format(**paths))
    if argv[0] == "predict":
        argv += [] if "--wav" in argv else ["--wav", str(raw / "angry-000.wav")]
        argv += ["--transcript", "stop shouting right now"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err
    # a refused train or sweep echoes no config, under --out-dir or the default runs/default
    assert not list(tmp_path.rglob("config.json"))


def _readme_commands():
    """Every `melformer ...` command in README.md's code blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("melformer ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {c[0] for c in commands} >= {"gen-synthetic", "featurize", "train", "sweep",
                                        "eval", "predict"}
    for argv in commands:
        build_parser().parse_args(argv)  # a stale flag exits 2 here


def test_readme_quick_start_run_id_is_unchanged():
    train = next(c for c in _readme_commands() if c[0] == "train")
    cfg = resolve_config(*_config_and_flags(build_parser().parse_args(train)))
    assert cfg.run_id() == "7028c092dfa2"


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "transformer end to end" in out
    assert "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "melformer", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "gradcheck" in proc.stdout
