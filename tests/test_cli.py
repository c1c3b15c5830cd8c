"""End-to-end command-line behavior: exit codes, file outputs, precedence."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from melformer import nn
from melformer.cli import main
from melformer.config import ModelConfig, resolve_config
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


def test_integer_config_values_are_accepted_for_float_fields():
    cfg = resolve_config({"model": {"dropout": 0}, "harness": {"lr": 1}})
    assert type(cfg.model.dropout) is float and cfg.model.dropout == 0.0
    assert type(cfg.harness.lr) is float and cfg.harness.lr == 1.0


def test_non_integer_worker_cap_exits_one(corpus, tmp_path, capsys, monkeypatch):
    _, _, manifest = corpus
    monkeypatch.setenv("MELFORMER_NUM_WORKERS", "abc")
    rc = main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run")]
              + TINY_MODEL + TINY_RUN[:-1] + ["2"])
    assert rc == 1
    assert "error: MELFORMER_NUM_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    b"5",
    json.dumps({"id": "u0", "transcript": "hi", "label": ["happy"], "audio_path": "u0.wav"}).encode(),
    b'{"id": "caf\xe9", "transcript": "hi", "label": "sad", "audio_path": "u0.wav"}',
], ids=["not_an_object", "list_label", "non_utf8"])
def test_malformed_manifest_record_exits_one(tmp_path, capsys, line):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(line + b"\n")
    assert main(["featurize", "--manifest", str(manifest), "--out-dir", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: ")


@pytest.mark.parametrize("flag, payload, message", [
    ("--lexicon", b"HELLO HH AH0\nCAF\xc9 K AE F\n", "line 2: not UTF-8"),
    ("--word-vectors", b"w\xff " + b" ".join([b"0.5"] * 300) + b"\n", "line 1: not UTF-8"),
    ("--utt-embeddings", b"UEMB 2\nangry-000 1.0 \xe9\n", "line 2: not UTF-8"),
    ("--utt-embeddings", b"UEMB 2\nangry-000 1.0 2.0\nangry-001 1.0 zz\n",
     "line 3: bad value for 'angry-001'"),
], ids=["lexicon_non_utf8", "word_vectors_non_utf8", "uemb_non_utf8", "uemb_non_numeric"])
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
               "--layers", "text=1", "cross=1", "fusion=1,2"]
              + TINY_MODEL + TINY_RUN)
    assert rc == 0
    table = (out / "table.txt").read_text().splitlines()
    assert "fusion=1" in table[1] and "fusion=2" in table[2]
    doc = json.loads((out / "sweep.json").read_text())
    assert [d["layers"]["fusion"] for d in doc] == [1, 2]
    assert (out / "text1-cross1-fusion2" / "results.json").exists()


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
