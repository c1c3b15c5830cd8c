"""Manifest parsing, record encoding, synthetic data, and the feature cache."""

import json
import re

import numpy as np
import pytest

from melformer import data
from melformer.audio import featurize_wav
from melformer.config import LABELS
from melformer.data import (Record, SyntheticSpec, TEMPLATES, batches,
                            class_frequency, encode_manifest,
                            encode_record, featurize_manifest, gen_synthetic,
                            parse_manifest)
from melformer.errors import ValidationError
from melformer.text import Lexicon, PAD_PHONEME, hash_word_vectors


def write_manifest(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def row(i, label="happy", **kw):
    base = {"id": f"u{i}", "transcript": "hello there", "label": label,
            "audio_path": f"u{i}.wav"}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# manifest parsing

def test_parse_minimal_manifest(tmp_path):
    p = write_manifest(tmp_path / "m.jsonl", [row(0, "angry"), row(1, "sad")])
    man = parse_manifest(p)
    assert [r.id for r in man.records] == ["u0", "u1"]
    assert [r.label for r in man.records] == ["angry", "sad"]
    assert not man.has_sessions


def test_excited_folds_into_happy(tmp_path):
    p = write_manifest(tmp_path / "m.jsonl", [row(0, "excited")])
    man = parse_manifest(p)
    assert man.records[0].label == "happy"


def test_empty_manifest_rejected(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text("\n\n")
    with pytest.raises(ValidationError, match="no records"):
        parse_manifest(p)


def test_bad_json_names_line(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text(json.dumps(row(0)) + "\n{oops\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_manifest(p)


def test_missing_field_names_line_and_field(tmp_path):
    bad = {"id": "u1", "transcript": "hi"}
    p = write_manifest(tmp_path / "m.jsonl", [row(0), bad])
    with pytest.raises(ValidationError, match="line 2.*label"):
        parse_manifest(p)


def test_unknown_label_names_line(tmp_path):
    p = write_manifest(tmp_path / "m.jsonl", [row(0, "bored")])
    with pytest.raises(ValidationError, match="line 1.*bored"):
        parse_manifest(p)


def test_exactly_one_path_required(tmp_path):
    both = row(0, features_path="u0.mel")
    p = write_manifest(tmp_path / "m.jsonl", [both])
    with pytest.raises(ValidationError, match="exactly one"):
        parse_manifest(p)
    neither = {"id": "u0", "transcript": "hi", "label": "sad"}
    p2 = write_manifest(tmp_path / "m2.jsonl", [neither])
    with pytest.raises(ValidationError, match="exactly one"):
        parse_manifest(p2)


def test_duplicate_id_names_line(tmp_path):
    p = write_manifest(tmp_path / "m.jsonl", [row(0), row(0)])
    with pytest.raises(ValidationError, match="line 2.*duplicate"):
        parse_manifest(p)


def test_sessions_flag_requires_every_record(tmp_path):
    p = write_manifest(tmp_path / "m.jsonl",
                       [row(0, session="s1"), row(1, session="s2")])
    assert parse_manifest(p).has_sessions
    p2 = write_manifest(tmp_path / "m2.jsonl", [row(0, session="s1"), row(1)])
    assert not parse_manifest(p2).has_sessions


def test_resolve_relative_to_manifest_dir(tmp_path):
    sub = tmp_path / "corpus"
    sub.mkdir()
    p = write_manifest(sub / "m.jsonl", [row(0)])
    man = parse_manifest(p)
    assert man.resolve("u0.wav") == sub / "u0.wav"
    assert man.resolve("/abs/u0.wav") == __import__("pathlib").Path("/abs/u0.wav")


# ---------------------------------------------------------------------------
# synthetic generation

def synth(tmp_path, **kw):
    spec = SyntheticSpec(**kw)
    return spec, gen_synthetic(spec, tmp_path)


def test_gen_synthetic_counts(tmp_path):
    _, man_path = synth(tmp_path, classes=4, per_class=8, seed=0)
    assert len(list(tmp_path.glob("*.wav"))) == 32
    man = parse_manifest(man_path)
    assert len(man.records) == 32
    assert sorted(r.label for r in man.records) == sorted(LABELS * 8)
    assert man.has_sessions
    assert (tmp_path / "uemb.txt").read_text().count("\n") == 33
    assert (tmp_path / "wordvecs.txt").exists()


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    synth(a, classes=3, per_class=2, seed=7)
    synth(b, classes=3, per_class=2, seed=7)
    for name in ["manifest.jsonl", "uemb.txt", "wordvecs.txt", "angry-000.wav"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    c = tmp_path / "c"
    synth(c, classes=3, per_class=2, seed=8)
    assert (a / "angry-000.wav").read_bytes() != (c / "angry-000.wav").read_bytes()


def test_synthetic_audio_separable_by_spectral_peak(tmp_path):
    # The dominant rfft frequency of each clip must pick out its class.
    from melformer.audio import load_wav
    _, man_path = synth(tmp_path, classes=4, per_class=8, seed=0)
    man = parse_manifest(man_path)
    freqs = np.asarray([class_frequency(k) for k in range(4)])
    correct = 0
    for r in man.records:
        signal, sr = load_wav(man.resolve(r.audio_path))
        spectrum = np.abs(np.fft.rfft(signal))
        peak_hz = np.argmax(spectrum) * sr / len(signal)
        guess = int(np.argmin(np.abs(freqs - peak_hz)))
        correct += LABELS[guess] == r.label
    assert correct == 32


def test_synthetic_text_vocabulary_disjoint():
    vocabs = [set(w for s in sentences for w in s.split()) for sentences in TEMPLATES]
    for i in range(len(vocabs)):
        for j in range(i + 1, len(vocabs)):
            assert not (vocabs[i] & vocabs[j]), (i, j)


def test_synthetic_embeddings_separable(tmp_path):
    from melformer.fusion import load_utterance_embeddings
    spec, man_path = synth(tmp_path, classes=4, per_class=4, seed=1)
    man = parse_manifest(man_path)
    dim, table = load_utterance_embeddings(tmp_path / "uemb.txt")
    assert dim == spec.utt_dim
    width = spec.utt_dim // len(LABELS)
    for r in man.records:
        vec = table[r.id]
        blocks = vec.reshape(len(LABELS), width).sum(axis=1)
        assert LABELS[int(np.argmax(blocks))] == r.label


def test_synthetic_class_bounds(tmp_path):
    with pytest.raises(ValidationError, match="classes"):
        gen_synthetic(SyntheticSpec(classes=1), tmp_path)
    with pytest.raises(ValidationError, match="classes"):
        gen_synthetic(SyntheticSpec(classes=5), tmp_path)


# ---------------------------------------------------------------------------
# encoding and batching

@pytest.fixture
def small_corpus(tmp_path):
    _, man_path = synth(tmp_path, classes=2, per_class=2, seed=3)
    man = parse_manifest(man_path)
    words = sorted({w for r in man.records for w in r.transcript.split()})
    wv = hash_word_vectors(words, dim=16)
    return man, Lexicon({}), wv


def test_encode_record_shapes(small_corpus):
    man, lex, wv = small_corpus
    enc = encode_record(man.records[0], man, lex, wv)
    assert enc.mel.shape[1] == 128
    assert np.all(enc.mel[0] == 0.0)  # dummy row present
    assert enc.n_words == len(man.records[0].transcript.split())
    assert len(enc.phonemes) == enc.n_words
    assert enc.label == LABELS.index(man.records[0].label)


def test_encode_manifest_attaches_embeddings(small_corpus):
    man, lex, wv = small_corpus
    table = {r.id: np.arange(4.0) for r in man.records}
    encs = encode_manifest(man, lex, wv, utt_table=table)
    assert all(e.utt_embedding is not None for e in encs)
    no_table = encode_manifest(man, lex, wv)
    assert all(e.utt_embedding is None for e in no_table)


def test_encode_manifest_refuses_a_table_missing_keys_before_reading_audio(small_corpus,
                                                                          monkeypatch):
    man, lex, wv = small_corpus
    man.records[0].utt_embedding_id = "shared"
    table = {r.id: np.arange(4.0) for r in man.records[2:]}
    read = []
    monkeypatch.setattr(data, "record_mel", lambda record, manifest: read.append(record))
    expected = sorted(["shared", man.records[1].id])
    with pytest.raises(ValidationError, match=re.escape(f"2 utterance ids have no embedding: "
                                                        f"{expected}")):
        encode_manifest(man, lex, wv, utt_table=table)
    assert read == []


def test_batch_rows_carry_no_padding(small_corpus):
    man, lex, wv = small_corpus
    encs = encode_manifest(man, lex, wv)
    assert len({e.n_frames for e in encs}) > 1  # padding would have had work to do
    rows = [row for b in batches(encs, 3, rng=np.random.default_rng(1)) for row in b]
    assert len(rows) == len(encs)
    assert all(pad_w == 0 and pad_f == 0 for _, pad_w, pad_f in rows)


def test_batches_cover_all_and_shuffle_deterministically(small_corpus):
    man, lex, wv = small_corpus
    encs = encode_manifest(man, lex, wv)
    flat = [e.id for b in batches(encs, 3) for e, _, _ in b]
    assert flat == [e.id for e in encs]  # no rng keeps manifest order
    ids_a = [e.id for b in batches(encs, 2, rng=np.random.default_rng(5)) for e, _, _ in b]
    ids_b = [e.id for b in batches(encs, 2, rng=np.random.default_rng(5)) for e, _, _ in b]
    assert ids_a == ids_b
    assert sorted(ids_a) == sorted(e.id for e in encs)


# ---------------------------------------------------------------------------
# feature cache workflow

def test_featurize_manifest_roundtrip_and_idempotence(tmp_path):
    _, man_path = synth(tmp_path / "raw", classes=2, per_class=2, seed=4)
    man = parse_manifest(man_path)
    out = tmp_path / "feats"

    new_path, written, skipped = featurize_manifest(man, out)
    assert (written, skipped) == (4, 0)
    cached = parse_manifest(new_path)
    assert all(r.features_path and not r.audio_path for r in cached.records)

    again_path, written2, skipped2 = featurize_manifest(man, out)
    assert (written2, skipped2) == (0, 4)
    assert again_path == new_path

    # cached features match direct extraction at f32 resolution
    r = man.records[0]
    direct = featurize_wav(man.resolve(r.audio_path)).frames
    lex, wv = Lexicon({}), hash_word_vectors(["a"], dim=8)
    enc = encode_record(cached.records[0], cached, lex, wv)
    assert enc.mel.shape == direct.shape
    np.testing.assert_allclose(enc.mel, direct, atol=1e-6)


def test_encode_all_trailing_pads_are_pad_phoneme(small_corpus):
    # phoneme lists inside a word are never padded at encode time; padding
    # happens in the model, so encoded ids must all be real symbols
    man, lex, wv = small_corpus
    encs = encode_manifest(man, lex, wv)
    for enc in encs:
        for ph in enc.phonemes:
            assert PAD_PHONEME not in ph


def test_both_mel_readers_resolve_through_the_data_module(tmp_path, monkeypatch):
    # the benchmark's tracer wraps data.featurize_wav and data.read_mel_cache;
    # encoding and caching must both look them up there at call time
    from melformer import data
    _, man_path = synth(tmp_path / "raw", classes=2, per_class=1, seed=4)
    man = parse_manifest(man_path)
    calls = []
    for name in ("featurize_wav", "read_mel_cache"):
        fn = getattr(data, name)
        monkeypatch.setattr(data, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    new_path, _, _ = featurize_manifest(man, tmp_path / "feats")
    cached = parse_manifest(new_path)
    lex, wv = Lexicon({}), hash_word_vectors(["a"], dim=8)
    encode_record(man.records[0], man, lex, wv)
    encode_record(cached.records[0], cached, lex, wv)
    assert calls == ["featurize_wav"] * 2 + ["featurize_wav", "read_mel_cache"]
