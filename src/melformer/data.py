"""Dataset ingestion and synthetic data generation.

Manifests are JSON-lines: one record per utterance with an id, a transcript,
a label, and exactly one of audio_path (a 16-bit PCM WAV) or features_path
(a cached feature matrix).  Relative paths resolve against the manifest's
directory.  The label alias map folds "excited" into "happy" at ingestion.

The synthetic generator emits a small dataset that is separable in both
modalities (per-class sinusoid frequency, per-class vocabulary) plus word
vectors and utterance embeddings, so the whole pipeline can be exercised
with no external corpora.
"""

import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import featurize_wav, mel_cache_bytes, read_mel_cache
from .config import LABELS, LABEL_ALIASES
from .errors import ValidationError
from .text import Lexicon, WordVectors, tokenize_and_g2p, utf8_lines


@dataclass
class Record:
    id: str
    transcript: str
    label: str
    audio_path: str = None
    features_path: str = None
    session: str = None
    utt_embedding_id: str = None

    @property
    def embedding_key(self):
        """The record's key into an utterance-embedding table."""
        return self.utt_embedding_id or self.id


@dataclass
class Manifest:
    records: list
    path: str = ""

    @property
    def has_sessions(self):
        return all(r.session is not None for r in self.records)

    def resolve(self, rel_path):
        p = Path(rel_path)
        return p if p.is_absolute() else Path(self.path).parent / p


_REQUIRED_FIELDS = ("id", "transcript", "label")
_OPTIONAL_FIELDS = ("audio_path", "features_path", "session", "utt_embedding_id")
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def parse_manifest(path) -> Manifest:
    """Read and validate a JSON-lines manifest; label aliases applied.

    Every line is a JSON object whose required fields are strings; an
    optional field is a string or absent (null counts as absent).  No
    string may hold a NUL character, which no file path can.
    """
    records = []
    seen = set()
    for lineno, line in utf8_lines(path):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, huge ints, deep nesting
            raise ValidationError(f"{where}: bad JSON ({getattr(exc, 'msg', exc)})") from None
        if type(raw) is not dict:
            raise ValidationError(f"{where}: expected a JSON object, got {_JSON_TYPES[type(raw)]}")
        for name in _REQUIRED_FIELDS:
            if name not in raw:
                raise ValidationError(f"{where}: missing field {name!r}")
        for name in _REQUIRED_FIELDS + _OPTIONAL_FIELDS:
            value = raw.get(name)
            if type(value) is not str and not (value is None and name in _OPTIONAL_FIELDS):
                raise ValidationError(
                    f"{where}: field {name!r} must be a string, got {_JSON_TYPES[type(value)]}")
            if value is not None and "\0" in value:
                raise ValidationError(f"{where}: field {name!r} holds a NUL character")
        label = LABEL_ALIASES.get(raw["label"], raw["label"])
        if label not in LABELS:
            raise ValidationError(
                f"{where}: unknown label {raw['label']!r} (expected one of {list(LABELS)})")
        has_audio = bool(raw.get("audio_path"))
        has_feats = bool(raw.get("features_path"))
        if has_audio == has_feats:
            raise ValidationError(f"{where}: exactly one of audio_path/features_path required")
        if raw["id"] in seen:
            raise ValidationError(f"{where}: duplicate id {raw['id']!r}")
        seen.add(raw["id"])
        records.append(Record(
            id=raw["id"], transcript=raw["transcript"], label=label,
            audio_path=raw.get("audio_path"), features_path=raw.get("features_path"),
            session=raw.get("session"), utt_embedding_id=raw.get("utt_embedding_id")))
    if not records:
        raise ValidationError(f"{path}: no records")
    return Manifest(records=records, path=str(path))


# ---------------------------------------------------------------------------
# encoding records for the model

@dataclass
class EncodedUtterance:
    id: str
    word_ids: list
    phonemes: list
    mel: np.ndarray  # [T, 128] float32 features, dummy row first; read-only from a cache
    label: int
    utt_embedding: np.ndarray = None

    @property
    def n_words(self):
        return len(self.word_ids)

    @property
    def n_frames(self):
        return self.mel.shape[0]


def record_mel(record: Record, manifest: Manifest):
    """A record's mel features: its cache file if it names one, else its WAV featurized."""
    if record.features_path:
        return read_mel_cache(manifest.resolve(record.features_path))
    return featurize_wav(manifest.resolve(record.audio_path))


def encode_record(record: Record, manifest: Manifest, lexicon: Lexicon,
                  word_vectors: WordVectors, utt_table=None) -> EncodedUtterance:
    mel = record_mel(record, manifest)
    seq = tokenize_and_g2p(record.transcript, lexicon, word_vectors=word_vectors)
    return EncodedUtterance(
        id=record.id, word_ids=seq.word_ids, phonemes=seq.phonemes,
        mel=mel.frames, label=LABELS.index(record.label),
        utt_embedding=None if utt_table is None else utt_table[record.embedding_key])


def check_coverage(table, required_ids):
    """Every id must resolve; report the complete missing list at once."""
    missing = sorted(set(required_ids) - set(table))
    if missing:
        raise ValidationError(
            f"{len(missing)} utterance ids have no embedding: {missing}")


def encode_manifest(manifest: Manifest, lexicon: Lexicon, word_vectors: WordVectors,
                    utt_table=None) -> list:
    """Every record encoded, each with its embedding when ``utt_table`` is
    given; a table that misses a key fails before any audio is read."""
    if utt_table is not None:
        check_coverage(utt_table, [r.embedding_key for r in manifest.records])
    return [encode_record(r, manifest, lexicon, word_vectors, utt_table)
            for r in manifest.records]


def batches(encs, batch_size, rng=None):
    """Yield minibatches of ``(enc, 0, 0)`` rows, optionally shuffling order each pass.

    A batch runs through the model as one pack with no padding between its
    utterances, so a row carries none; the two zeros are the per-row
    ``pad_words``/``pad_frames`` that ``MultilevelTransformer.forward_batch``
    takes.
    """
    order = np.arange(len(encs))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        yield [(encs[i], 0, 0) for i in order[start:start + batch_size]]


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class SyntheticSpec:
    classes: int = 4
    per_class: int = 8
    sample_rate: int = 16000
    duration_range: tuple = (0.5, 1.0)
    seed: int = 0
    utt_dim: int = 32

    def validate(self):
        if not 2 <= self.classes <= len(LABELS):
            raise ValidationError(
                f"classes must be in [2, {len(LABELS)}] to map onto the label set, "
                f"got {self.classes}")
        if self.per_class < 1:
            raise ValidationError(f"per_class must be >= 1, got {self.per_class}")
        if self.duration_range[0] > self.duration_range[1]:
            raise ValidationError(f"bad duration range {self.duration_range}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.utt_dim < 1:
            raise ValidationError(f"utt_dim must be >= 1, got {self.utt_dim}")
        return self


# Per-class template sentences with disjoint content vocabulary, so the text
# modality separates classes on its own.
TEMPLATES = (
    ("stop shouting right now", "that noise makes me furious", "rage burns very hot"),
    ("tears keep falling slowly", "everything feels heavy today", "sorrow fills each empty room"),
    ("the meeting starts at noon", "please hand over those papers", "water boils at one hundred"),
    ("what a wonderful sunny morning", "we laughed and danced together", "this gift brings pure joy"),
)


def class_frequency(k):
    return 200.0 * (k + 1)


def gen_synthetic(spec: SyntheticSpec, out_dir):
    """Write wav files, manifest.jsonl, wordvecs.txt, and uemb.txt.

    Deterministic: the same spec yields byte-identical files.
    """
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    lines = []
    uemb_lines = [f"UEMB {spec.utt_dim}"]
    base_emb = {k: _class_embedding(k, spec.utt_dim) for k in range(spec.classes)}
    for k in range(spec.classes):
        label = LABELS[k]
        for i in range(spec.per_class):
            utt_id = f"{label}-{i:03d}"
            dur = rng.uniform(*spec.duration_range)
            n = int(dur * spec.sample_rate)
            t = np.arange(n) / spec.sample_rate
            signal = 0.3 * np.sin(2 * np.pi * class_frequency(k) * t)
            signal = signal + 0.01 * rng.standard_normal(n)
            wav_name = f"{utt_id}.wav"
            _write_wav(out / wav_name, signal, spec.sample_rate)

            transcript = TEMPLATES[k][i % len(TEMPLATES[k])]
            lines.append(json.dumps({
                "id": utt_id, "audio_path": wav_name, "transcript": transcript,
                "label": label, "session": f"s{i % 5 + 1}"}, sort_keys=True))

            emb = base_emb[k] + 0.05 * rng.standard_normal(spec.utt_dim)
            uemb_lines.append(utt_id + " " + " ".join(f"{v:.8f}" for v in emb))

    manifest_path = out / "manifest.jsonl"
    manifest_path.write_text("\n".join(lines) + "\n")
    (out / "uemb.txt").write_text("\n".join(uemb_lines) + "\n")
    _write_word_vectors(out / "wordvecs.txt", spec)
    return manifest_path


def _class_embedding(k, dim):
    base = np.zeros(dim)
    width = dim // len(LABELS)
    base[k * width:(k + 1) * width] = 1.0
    return base


def _write_wav(path, signal, sample_rate):
    pcm = np.clip(signal * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(pcm.tobytes())


def _write_word_vectors(path, spec: SyntheticSpec):
    from .text import WORD_DIM
    vocab = sorted({w for sentences in TEMPLATES[:spec.classes]
                    for s in sentences for w in s.split()})
    rng = np.random.default_rng(spec.seed + 1)
    lines = []
    for w in vocab:
        vec = rng.standard_normal(WORD_DIM) * 0.3
        lines.append(w + " " + " ".join(f"{v:.8f}" for v in vec))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# feature cache workflow

def featurize_manifest(manifest: Manifest, out_dir):
    """Cache features for every audio record; skip writes when bytes match.

    Produces <out_dir>/<id>.mel files plus a rewritten manifest pointing at
    them, so every id must be a plain file name.  The rewritten manifest
    depends only on the records, so it is known up front: when it would
    replace the manifest being read with other text, that is refused too.
    Both checks run before anything is written.  Returns
    (new_manifest_path, n_written, n_skipped).
    """
    for r in manifest.records:
        if r.id in ("", ".", "..") or "/" in r.id or "\\" in r.id:
            raise ValidationError(f"id {r.id!r} is not a file name, so it cannot name a "
                                  f"feature cache in {out_dir}")
    new_lines = []
    for r in manifest.records:
        entry = {"id": r.id, "features_path": f"{r.id}.mel",
                 "transcript": r.transcript, "label": r.label}
        if r.session is not None:
            entry["session"] = r.session
        if r.utt_embedding_id is not None:
            entry["utt_embedding_id"] = r.utt_embedding_id
        new_lines.append(json.dumps(entry, sort_keys=True))
    content = "\n".join(new_lines) + "\n"
    out = Path(out_dir)
    new_manifest = out / "manifest.jsonl"
    existing = new_manifest.read_text() if new_manifest.exists() else None
    if existing not in (None, content) and new_manifest.samefile(manifest.path):
        raise ValidationError(f"{new_manifest} is the manifest being read; its features "
                              f"manifest would replace its records, so write it elsewhere")
    out.mkdir(parents=True, exist_ok=True)
    written = skipped = 0
    for r in manifest.records:
        cache_path = out / f"{r.id}.mel"
        payload = mel_cache_bytes(record_mel(r, manifest))
        if cache_path.exists() and cache_path.read_bytes() == payload:
            skipped += 1
        else:
            cache_path.write_bytes(payload)
            written += 1
    if existing != content:
        new_manifest.write_text(content)
    return new_manifest, written, skipped
