"""Text frontend: transcript -> per-word phoneme+word embeddings -> prenet.

A transcript is lowercased, stripped of punctuation, and mapped to phonemes
through a CMU-style lexicon with a total letter-spelling fallback, so G2P
never fails.  Each word then gets a fixed-size vector from a small CNN over
its phoneme embeddings, concatenated with a 300-dim word vector, optionally
passed through a two-layer highway network, and finally run through a
convolutional prenet that projects to the model dimension.  Every stage
after the phoneme CNN works on one row per word.  The phoneme CNN works on
one row per phoneme, in one packed stream with one segment per word, and
pools each segment to its word's row.  The CNN's windows stay inside each
word and the prenet's inside each utterance, so a whole batch runs through
the frontend once, with no padding.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autograd as ag
from . import nn
from .autograd import Tensor
from .errors import FormatError, ShapeError, ValidationError

WORD_DIM = 300

# ARPAbet phoneme inventory with stress digits stripped, plus pad/unknown ids.
ARPABET = (
    "AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M N NG "
    "OW OY P R S SH T TH UH UW V W Y Z ZH"
).split()
PHONEMES = ("<pad>", "<unk>") + tuple(ARPABET)
PAD_PHONEME = 0
UNK_PHONEME = 1
PHONEME_TO_ID = {p: i for i, p in enumerate(PHONEMES)}

# Fallback spelling table for out-of-lexicon words: one phoneme per letter.
# Deliberately crude; it only has to be total and deterministic.
LETTER_FALLBACK = {
    "a": "AH", "b": "B", "c": "K", "d": "D", "e": "EH", "f": "F",
    "g": "G", "h": "HH", "i": "IH", "j": "JH", "k": "K", "l": "L",
    "m": "M", "n": "N", "o": "OW", "p": "P", "q": "K", "r": "R",
    "s": "S", "t": "T", "u": "AH", "v": "V", "w": "W", "x": "S",
    "y": "Y", "z": "Z",
}

_TOKEN_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789'")


def utf8_lines(path):
    """Yield ``(lineno, line)`` for each line of a UTF-8 text file, from 1.

    A line that is not valid UTF-8 raises FormatError naming the path and
    the line, not UnicodeDecodeError.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason} "
                                  f"at byte {exc.start})") from None


def table_rows(path, what, fold_case=False, lines=None):
    """Yield ``(lineno, key, fields)`` per ``key field ...`` line of a text table.

    Blank lines and ``;;;`` comments are skipped; ``fold_case`` lower-cases
    keys.  A key (a ``what``) with no field, or seen before, raises an error
    that starts ``<path>: line N:``.  ``lines`` resumes ``utf8_lines(path)``
    after a header the caller has read.
    """
    seen = {}
    for lineno, line in utf8_lines(path) if lines is None else lines:
        parts = line.split()
        if not parts or parts[0].startswith(";;;"):
            continue
        if len(parts) < 2:
            raise FormatError(f"{path}: line {lineno}: {what} {parts[0]!r} has no fields")
        key = parts[0].lower() if fold_case else parts[0]
        if key in seen:
            raise ValidationError(f"{path}: line {lineno}: duplicate {what} {parts[0]!r} "
                                  f"(line {seen[key]} has {key!r} already)")
        seen[key] = lineno
        yield lineno, key, parts[1:]


def float_row(path, lineno, key, fields, width):
    """``fields`` as ``width`` finite float64 values, or an error that starts
    ``<path>: line N:``."""
    where = f"{path}: line {lineno}"
    if len(fields) != width:
        raise FormatError(f"{where}: expected {width} values for {key!r}, got {len(fields)}")
    try:
        vec = np.array([float(v) for v in fields])
    except ValueError as exc:
        raise FormatError(f"{where}: bad value for {key!r} ({exc})") from None
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{where}: non-finite value for {key!r}")
    return vec


@dataclass
class Lexicon:
    entries: dict = field(default_factory=dict)  # word -> tuple of phoneme ids

    @classmethod
    def load(cls, path):
        """Read `WORD  PH1 PH2 ...` lines; stress digits are stripped."""
        entries = {}
        for lineno, word, symbols in table_rows(path, "word", fold_case=True):
            syms = [sym.rstrip("0123456789").upper() for sym in symbols]
            for sym in syms:
                if sym not in PHONEME_TO_ID:
                    raise FormatError(f"{path}: line {lineno}: unknown phoneme {sym!r}")
            entries[word] = tuple(PHONEME_TO_ID[sym] for sym in syms)
        return cls(entries=entries)

    def get(self, word):
        return self.entries.get(word)


@dataclass
class TokenSeq:
    words: list
    phonemes: list   # one list of phoneme ids per word
    word_ids: list


@dataclass
class WordVectors:
    """Word embedding matrix with reserved pad (zero) and unk (mean) rows."""
    vocab: dict          # word -> row index
    matrix: np.ndarray   # [2 + V, dim]
    pad_id: int = 0
    unk_id: int = 1

    @property
    def dim(self):
        return self.matrix.shape[1]

    def lookup(self, word):
        return self.vocab.get(word, self.unk_id)


def _normalize_token(token: str) -> str:
    cleaned = "".join(c for c in token.lower() if c in _TOKEN_CHARS)
    return cleaned.strip("'")


def spell_out(word: str):
    """Letter-to-phoneme fallback; returns at least one phoneme id."""
    ids = [PHONEME_TO_ID[LETTER_FALLBACK[c]] for c in word if c in LETTER_FALLBACK]
    return ids or [UNK_PHONEME]


def tokenize_and_g2p(transcript: str, lexicon: Lexicon,
                     word_vectors: Optional[WordVectors] = None) -> TokenSeq:
    """Whitespace-tokenize, lowercase, strip punctuation, map to phonemes.

    Words missing from the lexicon are spelled out letter by letter via
    LETTER_FALLBACK, so the phoneme list is never empty.  word_ids come from
    `word_vectors` when given, otherwise every word maps to the unk id.
    """
    words = [t for t in (_normalize_token(tok) for tok in transcript.split()) if t]
    if not words:
        raise ValidationError(f"transcript {transcript!r} has no words after normalization")
    phonemes = [list(lexicon.get(w) or spell_out(w)) for w in words]
    if word_vectors is not None:
        word_ids = [word_vectors.lookup(w) for w in words]
    else:
        word_ids = [1] * len(words)
    return TokenSeq(words=words, phonemes=phonemes, word_ids=word_ids)


def _word_table(words, rows, dim) -> WordVectors:
    """[zero pad row; unk row; one row per word], word i at row i + 2.

    The unk row is the columnwise mean of ``rows``, or zeros when there are
    none."""
    loaded = np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
    unk = loaded.mean(axis=0, keepdims=True) if len(rows) else np.zeros((1, dim))
    return WordVectors(vocab={w: i + 2 for i, w in enumerate(words)},
                       matrix=np.vstack([np.zeros((1, dim)), unk, loaded]))


def load_word_vectors(path) -> WordVectors:
    """Parse `word v1 ... vD` lines into a WordVectors table.

    The first line sets the width D; every other line must match it, and
    every value must be finite.  Words are lower-cased, and a word may
    appear once.  Row 0 is a zero pad row and row 1 the unknown-word row
    (columnwise mean of all loaded vectors).
    """
    words, rows = [], []
    for lineno, word, fields in table_rows(path, "word", fold_case=True):
        rows.append(float_row(path, lineno, word, fields, len(rows[0]) if rows else len(fields)))
        words.append(word)
    if not rows:
        raise FormatError(f"{path}: no word vectors found")
    return _word_table(words, rows, len(rows[0]))


def hash_word_vectors(words, dim=WORD_DIM, scale=0.1) -> WordVectors:
    """Deterministic stand-in vectors for runs without a pretrained file.

    Each word's vector is drawn from an rng seeded by a stable digest of the
    word, so the table is identical across processes and runs.
    """
    uniq = sorted(set(words))
    rows = []
    for w in uniq:
        seed = int.from_bytes(hashlib.sha1(w.encode("utf-8")).digest()[:8], "little")
        rows.append(np.random.default_rng(seed).standard_normal(dim) * scale)
    return _word_table(uniq, rows, dim)


class PhonemeCNN(nn.Module):
    """Fixed-size word vector from a CNN over the word's phoneme embeddings.

    Phonemes are embedded (pad ids read as zero), run through bias-free
    same-padding convolutions of several widths, ReLU'd, and max-pooled over
    each word's phonemes; the per-width pools are concatenated.  The words'
    phonemes run as one packed stream with one segment per word, so each
    conv window and each pool stays inside its word, and a word embeds
    exactly as it would alone.  A pad word (``[PAD_PHONEME]``) embeds to an
    exact zero vector.
    """

    def __init__(self, rng, d_p=64, widths=(2, 3, 4), channels_per_width=50):
        super().__init__()
        self.widths = tuple(widths)
        self.out_dim = channels_per_width * len(widths)
        self.embedding = nn.Embedding(len(PHONEMES), d_p, rng, pad_id=PAD_PHONEME)
        self.convs = nn.ModuleList(
            [nn.Conv1d(w, d_p, channels_per_width, rng, bias=False) for w in widths])

    def embed_word(self, phonemes) -> Tensor:
        """One phoneme id list per word -> [n_words, out_dim], one row per word."""
        ids = [np.asarray(word, dtype=np.int64) for word in phonemes]
        if any(word.ndim != 1 for word in ids):
            raise ShapeError("phoneme ids need one list of ids per word")
        segs = ag.Segments([len(word) for word in ids])
        x = self.embedding(np.concatenate(ids))
        pools = [ag.max_pool_time(ag.relu(conv(x, segs)), segs) for conv in self.convs]
        return ag.concat(pools, axis=-1)


class HighwayLayer(nn.Module):
    """One highway layer: ReLU transform gated against the identity path,
    ``h * t + u * (1 - t)`` with ``h = relu(W_h u + b_h)`` and
    ``t = sigmoid(W_g u + b_g)``; the gating is one ``autograd.highway`` node.

    Works row-wise on a [T, dim] matrix.  The gate bias starts at -1 so a
    fresh layer mostly copies its input.
    """

    def __init__(self, dim, rng):
        super().__init__()
        self.transform = nn.Linear(dim, dim, rng)
        self.gate = nn.Linear(dim, dim, rng)
        self.gate.bias.data[:] = -1.0

    def __call__(self, u: Tensor) -> Tensor:
        return ag.highway(ag.relu(self.transform(u)), self.gate(u), u)


class WordCombiner(nn.Module):
    """Concatenate word and phoneme vectors; optionally mix with two highways.

    Takes T words row-wise ([T, word_dim] and [T, phon_dim]) and returns
    [T, word_dim + phon_dim].
    """

    def __init__(self, mode, rng, word_dim=WORD_DIM, phon_dim=150):
        super().__init__()
        if mode not in ("concat", "highway"):
            raise ValidationError(f"combine mode must be concat or highway, got {mode!r}")
        self.mode = mode
        self.out_dim = word_dim + phon_dim
        if mode == "highway":
            self.layers = nn.ModuleList([HighwayLayer(self.out_dim, rng) for _ in range(2)])

    def __call__(self, word_vec: Tensor, phon_vec: Tensor) -> Tensor:
        u = ag.concat([word_vec, phon_vec], axis=-1)
        if self.mode == "highway":
            for layer in self.layers:
                u = layer(u)
        return u


class EncoderPrenet(nn.Module):
    """Three same-padding conv layers (ReLU + layer norm) and a projection.

    ``segs`` (``autograd.Segments``) lays out the utterances of a packed
    [T, d_in] input: each conv window stays inside its utterance, and each
    utterance's padding rows are zeroed before every convolution so pad
    values never bleed into real rows through the conv windows.
    """

    def __init__(self, rng, d_in=450, d_model=128, width=5):
        super().__init__()
        convs, norms = [], []
        for i in range(3):
            convs.append(nn.Conv1d(width, d_in if i == 0 else d_model, d_model, rng))
            norms.append(nn.LayerNorm(d_model))
        self.convs = nn.ModuleList(convs)
        self.norms = nn.ModuleList(norms)
        self.proj = nn.Linear(d_model, d_model, rng)

    def __call__(self, x: Tensor, segs) -> Tensor:
        for conv, norm in zip(self.convs, self.norms):
            x = norm(ag.relu(conv(ag.zero_rows(x, segs), segs)))
        return self.proj(x)
