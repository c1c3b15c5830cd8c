"""The input parsers fail closed: the four text formats (manifest, lexicon,
word vectors, utterance embeddings) and the three binary ones (WAV, MEL1
feature caches, checkpoints).

Malformed records and undecodable bytes name the file and the line; the
fuzz tests feed each parser arbitrary bytes and bytes built from its own
syntax (or, for a binary format, a valid file cut short and overwritten in
places), and demand that it either parses or raises a MelformerError.
"""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from melformer import nn
from melformer.audio import featurize_wav, read_mel_cache
from melformer.config import ModelConfig
from melformer.data import parse_manifest
from melformer.errors import FormatError, MelformerError, ValidationError
from melformer.fusion import load_utterance_embeddings
from melformer.model import load_checkpoint, save_checkpoint
from melformer.text import Lexicon, WORD_DIM, load_word_vectors

GOOD = {"id": "u0", "transcript": "hello there", "label": "happy", "audio_path": "u0.wav"}


def write_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


# ---------------------------------------------------------------------------
# manifest records

@pytest.mark.parametrize("line, kind", [
    ("5", "a number"), ('"u0"', "a string"), ("[1, 2]", "an array"), ("null", "null")])
def test_manifest_line_must_be_an_object(tmp_path, line, kind):
    p = write_lines(tmp_path / "m.jsonl", [json.dumps(GOOD).encode(), line.encode()])
    with pytest.raises(ValidationError, match=f"m.jsonl: line 2: expected a JSON object, got {kind}"):
        parse_manifest(p)


@pytest.mark.parametrize("field, value, kind", [
    ("label", ["happy"], "an array"), ("id", 7, "a number"), ("transcript", None, "null"),
    ("audio_path", {"p": 1}, "an object"), ("features_path", 1.5, "a number"),
    ("session", True, "a boolean"), ("utt_embedding_id", 3, "a number")])
def test_manifest_fields_must_be_strings(tmp_path, field, value, kind):
    rec = dict(GOOD, **{field: value})
    p = write_lines(tmp_path / "m.jsonl", [json.dumps(rec).encode()])
    with pytest.raises(ValidationError, match=f"line 1: field '{field}' must be a string, got {kind}"):
        parse_manifest(p)


def test_null_optional_fields_count_as_absent(tmp_path):
    rec = dict(GOOD, features_path=None, session=None, utt_embedding_id=None)
    man = parse_manifest(write_lines(tmp_path / "m.jsonl", [json.dumps(rec).encode()]))
    assert man.records[0].session is None and man.records[0].audio_path == "u0.wav"


def test_manifest_deep_nesting_and_huge_numbers_are_bad_json(tmp_path):
    for line in (b"[" * 100000, b"1" * 5000):
        p = write_lines(tmp_path / "m.jsonl", [line])
        with pytest.raises(ValidationError, match="line 1: bad JSON"):
            parse_manifest(p)


# ---------------------------------------------------------------------------
# undecodable bytes and non-numeric values

def _word_vector_line(word):
    return word + b" " + b" ".join(b"0.5" for _ in range(WORD_DIM))


@pytest.mark.parametrize("load, good_line", [
    (parse_manifest, json.dumps(GOOD).encode()),
    (Lexicon.load, b"HELLO  HH AH0 L OW1"),
    (load_word_vectors, _word_vector_line(b"hello")),
], ids=["manifest", "lexicon", "word_vectors"])
def test_non_utf8_bytes_name_the_line(tmp_path, load, good_line):
    p = write_lines(tmp_path / "f.txt", [good_line, b"caf\xe9 \xff"])
    with pytest.raises(FormatError, match="f.txt: line 2: not UTF-8"):
        load(p)


def test_non_utf8_utterance_embedding_names_the_line(tmp_path):
    p = write_lines(tmp_path / "e.uemb", [b"UEMB 2", b"a 1.0 2.0", b"b\xc3 1.0 2.0"])
    with pytest.raises(FormatError, match="e.uemb: line 3: not UTF-8"):
        load_utterance_embeddings(p)


def test_non_numeric_utterance_embedding_value_names_the_line(tmp_path):
    p = write_lines(tmp_path / "e.uemb", [b"UEMB 2", b"a 1.0 2.0", b"b 1.0 zz"])
    with pytest.raises(FormatError, match="e.uemb: line 3: bad value for 'b'"):
        load_utterance_embeddings(p)


def test_crlf_files_still_parse(tmp_path):
    p = tmp_path / "e.uemb"
    p.write_bytes(b"UEMB 2\r\na 1.0 2.0\r\n")
    dim, table = load_utterance_embeddings(p)
    assert dim == 2 and table["a"].tolist() == [1.0, 2.0]
    p = tmp_path / "m.jsonl"
    p.write_bytes(json.dumps(GOOD).encode() + b"\r\n")
    assert parse_manifest(p).records[0].id == "u0"


# ---------------------------------------------------------------------------
# the three `key field ...` tables share one reader and one set of rules

# name -> (loader, header lines, a good row's fields, the keys a loaded table holds)
TABLES = {
    "lexicon": (Lexicon.load, [], b"HH AH0", lambda lex: set(lex.entries)),
    "word_vectors": (load_word_vectors, [], b"0.5 1.5", lambda wv: set(wv.vocab)),
    "utt_embeddings": (load_utterance_embeddings, [b"UEMB 2"], b"0.5 1.5",
                       lambda loaded: set(loaded[1])),
}
VECTOR_TABLES = ("word_vectors", "utt_embeddings")
# (case, tables, body lines with {f} for a good row's fields, outcome): the
# outcome is the keys loaded, or (error, body line number, message), with
# {first} in the message for the file line of the first body line
TABLE_CASES = [
    ("comments", TABLES, [b"", b";;; a comment", b"  ;;;x 1", b"a {f}", b"\t", b"b {f}"],
     {"a", "b"}),
    ("repeat", TABLES, [b"a {f}", b"b {f}", b"a {f}"],
     (ValidationError, 3, r"duplicate [a-z ]+ 'a' \(line {first} has 'a' already\)")),
    ("repeat_in_other_case", ("lexicon", "word_vectors"), [b"cat {f}", b"Cat {f}"],
     (ValidationError, 2, r"duplicate word 'Cat' \(line {first} has 'cat' already\)")),
    ("other_case_is_another_id", ("utt_embeddings",), [b"cat {f}", b"Cat {f}"], {"cat", "Cat"}),
    ("no_field", TABLES, [b"a {f}", b"b  "], (FormatError, 2, "[a-z ]+ 'b' has no fields")),
    ("not_utf8", TABLES, [b"a {f}", b"caf\xe9 {f}"], (FormatError, 2, "not UTF-8")),
    ("wrong_width", VECTOR_TABLES, [b"a {f}", b"b 0.5"],
     (FormatError, 2, "expected 2 values for 'b', got 1")),
    ("bad_float", VECTOR_TABLES, [b"a {f}", b"b 0.5 zz"], (FormatError, 2, "bad value for 'b'")),
    ("non_finite", VECTOR_TABLES, [b"a {f}", b"b 0.5 -inf"],
     (ValidationError, 2, "non-finite value for 'b'")),
]


@pytest.mark.parametrize("table, body, outcome", [
    pytest.param(table, body, outcome, id=f"{table}-{case}")
    for case, tables, body, outcome in TABLE_CASES for table in tables])
def test_text_tables_share_one_set_of_rules(tmp_path, table, body, outcome):
    load, header, fields, keys = TABLES[table]
    path = write_lines(tmp_path / "table.txt",
                       header + [line.replace(b"{f}", fields) for line in body])
    if isinstance(outcome, set):
        assert keys(load(path)) == outcome
        return
    error, lineno, message = outcome
    with pytest.raises(error) as caught:
        load(path)
    expected = f"{re.escape(str(path))}: line {len(header) + lineno}: {message}"
    assert re.match(expected.format(first=len(header) + 1), str(caught.value)), caught.value


# ---------------------------------------------------------------------------
# fuzzing: any byte string parses or raises a MelformerError

def _syntax(tokens):
    """Byte strings assembled from a parser's own tokens, mixed with raw bytes."""
    piece = st.one_of(st.sampled_from(tokens), st.binary(max_size=3))
    built = st.lists(piece, max_size=40).map(b"".join)
    return st.one_of(st.binary(max_size=200), built)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)
FIELDS = ["id", "transcript", "label", "audio_path", "features_path", "session",
          "utt_embedding_id"]
RECORDS = st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3),
                          st.one_of(st.sampled_from(["happy", "excited", "u0", "a.wav"]),
                                    JSON_VALUES),
                          max_size=6)
MANIFEST_BYTES = st.one_of(
    _syntax([b"{", b"}", b"[", b"]", b":", b",", b"\n", b" ", b'"id"', b'"label"',
             b'"transcript"', b'"audio_path"', b'"happy"', b'"x"', b"5", b"null", b"1e999",
             b"\xff", b"\xc3"]),
    st.lists(RECORDS, max_size=4).map(
        lambda recs: b"".join(json.dumps(r).encode() + b"\n" for r in recs)))
LEXICON_BYTES = _syntax([b"HELLO", b"hh", b"AH0", b"L", b"OW1", b"XX", b";;;", b" ", b"\t",
                         b"\n", b"\r\n", b"\xe9", b"\xf0\x9f"])
WORD_VECTOR_BYTES = st.one_of(
    _syntax([b"word", b" ", b"\n", b"0.5", b"nan", b"-1e3", b"x", b"\xff"]),
    st.lists(st.sampled_from([b"0.5", b"1", b"zz", b"\xff"]), min_size=WORD_DIM - 1,
             max_size=WORD_DIM + 1).map(lambda vals: b"w " + b" ".join(vals) + b"\n"))
UEMB_BYTES = _syntax([b"UEMB", b" ", b"2", b"0", b"-1", b"x", b"\n", b"a", b"b", b"1.0",
                      b"nan", b"zz", b"\xff", b"\xc3\xa9"])

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _parses_or_fails_closed(load, path, payload):
    path.write_bytes(payload)
    try:
        load(path)
    except MelformerError:
        pass


@FUZZ
@given(payload=MANIFEST_BYTES)
def test_fuzz_manifest(tmp_path, payload):
    _parses_or_fails_closed(parse_manifest, tmp_path / "m.jsonl", payload)


@FUZZ
@given(payload=LEXICON_BYTES)
def test_fuzz_lexicon(tmp_path, payload):
    _parses_or_fails_closed(Lexicon.load, tmp_path / "lex.txt", payload)


@FUZZ
@given(payload=WORD_VECTOR_BYTES)
def test_fuzz_word_vectors(tmp_path, payload):
    _parses_or_fails_closed(load_word_vectors, tmp_path / "wv.txt", payload)


@FUZZ
@given(payload=UEMB_BYTES)
def test_fuzz_utterance_embeddings(tmp_path, payload):
    _parses_or_fails_closed(load_utterance_embeddings, tmp_path / "e.uemb", payload)


# ---------------------------------------------------------------------------
# binary formats: a valid file, cut anywhere, with bytes and u32 fields overwritten

def _damaged(valid):
    """``valid`` with up to four bytes and two little-endian u32s overwritten
    (lengths, counts, rates), cut at any point, plus up to 8 appended bytes."""
    n = len(valid)
    byte_edits = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), max_size=4)
    u32_edits = st.lists(st.tuples(st.integers(0, n - 4), st.sampled_from(
        [0, 1, 2, 10, 83, 84, 127, 128, 2**16, 2**31, 2**32 - 1])), max_size=2)

    def apply(bytes_, u32s, cut, tail):
        out = bytearray(valid)
        for at, value in bytes_:
            out[at] = value
        for at, value in u32s:
            struct.pack_into("<I", out, at, value)
        return bytes(out[:cut]) + tail
    return st.builds(apply, byte_edits, u32_edits, st.integers(0, n), st.binary(max_size=8))


def _wav_bytes():
    """A 100 Hz mono 16-bit WAV (a 2-sample window, a 1-sample hop) of 40
    samples, with an odd-sized chunk before its data chunk."""
    fmt = struct.pack("<HHIIHH", 1, 1, 100, 200, 2, 16)
    pcm = np.arange(-20, 20, dtype="<i2").tobytes()
    body = (b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"LIST" + struct.pack("<I", 3)
            + b"abc\0" + b"data" + struct.pack("<I", len(pcm)) + pcm)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _mel1_bytes():
    return b"MEL1" + struct.pack("<II", 3, 128) + np.ones(3 * 128, dtype="<f4").tobytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.ckpt"
    save_checkpoint(path, nn.Linear(2, 3, np.random.default_rng(0)), ModelConfig(),
                    extra={"seed": 1})
    return path.read_bytes()


@FUZZ
@given(payload=st.one_of(st.binary(max_size=64), _damaged(_wav_bytes())))
def test_fuzz_wav(tmp_path, payload):
    _parses_or_fails_closed(featurize_wav, tmp_path / "a.wav", payload)


@FUZZ
@given(payload=st.one_of(st.binary(max_size=64), _damaged(_mel1_bytes())))
def test_fuzz_mel1(tmp_path, payload):
    _parses_or_fails_closed(read_mel_cache, tmp_path / "a.mel", payload)


@FUZZ
@given(data=st.data())
def test_fuzz_checkpoint(tmp_path, checkpoint_bytes, data):
    payload = data.draw(st.one_of(st.binary(max_size=64), _damaged(checkpoint_bytes)))
    _parses_or_fails_closed(load_checkpoint, tmp_path / "a.ckpt", payload)
