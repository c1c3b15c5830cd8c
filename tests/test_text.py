"""Text frontend tests.

Oracles: the letter-fallback table itself (applied by hand), numpy
recomputation of file statistics, and dense-loop affine math for the highway
layers.  Gradient checks go through the shared finite-difference harness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melformer import autograd as ag
from melformer import text
from melformer.autograd import Segments, Tensor, gradcheck_sampled
from melformer.errors import FormatError, ShapeError, ValidationError
from melformer.text import (
    PAD_PHONEME,
    PHONEME_TO_ID,
    EncoderPrenet,
    HighwayLayer,
    Lexicon,
    PhonemeCNN,
    WordCombiner,
)

from helpers import parameter_count


@pytest.fixture
def lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(
        "CAT  K AE1 T\n"
        "DOG  D AO1 G\n"
        "THE  DH AH0\n"
        ";;; comment line\n"
        "HELLO  HH AH0 L OW1\n"
    )
    return Lexicon.load(path)


# ---------------------------------------------------------------------------
# tokenize_and_g2p

def test_lexicon_lookup_strips_stress(lexicon):
    seq = text.tokenize_and_g2p("cat", lexicon)
    assert seq.words == ["cat"]
    assert seq.phonemes == [[PHONEME_TO_ID[p] for p in ("K", "AE", "T")]]


def test_punctuation_and_case_are_normalized(lexicon):
    a = text.tokenize_and_g2p("Cat!", lexicon)
    b = text.tokenize_and_g2p("cat", lexicon)
    assert a.words == b.words
    assert a.phonemes == b.phonemes


def test_oov_word_is_spelled_out(lexicon):
    seq = text.tokenize_and_g2p("zxq", lexicon)
    # oracle: apply the documented fallback table by hand
    expected = [PHONEME_TO_ID[text.LETTER_FALLBACK[c]] for c in "zxq"]
    assert seq.phonemes == [expected]
    assert len(seq.phonemes[0]) == 3


def test_g2p_is_never_empty(lexicon):
    seq = text.tokenize_and_g2p("42", lexicon)  # no letters to spell
    assert seq.phonemes == [[text.UNK_PHONEME]]


def test_empty_transcript_rejected(lexicon):
    with pytest.raises(ValidationError):
        text.tokenize_and_g2p("  ... !!", lexicon)


def test_word_ids_come_from_word_vectors(lexicon, tmp_path):
    wv = _write_vectors(tmp_path, {"cat": 1.0, "dog": 2.0})
    seq = text.tokenize_and_g2p("the cat", lexicon, word_vectors=wv)
    assert seq.word_ids == [wv.unk_id, wv.vocab["cat"]]


def test_bad_lexicon_phoneme_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("CAT  K AE T\nDOG  QQ9\n")
    with pytest.raises(FormatError, match="2"):
        Lexicon.load(path)


# ---------------------------------------------------------------------------
# load_word_vectors

def _write_vectors(tmp_path, words):
    """words: map word -> base value; row i is base + small ramp."""
    lines = []
    for w, base in words.items():
        vals = base + np.arange(text.WORD_DIM) * 0.001
        lines.append(w + " " + " ".join(repr(float(v)) for v in vals))
    path = tmp_path / "vecs.txt"
    path.write_text("\n".join(lines) + "\n")
    return text.load_word_vectors(path)


def test_two_line_file_gives_two_words_plus_specials(tmp_path):
    wv = _write_vectors(tmp_path, {"cat": 1.0, "dog": 2.0})
    assert len(wv.vocab) == 2
    assert wv.matrix.shape == (4, 300)
    assert np.all(wv.matrix[wv.pad_id] == 0.0)


def test_unk_is_columnwise_mean(tmp_path):
    wv = _write_vectors(tmp_path, {"cat": 1.0, "dog": 2.0})
    expected = (wv.matrix[wv.vocab["cat"]] + wv.matrix[wv.vocab["dog"]]) / 2.0
    assert np.allclose(wv.matrix[wv.unk_id], expected, atol=1e-12)


def test_unseen_word_maps_to_unk(tmp_path):
    wv = _write_vectors(tmp_path, {"cat": 1.0})
    assert wv.lookup("zebra") == wv.unk_id


def test_wrong_dimensionality_names_line(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("cat " + " ".join(["0.0"] * 300) + "\ndog 1.0 2.0\n")
    with pytest.raises(FormatError, match="line 2"):
        text.load_word_vectors(path)


def test_an_empty_hashed_vocabulary_has_a_zero_unk_row():
    wv = text.hash_word_vectors([], dim=4)
    assert wv.vocab == {}
    assert np.array_equal(wv.matrix, np.zeros((2, 4)))


def test_hash_vectors_are_deterministic():
    a = text.hash_word_vectors(["cat", "dog"])
    b = text.hash_word_vectors(["dog", "cat", "cat"])
    assert a.matrix.shape == (4, 300)
    assert np.array_equal(a.matrix[a.vocab["cat"]], b.matrix[b.vocab["cat"]])


# ---------------------------------------------------------------------------
# PhonemeCNN

def test_phoneme_cnn_output_is_fixed_size():
    cnn = PhonemeCNN(np.random.default_rng(0))
    one = cnn.embed_word([[PHONEME_TO_ID["K"]]])
    thirty = cnn.embed_word([[PHONEME_TO_ID["AA"]] * 30])
    assert one.shape == (1, 150)
    assert thirty.shape == (1, 150)
    with pytest.raises(ShapeError):  # one list of ids per word
        cnn.embed_word([PHONEME_TO_ID["K"]])


def test_zero_embedding_table_gives_zero_output():
    cnn = PhonemeCNN(np.random.default_rng(0))
    cnn.embedding.table.data[:] = 0.0
    out = cnn.embed_word([[PHONEME_TO_ID["K"], PHONEME_TO_ID["T"]]])
    assert np.all(out.data == 0.0)  # convs carry no bias


def test_all_pad_word_embeds_to_zero():
    cnn = PhonemeCNN(np.random.default_rng(2))
    out = cnn.embed_word([[PHONEME_TO_ID["K"], PHONEME_TO_ID["T"]], [PAD_PHONEME],
                          [PAD_PHONEME, PAD_PHONEME]])
    assert np.all(out.data[1:] == 0.0)


def test_pad_row_stays_zero_after_backward():
    cnn = PhonemeCNN(np.random.default_rng(3))
    out = cnn.embed_word([[PHONEME_TO_ID["K"]], [PAD_PHONEME]])
    ag.backward(ag.tsum(out))
    assert np.all(cnn.embedding.table.grad[PAD_PHONEME] == 0.0)


def test_word_block_rows_equal_single_word_calls():
    cnn = PhonemeCNN(np.random.default_rng(24))
    k, ae, t, aa = (PHONEME_TO_ID[p] for p in ("K", "AE", "T", "AA"))
    words = [[k, ae, t], [aa], [PAD_PHONEME], [t, t, aa, k, ae], [k]]
    rows = cnn.embed_word(words)
    assert rows.shape == (len(words), 150)
    for i, word in enumerate(words):
        np.testing.assert_allclose(rows.data[i], cnn.embed_word([word]).data[0], rtol=0, atol=1e-12)
    assert np.all(rows.data[2] == 0.0)  # pad word


def phoneme_cnn_oracle(cnn, word):
    """One word through plain numpy: zero-padded correlation per width, ReLU,
    max over the word's phonemes, widths side by side."""
    emb = np.where(np.asarray(word)[:, None] == PAD_PHONEME, 0.0, cnn.embedding.table.data[word])
    pools = []
    for conv in cnn.convs:
        k = conv.kernels.data
        w = len(k)
        xp = np.vstack([np.zeros(((w - 1) // 2, emb.shape[1])), emb, np.zeros((w // 2, emb.shape[1]))])
        out = np.array([sum(xp[t + i] @ k[i] for i in range(w)) for t in range(len(word))])
        pools.append(np.maximum(out, 0.0).max(axis=0))
    return np.concatenate(pools)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.just([PAD_PHONEME]),
                          st.lists(st.integers(1, len(text.PHONEMES) - 1), min_size=1, max_size=12)),
                min_size=1, max_size=8))
def test_packed_words_match_a_per_word_numpy_oracle(words):
    cnn = PhonemeCNN(np.random.default_rng(27), d_p=6, widths=(2, 3, 4), channels_per_width=5)
    rows = cnn.embed_word(words)
    assert rows.shape == (len(words), 15)
    for row, word in zip(rows.data, words):
        np.testing.assert_allclose(row, phoneme_cnn_oracle(cnn, word), rtol=0, atol=1e-12)


def test_word_block_gradcheck():
    rng = np.random.default_rng(25)
    cnn = PhonemeCNN(rng, d_p=6, widths=(2, 3), channels_per_width=4)
    words = [[PHONEME_TO_ID["K"], PHONEME_TO_ID["AE"], PHONEME_TO_ID["T"]],
             [PHONEME_TO_ID["S"]], [PAD_PHONEME]]

    def f(*_):
        return ag.tsum(cnn.embed_word(words))

    err = gradcheck_sampled(f, cnn.parameters(), per_tensor=6,
                            rng=np.random.default_rng(26))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# highway / combine

def _unit(rng, dim=450):
    """One [1, dim] row of unit norm."""
    u = rng.standard_normal((1, dim))
    return u / np.linalg.norm(u)


def test_gate_forced_closed_returns_input_unchanged():
    rng = np.random.default_rng(4)
    layer = HighwayLayer(450, rng)
    layer.gate.bias.data[:] = -1e9
    u = Tensor(_unit(np.random.default_rng(5)))
    out = layer(u)
    assert np.allclose(out.data, u.data, atol=1e-12)


def test_gate_forced_open_returns_transform():
    rng = np.random.default_rng(6)
    layer = HighwayLayer(450, rng)
    layer.gate.weight.data[:] = 0.0
    layer.gate.bias.data[:] = 1e9
    u = Tensor(_unit(np.random.default_rng(7)))
    out = layer(u)
    expected = np.maximum(u.data @ layer.transform.weight.data + layer.transform.bias.data, 0.0)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_half_open_gate_blends_evenly():
    rng = np.random.default_rng(8)
    layer = HighwayLayer(450, rng)
    layer.gate.weight.data[:] = 0.0
    layer.gate.bias.data[:] = 0.0  # sigmoid(0) = 0.5 everywhere
    u = Tensor(_unit(np.random.default_rng(9)))
    h = np.maximum(u.data @ layer.transform.weight.data + layer.transform.bias.data, 0.0)
    out = layer(u)
    assert np.allclose(out.data, 0.5 * h + 0.5 * u.data, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_fresh_highway_is_near_copy(seed):
    layer = HighwayLayer(450, np.random.default_rng(100 + seed))
    u = _unit(np.random.default_rng(200 + seed))
    out = layer(Tensor(u))
    assert np.linalg.norm(out.data - u) / np.linalg.norm(u) < 0.5


def test_combiner_dimension_is_450_both_modes():
    rng = np.random.default_rng(10)
    wv = Tensor(np.random.default_rng(11).standard_normal((1, 300)))
    pv = Tensor(np.random.default_rng(12).standard_normal((1, 150)))
    concat = WordCombiner("concat", rng)(wv, pv)
    highway = WordCombiner("highway", np.random.default_rng(13))(wv, pv)
    assert concat.shape == (1, 450)
    assert highway.shape == (1, 450)
    assert np.allclose(concat.data, np.concatenate([wv.data, pv.data], axis=1))


def test_combiner_rows_equal_single_word_calls():
    combiner = WordCombiner("highway", np.random.default_rng(14))
    wv = Tensor(np.random.default_rng(15).standard_normal((3, 300)))
    pv = Tensor(np.random.default_rng(16).standard_normal((3, 150)))
    rows = combiner(wv, pv)
    assert rows.shape == (3, 450)
    for i in range(3):
        one = combiner(Tensor(wv.data[i:i + 1]), Tensor(pv.data[i:i + 1]))
        np.testing.assert_allclose(rows.data[i:i + 1], one.data, rtol=0, atol=1e-12)


def test_bad_combine_mode_rejected():
    with pytest.raises(ValidationError):
        WordCombiner("sum", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# EncoderPrenet

def test_prenet_output_shape_for_any_length():
    prenet = EncoderPrenet(np.random.default_rng(14))
    for t in (1, 7):
        x = Tensor(np.random.default_rng(t).standard_normal((t, 450)))
        assert prenet(x, Segments([t])).shape == (t, 128)


def test_prenet_weights_are_shared_across_lengths():
    prenet = EncoderPrenet(np.random.default_rng(15))
    n_before = parameter_count(prenet)
    prenet(Tensor(np.zeros((3, 450))), Segments([3]))
    prenet(Tensor(np.zeros((9, 450))), Segments([9]))
    assert parameter_count(prenet) == n_before


def test_prenet_padding_rows_do_not_leak():
    prenet = EncoderPrenet(np.random.default_rng(16))
    rng = np.random.default_rng(17)
    real = rng.standard_normal((3, 450))
    garbage = rng.standard_normal((2, 450)) * 50.0
    full = prenet(Tensor(np.vstack([real, garbage])), Segments([5], valid=[3]))
    trimmed = prenet(Tensor(real), Segments([3]))
    assert np.allclose(full.data[:3], trimmed.data, atol=1e-10)


def test_prenet_segments_see_neither_neighbour():
    """Two utterances packed back to back, the first one padded, come out
    as each one alone."""
    prenet = EncoderPrenet(np.random.default_rng(20), d_in=6, d_model=8, width=5)
    rng = np.random.default_rng(21)
    first, pad, second = (rng.standard_normal((n, 6)) for n in (3, 2, 4))
    packed = prenet(Tensor(np.vstack([first, pad * 50.0, second])),
                    Segments([5, 4], valid=[3, 4]))
    alone = [prenet(Tensor(x), Segments([len(x)])).data for x in (first, second)]
    np.testing.assert_allclose(packed.data[:3], alone[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(packed.data[5:], alone[1], rtol=0, atol=1e-12)


def test_prenet_gradcheck():
    rng = np.random.default_rng(18)
    prenet = EncoderPrenet(rng, d_in=6, d_model=8, width=3)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)

    def f(*_):
        return ag.tsum(prenet(x, Segments([4])))

    err = gradcheck_sampled(f, [x] + prenet.parameters(), per_tensor=6,
                            rng=np.random.default_rng(19))
    assert err < 1e-4


def test_highway_gradcheck():
    rng = np.random.default_rng(20)
    layer = HighwayLayer(10, rng)
    u = Tensor(rng.standard_normal((1, 10)), requires_grad=True)

    def f(*_):
        return ag.tsum(layer(u))

    err = gradcheck_sampled(f, [u] + layer.parameters(), per_tensor=8,
                            rng=np.random.default_rng(21))
    assert err < 1e-4


def test_phoneme_cnn_gradcheck():
    rng = np.random.default_rng(22)
    cnn = PhonemeCNN(rng, d_p=6, widths=(2, 3), channels_per_width=4)
    ids = [PHONEME_TO_ID["K"], PHONEME_TO_ID["AE"], PHONEME_TO_ID["T"]]

    def f(*_):
        return ag.tsum(cnn.embed_word([ids]))

    err = gradcheck_sampled(f, cnn.parameters(), per_tensor=6,
                            rng=np.random.default_rng(23))
    assert err < 1e-4
