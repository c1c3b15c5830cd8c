"""Audio frontend tests.

Expected values are produced by small independent oracles defined at the top
(offset enumeration for frame counts, a separate mel-scale implementation for
filter centers) or by hand-constructed fixtures, never by running the code
under test twice.
"""

import math
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melformer import audio
from melformer.errors import ContractError, FormatError, ValidationError

from helpers import oracle_features


# ---------------------------------------------------------------------------
# Oracles

def frame_count_oracle(n_samples, win, hop):
    """Count frames by enumerating start offsets directly."""
    count = 0
    start = 0
    while start + win <= n_samples:
        count += 1
        start += hop
    return count


def mel_centers_oracle(sample_rate, n_mels):
    """Filter center frequencies recomputed from the mel-scale definition."""
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    top = to_mel(sample_rate / 2.0)
    edges = [to_hz(top * i / (n_mels + 1)) for i in range(n_mels + 2)]
    return edges[1:-1]


# ---------------------------------------------------------------------------
# Fixtures

def write_pcm_wav(path, pcm, sample_rate=16000, channels=1):
    pcm = np.asarray(pcm, dtype="<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(pcm.tobytes())


@pytest.fixture
def tone_wav(tmp_path):
    """One second of a 1 kHz tone at 16 kHz."""
    t = np.arange(16000) / 16000.0
    pcm = (0.5 * np.sin(2 * np.pi * 1000.0 * t) * 32767).astype(np.int16)
    path = tmp_path / "tone.wav"
    write_pcm_wav(path, pcm)
    return path


# ---------------------------------------------------------------------------
# load_wav

def test_all_zero_pcm_decodes_to_zeros(tmp_path):
    path = tmp_path / "z.wav"
    write_pcm_wav(path, np.zeros(500, dtype=np.int16))
    samples, sr = audio.load_wav(path)
    assert sr == 16000
    assert samples.shape == (500,)
    assert np.all(samples == 0.0)


def test_max_amplitude_scaling(tmp_path):
    path = tmp_path / "m.wav"
    write_pcm_wav(path, [32767, -32768])
    samples, _ = audio.load_wav(path)
    assert samples[0] == pytest.approx(32767 / 32768, abs=1e-12)
    assert samples[0] == pytest.approx(0.99997, abs=1e-5)
    assert samples[1] == -1.0


def test_stereo_downmix_is_channel_mean(tmp_path):
    left = np.array([100, -200, 300, 32767], dtype=np.int16)
    right = np.array([300, 200, -100, -32767], dtype=np.int16)
    interleaved = np.empty(8, dtype=np.int16)
    interleaved[0::2] = left
    interleaved[1::2] = right
    path = tmp_path / "s.wav"
    write_pcm_wav(path, interleaved, channels=2)
    samples, _ = audio.load_wav(path)
    expected = (left.astype(np.float64) + right.astype(np.float64)) / 2.0 / 32768.0
    assert np.allclose(samples, expected, atol=1e-12)


def test_non_riff_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(FormatError, match="RIFF"):
        audio.load_wav(path)


def test_non_pcm_codec_names_fmt_chunk(tmp_path):
    # minimal RIFF/WAVE with an IEEE-float fmt chunk (codec 3)
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 0)
    path = tmp_path / "f32.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match="fmt"):
        audio.load_wav(path)


def test_eight_bit_samples_rejected(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 16000, 1, 8)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 0)
    path = tmp_path / "u8.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match="16-bit"):
        audio.load_wav(path)


def test_truncated_data_chunk_is_format_error(tmp_path):
    path = tmp_path / "t.wav"
    write_pcm_wav(path, np.zeros(100, dtype=np.int16))
    whole = path.read_bytes()
    path.write_bytes(whole[:-50])
    with pytest.raises(FormatError, match="data chunk truncated"):
        audio.load_wav(path)


def test_missing_data_chunk_named(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "nodata.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FormatError, match="data"):
        audio.load_wav(path)


def test_unknown_chunks_are_skipped(tmp_path):
    pcm = np.arange(-4, 4, dtype=np.int16)
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE"
    body += b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", pcm.nbytes) + pcm.tobytes()
    path = tmp_path / "list.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    samples, _ = audio.load_wav(path)
    assert np.allclose(samples, pcm.astype(np.float64) / 32768.0)


# ---------------------------------------------------------------------------
# frame_signal

def test_exactly_one_window_gives_one_frame():
    frames = audio.frame_signal(np.ones(400), 16000)
    assert frames.shape == (1, 400)


def test_one_second_at_16k_gives_82_frames():
    frames = audio.frame_signal(np.zeros(16000), 16000)
    assert frames.shape[0] == frame_count_oracle(16000, 400, 192)
    assert frames.shape[0] == 82


def test_signal_shorter_than_window_rejected():
    with pytest.raises(ValidationError, match="short"):
        audio.frame_signal(np.zeros(399), 16000)


def test_hann_window_is_applied():
    frames = audio.frame_signal(np.ones(400), 16000)
    assert np.allclose(frames[0], np.hanning(400))


@given(st.integers(min_value=400, max_value=40000))
@settings(max_examples=60, deadline=None)
def test_frame_count_matches_enumeration_oracle(n):
    frames = audio.frame_signal(np.zeros(n), 16000)
    assert frames.shape[0] == frame_count_oracle(n, 400, 192)


def test_frame_sizes_follow_sample_rate():
    frames = audio.frame_signal(np.zeros(8000), 8000)
    assert frames.shape[1] == 200  # 25 ms at 8 kHz


@pytest.mark.parametrize("win", [200, 400, 551])
def test_cached_hann_window_is_numpys_and_read_only(win):
    window = audio.hann_window(win)
    assert audio.hann_window(win) is window  # built once, then shared
    assert window.tobytes() == np.hanning(win).tobytes()
    with pytest.raises(ValueError):
        window[0] = 1.0


def test_frames_are_copies_not_views_of_the_samples():
    samples = np.arange(1000, dtype=np.float64)
    frames = audio.frame_signal(samples, 16000)
    assert frames.flags.writeable and frames.flags.c_contiguous
    assert not np.shares_memory(frames, samples)
    assert np.array_equal(frames[1], samples[192:592] * np.hanning(400))


# ---------------------------------------------------------------------------
# log_mel

def test_all_zero_frame_hits_log_floor():
    mel = audio.log_mel(np.zeros((3, 400)), 16000)
    assert mel.frames.shape == (3, 128)
    assert np.allclose(mel.frames, np.log(1e-10))


@pytest.mark.parametrize("sr,win", [(8000, 200), (16000, 400), (22050, 551)])
def test_output_dim_is_128_for_any_rate(sr, win):
    rng = np.random.default_rng(0)
    mel = audio.log_mel(rng.standard_normal((4, win)), sr)
    assert mel.frames.shape == (4, 128)
    assert np.all(np.isfinite(mel.frames))


def test_tone_peaks_at_filter_bracketing_1khz(tone_wav):
    samples, sr = audio.load_wav(tone_wav)
    mel = audio.log_mel(audio.frame_signal(samples, sr), sr)
    centers = mel_centers_oracle(sr, 128)
    k = int(np.argmax(mel.frames.mean(axis=0)))
    low = centers[k - 1] if k > 0 else 0.0
    high = centers[k + 1] if k + 1 < len(centers) else sr / 2.0
    assert low < 1000.0 < high


def test_filterbank_centers_match_oracle():
    _, centers = audio.mel_filterbank(16000, 512)
    assert np.allclose(centers, mel_centers_oracle(16000, 128), atol=1e-6)


@pytest.mark.parametrize("sr,n_fft", [(8000, 256), (16000, 512), (22050, 1024)])
def test_cached_filterbank_equals_a_fresh_one_and_is_read_only(sr, n_fft):
    weights, centers = audio.mel_filterbank(sr, n_fft)
    fresh_weights, fresh_centers = audio.mel_filterbank.__wrapped__(sr, n_fft)
    assert audio.mel_filterbank(sr, n_fft)[0] is weights  # built once, then shared
    assert weights.tobytes() == fresh_weights.tobytes()
    assert centers.tobytes() == fresh_centers.tobytes()
    for arr in (weights, centers):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# normalize_and_prepend_dummy

def test_dummy_row_is_zero_and_length_grows():
    rng = np.random.default_rng(1)
    mel = audio.log_mel(rng.standard_normal((10, 400)), 16000)
    out = audio.normalize_and_prepend_dummy(mel)
    assert out.frames.shape == (11, 128)
    assert np.all(out.frames[0] == 0.0)
    assert out.has_dummy


def test_channels_are_zero_mean_after_normalization():
    rng = np.random.default_rng(2)
    mel = audio.log_mel(rng.standard_normal((20, 400)) * 0.1, 16000)
    out = audio.normalize_and_prepend_dummy(mel)
    means = out.frames[1:].mean(axis=0)
    assert np.all(np.abs(means) < 1e-5)


def test_double_prepend_is_a_contract_error():
    mel = audio.log_mel(np.random.default_rng(3).standard_normal((5, 400)), 16000)
    out = audio.normalize_and_prepend_dummy(mel)
    with pytest.raises(ContractError):
        audio.normalize_and_prepend_dummy(out)


def test_constant_channel_survives_std_floor():
    mel = audio.MelMatrix(frames=np.ones((6, 128)) * 3.5)
    out = audio.normalize_and_prepend_dummy(mel)
    assert np.all(np.isfinite(out.frames))
    assert np.allclose(out.frames[1:], 0.0)


# ---------------------------------------------------------------------------
# determinism and cache round-trip

# (name, sample rate, channels, samples per channel): a trailing partial
# window, two channels, the lowest and a non-round rate, one exact window
FRONTEND_CASES = [("mono", 16000, 1, 16000 + 77), ("stereo", 16000, 2, 9000),
                  ("8k", 8000, 1, 8000), ("22k", 22050, 1, 22050),
                  ("one-window", 16000, 1, 400), ("partial", 16000, 1, 400 + 3 * 192 + 191)]


@pytest.mark.parametrize("name,rate,channels,n", FRONTEND_CASES)
def test_features_are_the_earlier_frontend_rounded_to_float32(tmp_path, name, rate, channels, n):
    rng = np.random.default_rng(len(name))
    t = np.arange(n) / rate
    tone = 0.3 * np.sin(2 * np.pi * 440.0 * t)[:, None] + 0.05 * rng.standard_normal((n, channels))
    path = tmp_path / f"{name}.wav"
    write_pcm_wav(path, (tone * 32767).astype(np.int16).reshape(-1), rate, channels)
    mel = audio.featurize_wav(path)
    expected = oracle_features(path)
    assert mel.has_dummy and mel.frames.dtype == np.float32
    assert mel.frames.shape == expected.shape
    assert mel.frames.tobytes() == expected.astype(np.float32).tobytes()


def test_normalization_rounds_once_from_float64():
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((30, 128)) * 3.0 + 1.0
    out = audio.normalize_and_prepend_dummy(audio.MelMatrix(frames=frames)).frames
    expected = (frames - frames.mean(axis=0)) / frames.std(axis=0)
    assert out.dtype == np.float32
    assert np.all(out[0] == 0.0)
    assert np.array_equal(out[1:], expected.astype(np.float32))


def test_featurize_is_deterministic(tone_wav):
    a = audio.featurize_wav(tone_wav)
    b = audio.featurize_wav(tone_wav)
    assert np.array_equal(a.frames, b.frames)


def test_featurize_gives_the_same_payload_with_a_fresh_or_cached_filterbank(tone_wav):
    audio.mel_filterbank.cache_clear()
    payloads = [audio.mel_cache_bytes(audio.featurize_wav(tone_wav)) for _ in range(3)]
    assert audio.mel_filterbank.cache_info().hits == 2
    assert payloads[0][:4] == b"MEL1"
    assert payloads[0] == payloads[1] == payloads[2]


def test_cache_round_trip(tmp_path, tone_wav):
    mel = audio.featurize_wav(tone_wav)
    path = tmp_path / "tone.mel"
    path.write_bytes(audio.mel_cache_bytes(mel))
    back = audio.read_mel_cache(path)
    assert back.has_dummy
    assert back.frames.dtype == mel.frames.dtype == np.float32
    assert np.array_equal(back.frames, mel.frames)
    assert np.all(back.frames[0] == 0.0)  # dummy row survives the f32 round trip


def test_cache_rewrite_is_byte_identical(tmp_path, tone_wav):
    mel = audio.featurize_wav(tone_wav)
    p1, p2 = tmp_path / "a.mel", tmp_path / "b.mel"
    p1.write_bytes(audio.mel_cache_bytes(mel))
    p2.write_bytes(audio.mel_cache_bytes(audio.read_mel_cache(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_requires_dummy_row():
    mel = audio.log_mel(np.zeros((2, 400)), 16000)
    with pytest.raises(ContractError):
        audio.mel_cache_bytes(mel)


def test_cache_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mel"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        audio.read_mel_cache(path)


def test_cache_truncated_payload_is_format_error(tmp_path, tone_wav):
    mel = audio.featurize_wav(tone_wav)
    path = tmp_path / "short.mel"
    path.write_bytes(audio.mel_cache_bytes(mel)[:-10])
    with pytest.raises(FormatError, match="truncated"):
        audio.read_mel_cache(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cache_with_a_non_finite_value_is_refused(tmp_path, tone_wav, value):
    raw = bytearray(audio.mel_cache_bytes(audio.featurize_wav(tone_wav)))
    at = 12 + 4 * (audio.N_MELS + 5)  # frame 1, channel 5
    raw[at:at + 4] = struct.pack("<f", value)
    path = tmp_path / "bad.mel"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="non-finite") as exc_info:
        audio.read_mel_cache(path)
    assert str(exc_info.value).startswith(f"{path}: ")
