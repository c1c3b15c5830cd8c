"""Audio frontend: WAV decoding, framing, and 128-bin log filterbank features.

The feature pipeline is load_wav -> frame_signal -> log_mel ->
normalize_and_prepend_dummy.  Everything here is a pure function of the
input bytes, so utterances can be featurized in parallel and cached.

Choices the pipeline commits to (they affect reproducibility):
no pre-emphasis, Hann window, HTK mel scale 2595*log10(1 + f/700),
log compression with a 1e-10 floor, per-utterance per-channel
normalization, and an all-zero dummy row prepended at position 0.

No stage copies what it was given: framing reads a strided view of the
samples, the magnitudes are squared and the log taken in place, and
normalization computes in float64 and rounds once, into a float32 matrix
that already holds the dummy row.  Finished features are float32: exactly
the values a ``MEL1`` cache stores, so a matrix read back from its cache
equals the one ``featurize_wav`` returned, dtype included.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import BinaryReader
from .errors import ContractError, FormatError, ValidationError

N_MELS = 128
FRAME_MS = 25
HOP_MS = 12
LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8

CACHE_MAGIC = b"MEL1"


@dataclass
class MelMatrix:
    # [T, 128] log filterbank energies: float64 from log_mel, float32 (the
    # cached values) once normalized, with the dummy row
    frames: np.ndarray
    has_dummy: bool = False


# ---------------------------------------------------------------------------
# WAV decoding

def load_wav(path):
    """Decode a RIFF/WAVE file with 16-bit PCM samples.

    Returns (samples, sample_rate) with samples scaled by 1/32768 and
    multi-channel audio downmixed by averaging.  Parsing is done by hand so
    malformed files produce errors that name the offending chunk.  A sample
    rate too low for one sample per hop is rejected here, before framing.
    """
    fmt = None
    data = None
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, path)
        head = reader.take(12, "RIFF header")
        if head[0:4] != b"RIFF":
            raise FormatError(f"{path}: missing RIFF chunk")
        if head[8:12] != b"WAVE":
            raise FormatError(f"{path}: RIFF form type is {head[8:12]!r}, not WAVE")
        while reader.left() >= 8:
            chunk_id = reader.take(4)
            (size,) = reader.u32s(1)
            body = reader.take(size, f"{chunk_id.decode('ascii', 'replace')} chunk")
            if chunk_id == b"fmt ":
                if size < 16:
                    raise FormatError(f"{path}: fmt chunk too small ({size} bytes)")
                audio_format, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
                if audio_format != 1:
                    raise FormatError(f"{path}: fmt chunk declares codec {audio_format}, only PCM (1) is supported")
                if bits != 16:
                    raise FormatError(f"{path}: fmt chunk declares {bits}-bit samples, only 16-bit is supported")
                if channels < 1:
                    raise FormatError(f"{path}: fmt chunk declares {channels} channels")
                if sample_rate * HOP_MS // 1000 < 1:
                    raise FormatError(f"{path}: fmt chunk declares {sample_rate} Hz, under one "
                                      f"sample per {HOP_MS} ms hop")
                fmt = (channels, sample_rate)
            elif chunk_id == b"data":
                data = body
            # unknown chunks (LIST, fact, ...) are skipped; chunks are word-aligned,
            # and a final odd chunk may lack its pad byte
            reader.take(min(size & 1, reader.left()))

    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    channels, sample_rate = fmt
    frame_bytes = 2 * channels
    usable = len(data) - (len(data) % frame_bytes)
    pcm = np.frombuffer(data[:usable], dtype="<i2")
    if channels > 1:
        pcm = pcm.reshape(-1, channels).mean(axis=1)
    # scaling by a power of two is exact, so one multiply gives x / 32768
    return np.multiply(pcm, 2.0 ** -15, dtype=np.float64), sample_rate


# ---------------------------------------------------------------------------
# Framing and filterbank

def frame_signal(samples, sample_rate):
    """Slice a signal into Hann-windowed frames (25 ms window, 12 ms hop).

    Emits 1 + floor((L - win)/hop) frames; a trailing partial window is
    dropped rather than padded.
    """
    samples = np.asarray(samples, dtype=np.float64)
    win = sample_rate * FRAME_MS // 1000
    hop = sample_rate * HOP_MS // 1000
    if len(samples) < win:
        raise ValidationError(
            f"signal of {len(samples)} samples is shorter than one {win}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(samples, win)[::hop]
    return frames * hann_window(win)


@functools.lru_cache(maxsize=8)
def hann_window(win):
    """``np.hanning(win)``, built once per width and shared, so read-only."""
    window = np.hanning(win)
    window.flags.writeable = False
    return window


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(sample_rate, n_fft, n_mels=N_MELS):
    """Triangular mel filters evaluated at the FFT bin center frequencies.

    Returns (weights[n_mels, n_fft//2+1], center_freqs[n_mels]).  Filter
    edges are spaced uniformly in mel between 0 Hz and Nyquist.  The bank
    is built once per (sample_rate, n_fft, n_mels) and shared, so both
    arrays are read-only.
    """
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    weights = np.zeros((n_mels, len(bin_hz)))
    for k in range(n_mels):
        left, center, right = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        up = (bin_hz - left) / max(center - left, 1e-12)
        down = (right - bin_hz) / max(right - center, 1e-12)
        weights[k] = np.maximum(0.0, np.minimum(up, down))
    centers = edges_hz[1:-1].copy()
    weights.flags.writeable = centers.flags.writeable = False
    return weights, centers


def log_mel(frames, sample_rate):
    """Log mel filterbank energies for pre-windowed frames -> MelMatrix."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValidationError(f"expected a nonempty [frames, window] array, got shape {frames.shape}")
    win = frames.shape[1]
    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))
    np.square(power, out=power)
    weights, _ = mel_filterbank(sample_rate, n_fft)
    energies = power @ weights.T
    energies += LOG_FLOOR
    return MelMatrix(frames=np.log(energies, out=energies))


def normalize_and_prepend_dummy(mel: MelMatrix) -> MelMatrix:
    """Per-channel mean/variance normalization, then a zero row at position 0.

    The statistics and the quotient are float64; each quotient is rounded
    once, to the float32 output.
    """
    if mel.has_dummy:
        raise ContractError("mel matrix already has a dummy row prepended")
    x = np.asarray(mel.frames, dtype=np.float64)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_FLOOR)
    out = np.empty((len(x) + 1, x.shape[1]), dtype=np.float32)
    out[0] = 0.0
    np.divide(x - mean, std, out=out[1:], casting="same_kind")
    return MelMatrix(frames=out, has_dummy=True)


def featurize_wav(path) -> MelMatrix:
    """Full pipeline: WAV file to normalized float32 feature matrix with dummy row."""
    samples, sr = load_wav(path)
    return normalize_and_prepend_dummy(log_mel(frame_signal(samples, sr), sr))


# ---------------------------------------------------------------------------
# Feature cache

def mel_cache_bytes(mel: MelMatrix) -> bytes:
    """Serialized form of a finalized feature matrix, little-endian f32."""
    if not mel.has_dummy:
        raise ContractError("refusing to cache a feature matrix without its dummy row")
    rows, cols = mel.frames.shape
    return CACHE_MAGIC + struct.pack("<II", rows, cols) + np.asarray(mel.frames, "<f4").tobytes()


def read_mel_cache(path) -> MelMatrix:
    """A MEL1 file: 128 columns, the dummy row and 1+ frames, all finite, nothing after.

    The frames are the stored float32 values, the ones ``featurize_wav``
    computed, in a read-only view of the file's bytes.
    """
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, path)
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
        rows, cols = reader.u32s(2, "header")
        if cols != N_MELS or rows < 2:
            raise FormatError(f"{path}: {rows}x{cols} features, expected {N_MELS} columns and "
                              f"at least 2 rows (the dummy row and one frame)")
        payload = reader.take(4 * rows * cols, f"{rows}x{cols} payload")
        trailing = reader.left()
    if trailing:
        raise FormatError(f"{path}: {trailing} trailing bytes after the {rows}x{cols} payload")
    frames = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32, copy=False)
    if not np.isfinite(frames).all():
        raise ValidationError(f"{path}: non-finite feature value in the {rows}x{cols} payload")
    return MelMatrix(frames=frames, has_dummy=True)
