"""Shared builders for model-level tests: small configs, synthetic encoded
utterances, the off-kink parameter nudge used before finite differences,
parameter counts (module sums and a closed form per config), the model's
attention modules, and the per-utterance forward, zero-filling backward, mask-tensor dropout,
per-parameter Adam and float64 audio frontend kept as oracles for the model,
the engine, the optimizer and the features."""

import math
import wave
from types import SimpleNamespace

import numpy as np

from melformer import audio
from melformer import autograd as ag
from melformer import nn
from melformer.autograd import Segments, Tensor
from melformer.config import ModelConfig
from melformer.fusion import MultiGranularityModel
from melformer.model import MultiHeadAttention, MultilevelTransformer
from melformer.text import PAD_PHONEME, PHONEME_TO_ID, PHONEMES, hash_word_vectors

WORDS = ["one", "two", "three", "four", "five"]


def small_config(**overrides):
    base = dict(d_model=16, heads=2, layers_text=1, layers_cross=1, layers_fusion=2,
                combine_mode="highway", num_classes=4, dropout=0.1, d_ff=32,
                phoneme_dim=8, phoneme_channels=12, phoneme_widths=(2, 3),
                word_dim=24, prenet_width=3)
    base.update(overrides)
    return ModelConfig(**base)


def make_model(seed=0, **overrides):
    cfg = small_config(**overrides)
    wv = hash_word_vectors(WORDS, dim=cfg.word_dim)
    return MultilevelTransformer(cfg, wv, seed=seed), cfg, wv


def parameter_count(module):
    return sum(p.size for p in module.parameters())


def attention_modules(model):
    return [m for m in model.modules() if isinstance(m, MultiHeadAttention)]


def expected_parameter_count(cfg: ModelConfig, vocab_rows=0) -> int:
    """Closed-form trainable-parameter count for a config.

    ``vocab_rows`` counts word-table rows and only contributes when word
    vectors are fine-tuned (otherwise the table is frozen, not a parameter).
    """
    d, ff = cfg.d_model, cfg.d_ff
    affine = lambda n_in, n_out: n_in * n_out + n_out
    u = cfg.word_dim + cfg.phoneme_channels
    cpw = cfg.phoneme_channels // len(cfg.phoneme_widths)

    total = len(PHONEMES) * cfg.phoneme_dim                       # phoneme table
    total += sum(w * cfg.phoneme_dim * cpw for w in cfg.phoneme_widths)  # bias-free convs
    if cfg.combine_mode == "highway":
        total += 2 * 2 * affine(u, u)                              # transform + gate, 2 layers
    total += cfg.prenet_width * u * d + d                          # prenet conv 1
    total += 2 * (cfg.prenet_width * d * d + d)                    # prenet convs 2-3
    total += 3 * 2 * d                                             # prenet layer norms
    total += affine(d, d)                                          # prenet projection
    total += affine(128, d) + affine(d, d)                         # mel prenet

    mha = 3 * affine(d, d) + d * d  # q, v, o carry biases; k does not
    ffn = affine(d, ff) + affine(ff, d)
    ln = 2 * d
    total += cfg.layers_text * (mha + ffn + 2 * ln)
    total += cfg.layers_cross * (2 * mha + ffn + 3 * ln)
    total += cfg.layers_fusion * (mha + ffn + 2 * ln)
    total += affine(d, cfg.num_classes)                            # head
    if cfg.finetune_word_vectors:
        total += vocab_rows * cfg.word_dim
    return total


def make_enc(wv, seed=0, n_words=3, n_frames=5, utt_embedding=None):
    rng = np.random.default_rng(seed)
    words = [WORDS[i % len(WORDS)] for i in range(n_words)]
    phon_pool = [PHONEME_TO_ID[p] for p in ("K", "AE", "T", "S", "OW")]
    mel = rng.standard_normal((n_frames, 128))
    mel[0] = 0.0  # dummy row
    return SimpleNamespace(
        word_ids=[wv.lookup(w) for w in words],
        phonemes=[[phon_pool[(i + j) % len(phon_pool)] for j in range(2 + i % 3)]
                  for i in range(n_words)],
        mel=mel,
        utt_embedding=utt_embedding,
    )


from melformer.verify import nudge_off_kinks  # noqa: F401  (shared with the CLI suite)


def utterance_logits(model, enc, pad_words=0, pad_frames=0):
    """The earlier forward, kept as an oracle: one utterance through the
    model on its own -> [1, K] logits, with no pack and no stream offsets."""
    word_ids = list(enc.word_ids) + [model.word_vectors.pad_id] * pad_words
    phonemes = list(enc.phonemes) + [[PAD_PHONEME]] * pad_words
    mel = np.vstack([enc.mel, np.zeros((pad_frames, 128))]).astype(model.dtype)
    words = Segments([len(word_ids)], valid=[len(enc.word_ids)])
    frames = Segments([len(mel)], valid=[len(enc.mel)])

    x = model.combiner(ag.embedding_rows(model.word_table, word_ids,
                                         frozen_row=model.word_vectors.pad_id),
                       model.phoneme_cnn.embed_word(phonemes))
    text = nn.add_positions(model.prenet(x, words), words)
    for block in model.text_blocks:
        text = block(text, text, words, words)
    x = nn.add_positions(model.mel_prenet(Tensor(mel)), frames)
    for block in model.cross_blocks:
        x = block(x, text, frames, words)
    for block in model.fusion_blocks:  # every fusion block over all rows
        x = block(x, x, frames, frames)
    cls = ag.getitem(x, np.array([0]))
    if not isinstance(model, MultiGranularityModel):
        return model.head(cls)
    if model.utt_encoder is None:
        utt = Tensor(np.asarray(enc.utt_embedding, dtype=model.dtype)[None])
    else:
        rows = model.utt_encoder.word_vectors.matrix[np.asarray(enc.word_ids)]
        utt = model.utt_encoder.proj(Tensor(rows.mean(axis=0, keepdims=True).astype(model.dtype)))
    return model.head(ag.concat([model.proj_fine(cls), model.proj_utt(utt)], axis=1))


def per_utterance_batch(model, batch):
    """The earlier ``forward_batch``, kept as an oracle: each
    ``(enc, pad_words, pad_frames)`` row on its own -> [N, K] logits."""
    return ag.concat([utterance_logits(model, *row) for row in batch], axis=0)


def zero_fill_backward(loss):
    """The engine's earlier backward, kept as an oracle: every graph node,
    constants included, gets a zero-filled grad before any rule runs, and
    interior nodes keep their grads."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._prev if id(p) not in visited)
    for node in topo:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward()
            node._backward = ag._consumed
            node._prev = ()


def mask_tensor_dropout(x, rate, rng):
    """The earlier dropout, kept as an oracle: a float keep tensor applied by
    ``mul``, from the same ``_keep_mask`` draw, each kept entry scaled by
    the inverse of the rule's exact kept share, 2**16 / (2**16 - t)."""
    if rate <= 0.0:
        return x
    kept_share = (2**16 - np.ceil(rate * 2**16)) / 2**16
    keep, _ = ag._keep_mask(rng, x.shape, rate, x.data.dtype)
    return ag.mul(x, ag.Tensor(keep / kept_share))


class PerParameterAdam:
    """The earlier Adam, kept as an oracle: moments per tensor, one
    whole-tensor expression per parameter, and ``p.data`` updated in place,
    in Kingma & Ba's order (step size and eps bias-corrected, the moments
    not), as ``harness.Adam`` computes it."""

    def __init__(self, named_params, lr=1e-5, beta1=0.9, beta2=0.999, eps=1e-8):
        self.items = [(name, p) for name, p in named_params]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.items]
        self.v = [np.zeros_like(p.data) for _, p in self.items]

    def step(self):
        self.t += 1
        root_b2c = math.sqrt(1.0 - self.beta2 ** self.t)
        step = self.lr * root_b2c / (1.0 - self.beta1 ** self.t)
        for (_, p), m, v in zip(self.items, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= step * m / (np.sqrt(v) + self.eps * root_b2c)


def oracle_features(path):
    """The earlier audio frontend, kept as an oracle: a WAV file (decoded by
    the standard library's ``wave``) -> [T + 1, 128] float64 features, from
    frames stacked from a list of slices, ``abs() ** 2`` power and a
    ``vstack``ed dummy row.  ``featurize_wav`` returns these values rounded
    to float32."""
    with wave.open(str(path), "rb") as w:
        channels, sample_rate = w.getnchannels(), w.getframerate()
        pcm = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2").astype(np.float64)
    if channels > 1:
        pcm = pcm.reshape(-1, channels).mean(axis=1)
    samples = pcm / 32768.0
    win = sample_rate * audio.FRAME_MS // 1000
    hop = sample_rate * audio.HOP_MS // 1000
    starts = np.arange(1 + (len(samples) - win) // hop) * hop
    frames = np.stack([samples[s:s + win] for s in starts]) * np.hanning(win)
    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    weights, _ = audio.mel_filterbank(sample_rate, n_fft)
    x = np.log(power @ weights.T + audio.LOG_FLOOR)
    normed = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), audio.STD_FLOOR)
    return np.vstack([np.zeros((1, x.shape[1])), normed])
