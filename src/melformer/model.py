"""The fine-grained multimodal transformer.

Text path: phoneme CNN + word vector -> combiner -> conv prenet ->
transformer encoder, each stage run once over the word rows of a whole
batch (the phoneme CNN over its phoneme rows, pooled to one row per word).
Audio path: normalized log-mel frames (zero dummy row at position 0) ->
two-layer affine prenet -> cross-modality blocks whose queries are the mel
stream and whose keys/values are the text encoding -> self-attention
fusion blocks.  Each utterance's fused row at position 0 feeds an affine
head that emits class logits.  Since nothing else reaches the head, the last
fusion block computes only those position-0 rows: its queries are the
pack's N cls rows, its keys and values the whole mel stream, and its
attention, FFN and layer norms run on N rows instead of ΣT (as in CaiT's
class-attention layers).  Every other row of that block would never reach
the loss, so the logits are those of a full last block up to rounding.

A batch runs as one ``Pack``: its utterances' word rows are stacked into
one [ΣW, ·] stream and their mel frames into one [ΣT, d] stream, with no
padding between them.  Utterance i is segment i of each stream, laid out
by an ``autograd.Segments`` (offsets plus per-segment valid counts).  A
third stream holds every word's phonemes, [Σphonemes] with one segment per
word, for the phoneme CNN.  Every row-wise stage (``Linear``, whose bias
rides in its ``matmul`` node, FFN, ``dropout``, and ``layer_norm``, which
takes each sublayer's residual into the same node) runs once per batch and
never sees the layout; only attention, the conv windows, max pooling, row
zeroing and positions do, and they stay inside each segment.  So no utterance sees
another, and a batch gives each utterance's logits as a forward of that
utterance alone would, up to rounding.  Each attention call projects its
input rows with one matmul per input (a [d, 3d] q | v | k projection for
self-attention; a [d, d] query and a [d, 2d] v | k projection where the
queries are other rows), then runs one ``autograd.attention`` node over
every head and segment.  The node reads q from its first input's leading d
columns and v | k from its second's trailing 2d (self-attention passes its
q | v | k projection as both) and holds its attention dropout inside.  No
key projection has a bias.  After a pack, each attention module's
``last_weights`` holds the [heads, Tq, Tk] map of the pack's last
utterance (the last fusion block's is its cls row's [heads, 1, Tk]);
after a pack of one (one utterance through ``forward_utterance``, or
``predict_probs``) that is the utterance's own map.

No position is ever masked as a query and no causal structure exists:
classification sees the whole utterance in both modalities.  Padding only
comes from ``forward_utterance``'s ``pad_words``/``pad_frames`` (or padded
batch rows): a padded segment's valid count stays at its real length, so
attention gives its padding keys zero weight and the text prenet zeroes its
padding rows, which keeps logits invariant to trailing padding.

``MultilevelTransformer.forward_utterance`` is the one forward, over a
whole ``Pack`` or one utterance as a pack of one; ``forward_batch``
(training and evaluation) and ``predict_probs`` go through it, and
``checkpoint_extra`` fills the checkpoint header.  The multi-granularity
model (``fusion.MultiGranularityModel``) is a subclass that overrides only
``classify``, the step from cls rows to logits, and its header fields.
``rebuild_model`` is the one way back from a loaded checkpoint to either
variant, and ``restore_model`` loads and rebuilds in one call.

A model computes in one dtype, ``cfg.precision`` (float32 by default, as
the paper trained; float64 for the gradient checks): its parameters, the
word table, the pack's mel stream and the position signal all take it, so
every activation and gradient does too.  Only ``predict_probs`` widens, for
its final softmax.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from . import nn
from .autograd import Segments, Tensor
from .binfile import BinaryReader
from .config import CHOICES, ModelConfig, _typed, model_config_from_dict
from .errors import ContractError, FormatError, ShapeError, ValidationError
from .text import PAD_PHONEME, PHONEMES, EncoderPrenet, PhonemeCNN, WordCombiner, WordVectors

CHECKPOINT_MAGIC = b"MLT1"


@dataclass
class ForwardTrace:
    cls: Tensor     # [N, d], each utterance's position-0 fused row
    logits: Tensor  # [N, K]


class Pack:
    """A batch of ``(enc, pad_words, pad_frames)`` rows as two packed streams.

    Utterance i is segment i of ``words`` (its word ids and phoneme lists,
    then ``pad_words`` pad rows) and of ``frames`` (its normalized mel
    matrix, dummy row first, then ``pad_frames`` zero frames); each
    segment's valid count is the utterance's own length.  The mel stream
    ``mel`` is built in ``dtype``, the model's; an unpadded pack of one
    whose features already have it holds them as they are, so nothing
    writes into ``mel``.
    """

    def __init__(self, rows, pad_id, dtype):
        rows = list(rows)
        if not rows:
            raise ShapeError("a pack needs at least one utterance")
        word_ids, phonemes, mels = [], [], []
        for enc, pad_words, pad_frames in rows:
            if len(enc.word_ids) != len(enc.phonemes):
                raise ShapeError(f"{len(enc.word_ids)} word ids vs "
                                 f"{len(enc.phonemes)} phoneme lists")
            word_ids += [*enc.word_ids, *[pad_id] * pad_words]
            phonemes += [*enc.phonemes, *[[PAD_PHONEME]] * pad_words]
            mels.append(np.asarray(enc.mel, dtype=dtype))
            if pad_frames:
                mels.append(np.zeros((pad_frames, mels[-1].shape[1]), dtype=dtype))
        self.encs = [enc for enc, _, _ in rows]
        self.word_ids = np.asarray(word_ids, dtype=np.int64)
        self.phonemes = phonemes
        self.mel = mels[0] if len(mels) == 1 else np.concatenate(mels)
        self.words = Segments([len(e.word_ids) + pw for e, pw, _ in rows],
                              valid=[len(e.word_ids) for e in self.encs])
        self.frames = Segments([len(e.mel) + pf for e, _, pf in rows],
                               valid=[len(e.mel) for e in self.encs])


class MultiHeadAttention(nn.Module):
    """Scaled dot-product attention, all heads and segments in one node.

    Each input row is projected by one matmul.  A self-attention module
    (``self_attention``, where queries, keys and values are the same rows)
    holds one [d, 3d] projection ``wqvk`` whose columns are the queries,
    values and keys (q | v | k).  Otherwise (cross-attention, and the last
    fusion block, whose queries are the cls rows) it holds a [d, d] query
    projection ``wq`` and one [d, 2d] projection ``wvk`` of the key/value
    rows (v | k).  The projections' biases cover their leading columns, so
    q and v have one and k does not: softmax ignores per-row constant score
    shifts, so a key bias would be a dead parameter.  Head h owns the h-th
    block of d_model / heads columns of each of q, k and v.

    Between the projections and the output projection ``wo`` sits one
    ``autograd.attention`` node, which reads q, k and v as column blocks of
    the projections (a self-attention module passes ``wqvk``'s output as
    both its inputs): it scores, masks and normalizes every head of every
    segment at once, applies the attention dropout ``drop`` (while its
    module trains) in one draw over all the maps, and writes each head's
    output back into its column block.  After each call, ``last_weights``
    holds the last segment's [heads, Tq, Tk] attention distributions
    (post-softmax, pre-dropout) for inspection: after a pack of one, the
    utterance's map.  In the last fusion block, which queries with the cls
    rows only, that is the cls row's [heads, 1, Tk] map.
    """

    def __init__(self, d_model, heads, rng, self_attention=True):
        super().__init__()
        if d_model % heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {heads} heads")
        self.heads = heads
        self.self_attention = self_attention
        if self_attention:
            self.wqvk = nn.Linear(d_model, 3 * d_model, rng, bias=2 * d_model)
        else:
            self.wq = nn.Linear(d_model, d_model, rng)
            self.wvk = nn.Linear(d_model, 2 * d_model, rng, bias=d_model)
        self.wo = nn.Linear(d_model, d_model, rng)
        self.last_weights = None

    def __call__(self, queries: Tensor, keys_values: Tensor, q_segs: Segments,
                 k_segs: Segments, drop: nn.Dropout = None) -> Tensor:
        rate, rng = (drop.rate, drop.rng) if drop is not None and drop.training else (0.0, None)
        if self.self_attention:
            if queries is not keys_values:
                raise ContractError("a self-attention module takes its queries, keys and "
                                    "values from one tensor")
            q = kv = self.wqvk(queries)
        else:
            q, kv = self.wq(queries), self.wvk(keys_values)
        mixed = ag.attention(q, kv, self.heads, q_segs, k_segs, rate, rng,
                             on_weights=self._keep_weights)
        return self.wo(mixed)

    def _keep_weights(self, weights):
        self.last_weights = weights


class FeedForward(nn.Module):
    """Two affine layers with a ReLU between, row-wise: each block's
    feed-forward (d, d_ff, d) and the mel prenet (128, d, d)."""

    def __init__(self, d_in, d_hidden, d_out, rng):
        super().__init__()
        self.lin1 = nn.Linear(d_in, d_hidden, rng)
        self.lin2 = nn.Linear(d_hidden, d_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(ag.relu(self.lin1(x)))


class EncoderBlock(nn.Module):
    """Attention + feed-forward, each with residual then layer norm.

    The rows ``q`` (laid out by ``q_segs``) attend to ``kv`` (by
    ``kv_segs``), and the block returns one row per query row.  A full
    self-attention block is ``block(x, x, segs, segs)``; the model's last
    fusion block, built with ``self_attention`` False, passes only the cls
    rows as queries, one per segment.
    """

    def __init__(self, d_model, heads, d_ff, rng, drop_rng, dropout, self_attention=True):
        super().__init__()
        self.attn = MultiHeadAttention(d_model, heads, rng, self_attention=self_attention)
        self.ffn = FeedForward(d_model, d_ff, d_model, rng)
        self.norm1 = nn.LayerNorm(d_model)
        self.norm2 = nn.LayerNorm(d_model)
        self.drop = nn.Dropout(dropout, drop_rng)

    def __call__(self, q: Tensor, kv: Tensor, q_segs: Segments, kv_segs: Segments) -> Tensor:
        x = self.norm1(q, self.drop(self.attn(q, kv, q_segs, kv_segs, drop=self.drop)))
        return self.norm2(x, self.drop(self.ffn(x)))


class CrossModalBlock(nn.Module):
    """Mel self-attention, then attention into the text encoding, then FFN."""

    def __init__(self, d_model, heads, d_ff, rng, drop_rng, dropout):
        super().__init__()
        self.self_attn = MultiHeadAttention(d_model, heads, rng)
        self.cross_attn = MultiHeadAttention(d_model, heads, rng, self_attention=False)
        self.ffn = FeedForward(d_model, d_ff, d_model, rng)
        self.norm1 = nn.LayerNorm(d_model)
        self.norm2 = nn.LayerNorm(d_model)
        self.norm3 = nn.LayerNorm(d_model)
        self.drop = nn.Dropout(dropout, drop_rng)

    def __call__(self, mel: Tensor, text: Tensor, mel_segs: Segments,
                 text_segs: Segments) -> Tensor:
        attend = self.self_attn(mel, mel, mel_segs, mel_segs, drop=self.drop)
        mel = self.norm1(mel, self.drop(attend))
        attend = self.cross_attn(mel, text, mel_segs, text_segs, drop=self.drop)
        mel = self.norm2(mel, self.drop(attend))
        return self.norm3(mel, self.drop(self.ffn(mel)))


class MultilevelTransformer(nn.Module):
    """Fine-grained audio+text classifier; see the module docstring.

    Initial parameters are drawn in float64 and cast to ``dtype`` once, at
    the end of the constructor: a float32 model starts from the float64
    model's values, rounded.  The head is drawn last, so a subclass that
    replaces it leaves every other initial value as it is.  Under
    ``nn.skip_init`` (a restore) nothing is drawn and the cast copies
    nothing.
    """

    def __init__(self, cfg: ModelConfig, word_vectors: WordVectors, seed=0):
        super().__init__()
        cfg.validate()
        if word_vectors.dim != cfg.word_dim:
            raise ShapeError(
                f"word vectors are {word_vectors.dim}-dim, config says {cfg.word_dim}")
        self.cfg = cfg
        self.word_vectors = word_vectors
        rng = np.random.default_rng(seed)
        self.drop_rng = np.random.default_rng(seed + 1)

        self.word_table = Tensor(word_vectors.matrix.astype(self.dtype),
                                 requires_grad=cfg.finetune_word_vectors)
        cpw = cfg.phoneme_channels // len(cfg.phoneme_widths)
        self.phoneme_cnn = PhonemeCNN(rng, d_p=cfg.phoneme_dim,
                                      widths=cfg.phoneme_widths, channels_per_width=cpw)
        self.combiner = WordCombiner(cfg.combine_mode, rng,
                                     word_dim=cfg.word_dim, phon_dim=cfg.phoneme_channels)
        self.prenet = EncoderPrenet(rng, d_in=cfg.word_dim + cfg.phoneme_channels,
                                    d_model=cfg.d_model, width=cfg.prenet_width)
        self.text_blocks = nn.ModuleList(
            [EncoderBlock(cfg.d_model, cfg.heads, cfg.d_ff, rng, self.drop_rng, cfg.dropout)
             for _ in range(cfg.layers_text)])
        self.mel_prenet = FeedForward(128, cfg.d_model, cfg.d_model, rng)
        self.cross_blocks = nn.ModuleList(
            [CrossModalBlock(cfg.d_model, cfg.heads, cfg.d_ff, rng, self.drop_rng, cfg.dropout)
             for _ in range(cfg.layers_cross)])
        self.fusion_blocks = nn.ModuleList(  # the last one's queries are the cls rows
            [EncoderBlock(cfg.d_model, cfg.heads, cfg.d_ff, rng, self.drop_rng, cfg.dropout,
                          self_attention=i < cfg.layers_fusion - 1)
             for i in range(cfg.layers_fusion)])
        self.head = nn.Linear(cfg.d_model, cfg.num_classes, rng)
        self.cast_parameters(self.dtype)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, input stream and activation: ``cfg.precision``."""
        return np.dtype(self.cfg.precision)

    # -- pieces ------------------------------------------------------------

    def encode_text(self, pack: Pack) -> Tensor:
        """The pack's word stream -> [ΣW, d_model] text encoding.

        The frontend runs once per pack: the phoneme CNN turns the pack's
        phoneme lists, one segment of a [Σphonemes] stream per word, into
        [ΣW, phoneme_channels], and the combiner mixes that with the
        [ΣW, word_dim] word vectors row-wise before the prenet.
        """
        word_emb = ag.embedding_rows(self.word_table, pack.word_ids,
                                     frozen_row=self.word_vectors.pad_id)
        phon_emb = self.phoneme_cnn.embed_word(pack.phonemes)
        x = self.combiner(word_emb, phon_emb)
        x = nn.add_positions(self.prenet(x, pack.words), pack.words)
        for block in self.text_blocks:
            x = block(x, x, pack.words, pack.words)
        return x

    def encode_mel(self, pack: Pack, text_enc: Tensor) -> Tensor:
        """The pack's mel stream (dummy row first in each segment) -> [ΣT, d_model]."""
        x = nn.add_positions(self.mel_prenet(Tensor(pack.mel)), pack.frames)
        for block in self.cross_blocks:
            x = block(x, text_enc, pack.frames, pack.words)
        return x

    # -- whole model -------------------------------------------------------

    def encode(self, pack: Pack) -> Tensor:
        """Everything up to the head: the pack's [N, d] cls rows.

        The last fusion block runs on the cls rows only (see the module
        docstring)."""
        fused = self.encode_mel(pack, self.encode_text(pack))
        *full, last = self.fusion_blocks
        for block in full:
            fused = block(fused, fused, pack.frames, pack.frames)
        return last(ag.getitem(fused, pack.frames.offsets[:-1]), fused,
                    Segments([1] * len(pack.frames)), pack.frames)

    def classify(self, cls: Tensor, encs) -> Tensor:
        """[N, d] cls rows of the utterances ``encs`` -> [N, K] logits."""
        return self.head(cls)

    def forward_utterance(self, enc, pad_words=0, pad_frames=0) -> ForwardTrace:
        """The one forward: every training step, evaluation batch and
        prediction passes through here (the benchmark in ``perfbench/``
        times this method as the model's forward).

        ``enc`` is a whole ``Pack``, whose trace has [N, d] ``cls`` and
        [N, K] ``logits``, or one utterance's encoding (word_ids, phonemes
        as a list per word, and mel, the normalized feature matrix whose
        row 0 is the dummy vector), run as a pack of one whose trace has
        [d] ``cls`` and [K] ``logits``.  The optional extra padding of one
        utterance must not change its logits; a pack carries its own.
        """
        if isinstance(enc, Pack):
            if pad_words or pad_frames:
                raise ShapeError("a pack carries its own padding")
            cls = self.encode(enc)
            return ForwardTrace(cls=cls, logits=self.classify(cls, enc.encs))
        cls = self.encode(Pack([(enc, pad_words, pad_frames)], self.word_vectors.pad_id,
                               self.dtype))
        logits = self.classify(cls, [enc])
        return ForwardTrace(cls=ag.reshape(cls, (-1,)), logits=ag.reshape(logits, (-1,)))

    def forward_batch(self, batch) -> Tensor:
        """``(enc, pad_words, pad_frames)`` rows -> [N, K] logits, as one pack.

        The rows of ``data.batches`` carry no padding; padded rows give the
        same logits up to rounding, since each segment's valid count hides
        its padding."""
        return self.forward_utterance(Pack(batch, self.word_vectors.pad_id, self.dtype)).logits

    def predict_probs(self, enc) -> np.ndarray:
        """Class probabilities for one utterance, in eval mode (no dropout).

        The softmax runs in float64 at any precision, so the probabilities
        sum to 1 within float64 rounding.  The model's train/eval mode is
        restored afterwards.
        """
        was_training = self.training
        self.eval()
        try:
            with ag.no_grad():
                logits = self.forward_utterance(enc).logits.data.astype(np.float64)
            return ag._softmax_last(logits, out=logits)
        finally:
            self.train(was_training)

    def checkpoint_extra(self) -> dict:
        """Header fields that ``restore_model`` needs to rebuild this variant."""
        return {"granularity": "fine"}

    def attention_modules(self):
        return [m for m in self.modules() if isinstance(m, MultiHeadAttention)]


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


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(path, model: nn.Module, cfg: ModelConfig, extra=None):
    """Write config header + named f32 parameter records, little-endian.

    Records are float32 at any precision: exact for a float32 model (the
    default), rounded for a float64 one, whose restore is then float32
    values held in float64.
    """
    header = {"model": asdict(cfg), "extra": extra or {}}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    records = sorted(model.named_parameters())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(records)))
        for name, p in records:
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(p.data.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read a checkpoint -> (ModelConfig, extra dict, {name: float32 array}).

    The arrays are the stored records as they are, with no upcast: each is
    read straight from the file into its own writable array, which
    ``rebuild_model`` makes a float32 model's parameter as it is (and casts
    for any other dtype).  Every read
    is bounds-checked: a short file, a header that is not a UTF-8 JSON
    object with a ``model`` object, or bytes after the last record raise
    FormatError; a repeated or non-finite record raises ValidationError.
    """
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, path)
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        (hlen,) = reader.u32s(1)
        try:
            header = json.loads(reader.take(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
            raise FormatError(f"{path}: unreadable header ({exc})") from None
        if not (isinstance(header, dict) and isinstance(header.get("model"), dict)
                and isinstance(header.get("extra", {}), dict)):
            raise FormatError(
                f"{path}: header needs a 'model' object and an optional 'extra' object")
        cfg, extra = model_config_from_dict(header["model"]), header.get("extra", {})
        (n_records,) = reader.u32s(1)
        params = {}
        for _ in range(n_records):
            (nlen,) = reader.u32s(1)
            try:
                name = reader.take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(
                    f"{path}: parameter name before offset {fh.tell()} is not UTF-8") from None
            (rank,) = reader.u32s(1)
            dims = reader.u32s(rank)
            arr = reader.array(dims, "<f4")
            if name in params:
                raise ValidationError(f"{path}: duplicate parameter record {name!r}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{path}: parameter record {name!r} holds a non-finite value")
            params[name] = arr
        trailing = reader.left()
    if trailing:
        raise FormatError(f"{path}: {trailing} trailing bytes after the last record")
    return cfg, extra, params


def rebuild_model(cfg: ModelConfig, extra: dict, params: dict, word_vectors: WordVectors):
    """The model a loaded checkpoint came from, its parameters restored.

    The header's ``granularity`` picks the variant (fine when absent).  A
    multi-granularity header carries ``builtin_encoder`` and, without a
    built-in encoder, ``utt_dim``; ``freeze_fine`` defaults to False.  Each
    field is type-checked like a config value before it is used.  The model
    is built under ``nn.skip_init``: it draws no initial values, and
    ``load_state_dict`` fills every parameter.  A float32 model adopts the
    records of ``params`` (as ``load_checkpoint`` returns them) as its
    parameters, so the restore holds one copy of each; any other dtype gets
    a cast copy.  Records written before the attention projections were
    fused (``wq``, ``wk`` and ``wv`` per module) are joined into the fused
    layout first.
    """
    origin = "checkpoint header"

    def field(key, default, at_least=None):
        value = _typed(key, extra.get(key, default), type(default), origin)
        if at_least is not None and value < at_least:
            raise ValidationError(f"{origin}: {key} must be >= {at_least}, got {value}")
        return value

    granularity, seed = field("granularity", "fine"), field("seed", 0, at_least=0)
    if granularity not in CHOICES["granularity"]:
        raise ValidationError(f"{origin}: granularity must be one of "
                              f"{', '.join(CHOICES['granularity'])}, got {granularity!r}")
    if granularity == "multi":
        from .fusion import build_fusion_model  # fusion builds on this module
        builtin = field("builtin_encoder", False)
        if not builtin and "utt_dim" not in extra:
            raise FormatError(f"{origin}: a multi-granularity model needs utt_dim")
        utt_dim = None if builtin else field("utt_dim", 0, at_least=1)
        freeze_fine = field("freeze_fine", False)
        with nn.skip_init(cfg.precision):
            model = build_fusion_model(cfg, word_vectors, utt_dim=utt_dim, seed=seed,
                                       freeze_fine=freeze_fine)
        # Older multi checkpoints wrapped a whole fine model: its encoder is
        # stored under ``fine.``, with that model's head, which never ran.
        kept = {name: arr for name, arr in params.items() if not name.startswith("fine.head.")}
        params = {name.removeprefix("fine."): arr for name, arr in kept.items()}
        if len(params) < len(kept):
            raise ValidationError("checkpoint: parameters stored both with and without 'fine.'")
    else:
        with nn.skip_init(cfg.precision):
            model = MultilevelTransformer(cfg, word_vectors, seed=seed)
    model.load_state_dict(_fuse_projection_records(params, dict(model.named_parameters())),
                          adopt=True)
    return model


# each fused attention projection -> the separate projections it replaced, in
# its column order
_FUSED_PROJECTIONS = {"wqvk": ("wq", "wv", "wk"), "wvk": ("wv", "wk")}


def _fuse_projection_records(params, names):
    """``params`` with each module's separate ``wq``/``wv``/``wk`` records
    (of a checkpoint written before the projections were fused) joined
    column-wise into the model's fused record; ``names`` holds the model's
    parameter names.  The key projection had no bias, so a fused bias joins
    the others' only.  A module stored in both layouts is refused."""
    params = dict(params)
    for name in names:
        module, _, leaf = name.rpartition(".")
        owner, dot, projection = module.rpartition(".")
        parts = _FUSED_PROJECTIONS.get(projection, ())
        old = [f"{owner}{dot}{part}.{leaf}" for part in parts
               if not (part == "wk" and leaf == "bias")]
        found = [record for record in old if record in params]
        if found and name in params:
            raise ValidationError(f"checkpoint: {name!r} is stored both fused and as {found[0]!r}")
        if found and len(found) == len(old):
            params[name] = np.concatenate([params.pop(record) for record in old], axis=-1)
    return params


def restore_model(path, word_vectors: WordVectors):
    """Rebuild the model a checkpoint came from -> (model, cfg, extra)."""
    cfg, extra, params = load_checkpoint(path)
    return rebuild_model(cfg, extra, params, word_vectors), cfg, extra
