"""Multi-granularity late fusion.

The fine-grained transformer's class vector is combined with a pre-trained
utterance-level embedding: each side is projected to a common width, the
projections are concatenated, and an affine head emits logits.  Utterance
embeddings normally come from a file (provider-agnostic); a small built-in
mean-pool encoder exists so end-to-end runs need no external artifacts.

The model is a ``model.MultilevelTransformer`` whose fused head replaces
the fine one: it shares the encoder and the forward, and overrides only
``classify``.  ``model.restore_model`` rebuilds it from a checkpoint.
"""

import numpy as np

from . import autograd as ag
from . import nn
from .autograd import Tensor
from .config import ModelConfig
from .errors import FormatError, ValidationError
from .model import MultilevelTransformer, restore_model
from .text import WordVectors, float_row, table_rows, utf8_lines

UEMB_MAGIC = "UEMB"


def load_utterance_embeddings(path):
    """Parse a `UEMB <dim>` header plus `<id> <floats>` lines -> (dim, {id: vector})."""
    lines = utf8_lines(path)
    _, first = next(lines, (1, ""))
    header = first.split()
    if len(header) != 2 or header[0] != UEMB_MAGIC:
        raise FormatError(f"{path}: first line must be '{UEMB_MAGIC} <dim>'")
    try:
        dim = int(header[1])
    except ValueError:
        raise FormatError(f"{path}: bad dimension {header[1]!r} in header") from None
    if dim < 1:
        raise FormatError(f"{path}: dimension must be positive, got {dim}")
    return dim, {utt_id: float_row(path, lineno, utt_id, fields, dim)
                 for lineno, utt_id, fields in table_rows(path, "utterance id", lines=lines)}


class MeanPoolUtteranceEncoder(nn.Module):
    """Trainable stand-in for a pre-trained sentence encoder.

    Mean of each utterance's word vectors through one affine layer.  Used
    when no embedding file is supplied, so multi-granularity runs stay
    self-contained.
    """

    def __init__(self, word_vectors: WordVectors, d_out, rng):
        super().__init__()
        self.word_vectors = word_vectors
        self.proj = nn.Linear(word_vectors.dim, d_out, rng)

    def __call__(self, encs) -> Tensor:
        """N utterances -> [N, d_out], one row each, in the projection's dtype."""
        means = [self.word_vectors.matrix[np.asarray(enc.word_ids, dtype=np.int64)].mean(axis=0)
                 for enc in encs]
        return self.proj(Tensor(np.stack(means).astype(self.proj.weight.data.dtype)))


class MultiGranularityModel(MultilevelTransformer):
    """Fine-grained transformer + utterance embedding, fused before the head.

    ``utt_dim`` is the embedding width D_u.  ``utt_encoder`` (optional)
    computes embeddings on the fly; otherwise callers pass vectors fetched
    from a file.  The fused ``head`` takes the place of the fine model's,
    which the base constructor draws last, so every encoder parameter
    starts as in a fine model of the same seed; ``freeze_fine`` makes them
    constants, so only the utterance encoder, projections and head train.
    """

    def __init__(self, cfg: ModelConfig, word_vectors: WordVectors, utt_dim, seed=0,
                 utt_encoder: MeanPoolUtteranceEncoder = None, freeze_fine=False):
        super().__init__(cfg, word_vectors, seed=seed)
        if freeze_fine:
            for p in self.parameters():
                p.requires_grad = False
        rng = np.random.default_rng(seed + 17)
        self.utt_dim = utt_dim
        self.freeze_fine = freeze_fine
        self.utt_encoder = utt_encoder
        self.proj_fine = nn.Linear(cfg.d_model, cfg.d_fuse, rng)
        self.proj_utt = nn.Linear(utt_dim, cfg.d_fuse, rng)
        self.head = nn.Linear(2 * cfg.d_fuse, cfg.num_classes, rng)
        self.cast_parameters(self.dtype)

    def utt_vector(self, encs) -> Tensor:
        """[N, utt_dim] utterance embeddings in the model's dtype: each enc's
        own (from a file) when every enc carries one, else the built-in
        encoder's."""
        given = [getattr(enc, "utt_embedding", None) for enc in encs]
        if all(vec is not None for vec in given):
            rows = [np.asarray(vec, dtype=self.dtype) for vec in given]
            for vec in rows:
                if vec.shape != (self.utt_dim,):
                    raise ValidationError(
                        f"utterance embedding has shape {vec.shape}, expected ({self.utt_dim},)")
            return Tensor(np.stack(rows))
        if any(vec is not None for vec in given):
            raise ValidationError("a batch mixes utterances with and without embeddings")
        if self.utt_encoder is not None:
            return self.utt_encoder(encs)
        raise ValidationError("no utterance embedding available: supply a file or an encoder")

    def classify(self, cls: Tensor, encs) -> Tensor:
        """[N, d] cls rows and the utterances' embeddings -> [N, K] logits."""
        both = ag.concat([self.proj_fine(cls), self.proj_utt(self.utt_vector(encs))], axis=1)
        return self.head(both)

    def checkpoint_extra(self) -> dict:
        return {"granularity": "multi", "utt_dim": self.utt_dim,
                "builtin_encoder": self.utt_encoder is not None,
                "freeze_fine": self.freeze_fine}


def build_fusion_model(cfg, word_vectors, utt_dim=None, seed=0, freeze_fine=False):
    """The multi-granularity model; a mean-pool encoder fills in when no
    embedding file provides vectors (utt_dim defaults to the word width)."""
    encoder = None
    if utt_dim is None:
        utt_dim = word_vectors.dim
        encoder = MeanPoolUtteranceEncoder(word_vectors, utt_dim, np.random.default_rng(seed + 23))
    return MultiGranularityModel(cfg, word_vectors, utt_dim, seed=seed, utt_encoder=encoder,
                                 freeze_fine=freeze_fine)


# The benchmark in perfbench/ imports and traces this name; it can go at the
# next change to the benchmark.
restore_fusion_model = restore_model
