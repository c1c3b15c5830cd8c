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

    ``utt_dim`` is the width D_u of embeddings callers fetch from a file;
    without it, a built-in encoder computes them, D_u being the word width,
    and a file's vectors are never read, so the encoder trains every step.
    The fused ``head`` replaces the fine one, drawn last, so the encoder
    starts as a same-seed fine model's; ``freeze_fine`` makes its parameters
    constants, so only the utterance encoder, projections and head train.
    """

    def __init__(self, cfg: ModelConfig, word_vectors: WordVectors, utt_dim=None, seed=0,
                 freeze_fine=False):
        super().__init__(cfg, word_vectors, seed=seed)
        if freeze_fine:
            for p in self.parameters():
                p.requires_grad = False
        rng = np.random.default_rng(seed + 17)
        self.utt_dim = word_vectors.dim if utt_dim is None else utt_dim
        self.freeze_fine = freeze_fine
        with nn.build_in(self.dtype):
            self.utt_encoder = None if utt_dim is not None else MeanPoolUtteranceEncoder(
                word_vectors, self.utt_dim, np.random.default_rng(seed + 23))
            self.proj_fine = nn.Linear(cfg.d_model, cfg.d_fuse, rng)
            self.proj_utt = nn.Linear(self.utt_dim, cfg.d_fuse, rng)
            self.head = nn.Linear(2 * cfg.d_fuse, cfg.num_classes, rng)

    def utt_vector(self, encs) -> Tensor:
        """[N, utt_dim] utterance embeddings in the model's dtype, from the
        variant's one source: the built-in encoder, which ignores any vector
        an enc carries, or else each enc's own (from a file)."""
        if self.utt_encoder is not None:
            return self.utt_encoder(encs)
        given = [getattr(enc, "utt_embedding", None) for enc in encs]
        for i, vec in enumerate(given):
            if vec is None or np.shape(vec) != (self.utt_dim,):
                raise ValidationError(
                    f"utterance {i} of the batch needs an embedding of shape ({self.utt_dim},), "
                    f"got {'none' if vec is None else np.shape(vec)}")
        return Tensor(np.stack([np.asarray(vec, dtype=self.dtype) for vec in given]))

    def classify(self, cls: Tensor, encs) -> Tensor:
        """[N, d] cls rows and the utterances' embeddings -> [N, K] logits."""
        both = ag.concat([self.proj_fine(cls), self.proj_utt(self.utt_vector(encs))], axis=1)
        return self.head(both)

    def checkpoint_extra(self) -> dict:
        return {"granularity": "multi", "utt_dim": self.utt_dim,
                "builtin_encoder": self.utt_encoder is not None,
                "freeze_fine": self.freeze_fine}


# The benchmark in perfbench/ imports and traces this name; it can go at the
# next change to the benchmark.
restore_fusion_model = restore_model
