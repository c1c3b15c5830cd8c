"""Gradient verification suite.

Every differentiable op gets an exhaustive central-difference check on a
small tensor; both model variants get a sampled whole-model check through a
real cross-entropy loss.  Everything here runs in float64, whatever the
training precision.  The suite is what `gradcheck` runs from the
command line, and it doubles as the acceptance check for the engine.

Finite differences disagree with subgradients exactly at ReLU kinks, so
whole-model checks first nudge parameters off their zero-init meeting
points (see nudge_off_kinks); that changes nothing about what is verified.
"""

from types import SimpleNamespace

import numpy as np

from . import autograd as ag
from .autograd import Segments, Tensor, gradcheck, gradcheck_sampled
from .config import ModelConfig
from .fusion import build_fusion_model
from .model import MultilevelTransformer
from .text import PHONEME_TO_ID, hash_word_vectors

GRAD_TOL = 1e-4


def nudge_off_kinks(model, seed):
    """Shift parameters to a generic point before finite differences.

    At init, zero biases meet the all-zero dummy mel row exactly at ReLU
    kinks, where central differences legitimately disagree with the
    subgradient convention.  A small offset makes pre-activations generic.
    """
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.uniform(-0.05, 0.05, p.shape)


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _away_from_zero(rng, *shape, gap=0.1):
    data = rng.uniform(gap, 1.0, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(data, requires_grad=True)


def _distinct_columns(rng, rows, cols):
    # max-pool inputs need per-column gaps far wider than the FD step
    data = np.stack([rng.permutation(np.linspace(-1.0, 1.0, rows))
                     for _ in range(cols)], axis=1)
    return Tensor(data, requires_grad=True)


def _weighted(rng, shape):
    w = Tensor(rng.standard_normal(shape))

    def reduce(x):
        return ag.tsum(ag.mul(x, w))

    return reduce


def op_checks(rng):
    """(name, zero-arg callable -> max rel err) for every differentiable op."""
    checks = []

    def check(name, f, xs):
        checks.append((name, lambda f=f, xs=xs: gradcheck(f, xs)))

    r = _weighted(rng, (3, 4))
    check("add", lambda a, b: r(ag.add(a, b)), [_t(rng, 3, 4), _t(rng, 3, 4)])
    check("neg", lambda a: r(ag.neg(a)), [_t(rng, 3, 4)])
    check("mul", lambda a, b: r(ag.mul(a, b)), [_t(rng, 3, 4), _t(rng, 3, 4)])
    rv = _weighted(rng, (3, 2))
    check("matmul", lambda a, b: rv(ag.matmul(a, b)), [_t(rng, 3, 4), _t(rng, 4, 2)])
    # a bias over every output column, and one over the leading two of three
    rv3 = _weighted(rng, (3, 3))
    check("matmul bias",
          lambda a, b, c, d: rv3(ag.add(ag.matmul(a, b, bias=c), ag.matmul(a, b, bias=d))),
          [_t(rng, 3, 4), _t(rng, 4, 3), _t(rng, 3), _t(rng, 2)])
    rt = _weighted(rng, (4, 3))
    check("transpose", lambda a: rt(ag.transpose(a)), [_t(rng, 3, 4)])
    check("reshape", lambda a: r(ag.reshape(a, (3, 4))), [_t(rng, 2, 6)])
    r5 = _weighted(rng, (5,))
    check("getitem row", lambda a: r5(ag.getitem(a, 2)), [_t(rng, 4, 5)])
    r7 = _weighted(rng, (7,))
    check("concat", lambda a, b: r7(ag.concat([a, b], axis=0)),
          [_t(rng, 3), _t(rng, 4)])
    check("stack_rows", lambda a, b, c: r(ag.stack_rows([a, b, c])),
          [_t(rng, 4), _t(rng, 4), _t(rng, 4)])
    check("sum", lambda a: ag.tsum(a), [_t(rng, 3, 4)])
    check("relu", lambda a: r(ag.relu(a)), [_away_from_zero(rng, 3, 4)])
    check("sigmoid", lambda a: r(ag.sigmoid(a)), [_t(rng, 3, 4)])
    # gate logits spread from -4 to 4, on both sides of 0
    check("highway", lambda h, z, u: r(ag.highway(h, z, u)),
          [_t(rng, 3, 4), Tensor(np.linspace(-4.0, 4.0, 12).reshape(3, 4), requires_grad=True),
           _t(rng, 3, 4)])
    check("softmax", lambda a: r(ag.softmax(a)), [_t(rng, 3, 4)])
    gain, bias = _t(rng, 4), _t(rng, 4)
    check("layer_norm", lambda x, g, b: r(ag.layer_norm(x, g, b)),
          [_t(rng, 3, 4), gain, bias])
    check("layer_norm residual", lambda x, g, b, res: r(ag.layer_norm(x, g, b, residual=res)),
          [_t(rng, 3, 4), gain, bias, _t(rng, 3, 4)])
    x_const, gain_const, bias_const = (Tensor(t.data) for t in (_t(rng, 3, 4), gain, bias))
    check("layer_norm residual only",
          lambda res: r(ag.layer_norm(x_const, gain_const, bias_const, residual=res)),
          [_t(rng, 3, 4)])
    rc = _weighted(rng, (5, 4))
    check("conv1d", lambda x, k: rc(ag.conv1d(x, k, Segments([5]))),
          [_t(rng, 5, 3), _t(rng, 3, 3, 4)])
    rcs = _weighted(rng, (7, 4))
    check("conv1d segments", lambda x, k: rcs(ag.conv1d(x, k, Segments([3, 4]))),
          [_t(rng, 7, 3), _t(rng, 3, 3, 4)])
    check("conv1d bias", lambda x, k, b: rcs(ag.conv1d(x, k, Segments([3, 4]), bias=b)),
          [_t(rng, 7, 3), _t(rng, 2, 3, 4), _t(rng, 4)])
    rp = _weighted(rng, (3, 4))
    check("max_pool_time segments", lambda x: rp(ag.max_pool_time(x, Segments([1, 4, 2]))),
          [_distinct_columns(rng, 7, 4)])
    check("cross_entropy", lambda z: ag.cross_entropy(z, [0, 2, 1]), [_t(rng, 3, 4)])
    re = _weighted(rng, (4, 5))
    check("embedding_rows", lambda table: re(ag.embedding_rows(table, [1, 3, 3, 2], frozen_row=0)),
          [_t(rng, 6, 5)])
    rz = _weighted(rng, (5, 4))
    check("zero_rows segments", lambda x: rz(ag.zero_rows(x, Segments([2, 3], valid=[1, 2]))),
          [_t(rng, 5, 4)])
    # a freshly seeded generator per call draws the same mask at every
    # finite-difference point
    check("dropout", lambda x: r(ag.dropout(x, 0.5, np.random.default_rng(7))), [_t(rng, 3, 4)])
    # queries against value | key rows, the keys partly masked
    check("attention masked",
          lambda q, kv: r(ag.attention(q, kv, 2, Segments([3]), Segments([5], valid=[3]))),
          [_t(rng, 3, 4), _t(rng, 5, 8)])
    # self-attention on one fused q | v | k input, passed as both: two
    # segments of unequal length, the first one's keys partly padding
    segs = Segments([3, 4], valid=[2, 4])
    rs = _weighted(rng, (7, 4))
    check("attention segments", lambda x: rs(ag.attention(x, x, 2, segs, segs)),
          [_t(rng, 7, 12)])
    # the last fusion block's pattern: one cls query per segment against
    # all of its keys, and the integer-array gather of those rows
    cls_segs = Segments([1, 1])
    rcls = _weighted(rng, (2, 4))
    check("attention cls queries",
          lambda q, kv: rcls(ag.attention(q, kv, 2, cls_segs, segs)),
          [_t(rng, 2, 4), _t(rng, 7, 8)])
    check("attention dropout 0.5",
          lambda x: rs(ag.attention(x, x, 2, segs, segs, 0.5, np.random.default_rng(7))),
          [_t(rng, 7, 12)])
    rg = _weighted(rng, (3, 5))
    check("getitem rows", lambda a: rg(ag.getitem(a, np.array([0, 3, 5]))), [_t(rng, 7, 5)])
    return checks


def _demo_inputs(rng, word_dim):
    """Word vectors and two utterances of unequal lengths (3 words and 6
    frames, 2 words and 4 frames), so the checks run a real pack."""
    words = ["alpha", "beta", "gamma", "delta", "echo"]
    wv = hash_word_vectors(words, dim=word_dim)
    pool = [PHONEME_TO_ID[p] for p in ("K", "AE", "T", "S", "OW")]
    encs = []
    for n_words, n_frames in ((3, 6), (2, 4)):
        mel = rng.standard_normal((n_frames, 128))
        mel[0] = 0.0
        encs.append(SimpleNamespace(
            word_ids=[wv.lookup(w) for w in words[5 - n_words:]],
            phonemes=[[pool[(i + j) % len(pool)] for j in range(2 + i)] for i in range(n_words)],
            mel=mel,
            utt_embedding=None))
    return wv, encs


def _demo_config():
    # float64: central differences with eps 1e-5 need its resolution to
    # stay under the 1e-4 bound
    return ModelConfig(d_model=16, heads=2, layers_text=1, layers_cross=1,
                       layers_fusion=1, num_classes=4, dropout=0.0, d_ff=32,
                       phoneme_dim=8, phoneme_channels=12, phoneme_widths=(2, 3),
                       word_dim=24, prenet_width=3, precision="float64")


def model_checks(rng):
    """Sampled whole-model checks through a cross-entropy loss."""
    checks = []

    def sampled(model, encs, labels, name):
        nudge_off_kinks(model, seed=5)
        model.eval()
        params = [p for _, p in model.named_parameters()]
        batch = [(enc, 0, 0) for enc in encs]

        def f(*_):
            return ag.cross_entropy(model.forward_batch(batch), labels)

        checks.append((name, lambda: gradcheck_sampled(
            f, params, per_tensor=2, rng=np.random.default_rng(11))))

    cfg = _demo_config()
    wv, encs = _demo_inputs(np.random.default_rng(3), cfg.word_dim)
    sampled(MultilevelTransformer(cfg, wv, seed=1), encs, [2, 0], "transformer end to end")

    wv2, encs2 = _demo_inputs(np.random.default_rng(4), cfg.word_dim)
    for i, enc in enumerate(encs2):
        enc.utt_embedding = np.random.default_rng(6 + i).standard_normal(6)
    sampled(build_fusion_model(cfg, wv2, utt_dim=6, seed=2), encs2, [1, 3],
            "fusion model end to end")
    return checks


def run_all(report=print):
    """Run every check; returns [(name, max_err, ok)]."""
    rng = np.random.default_rng(0)
    results = []
    for name, fn in op_checks(rng) + model_checks(rng):
        err = fn()
        ok = err < GRAD_TOL
        results.append((name, err, ok))
        if report is not None:
            report(f"{'ok  ' if ok else 'FAIL'}  {name:<29} max rel err {err:.2e}")
    return results
