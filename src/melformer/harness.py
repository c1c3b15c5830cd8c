"""Training and evaluation protocol.

Five folds rotate over five utterance groups (3 train / 1 dev / 1 test);
each fold trains with Adam under gradient clipping, early-stops on dev
weighted accuracy, and reports test metrics from the best epoch's weights;
a numeric failure in training stops the fold with ``TrainingDiverged``.
The whole protocol repeats over seeds and reports mean and population
standard deviation.  Fold jobs are self-contained and can run in worker
processes; only finished metrics cross process boundaries.
"""

import json
import math
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .config import HarnessConfig, LABELS, ModelConfig, RunConfig
from .data import batches
from .errors import (ContractError, NumericError, ShapeError, TrainingDiverged,
                     ValidationError)
from .model import build_variant, save_checkpoint
from .text import WordVectors


BLOCK = 1 << 15  # elements per block of the Adam walk: 128 KB per f32 operand, 256 KB per f64


class Adam:
    """Bias-corrected Adam over named parameters held in one flat arena.

    The update is theta -= lr * mhat / (sqrt(vhat) + eps), computed in
    Kingma & Ba's order (arXiv:1412.6980, section 2): with the step size
    a_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t), theta -= a_t * m /
    (sqrt(v) + eps * sqrt(1 - beta2^t)), the same in real arithmetic with no
    bias-correction pass over the moments.  The constructor
    copies the parameters, in the order given, into one contiguous arena of
    their dtype (float32 or float64; they must share one) and rebinds each
    ``p.data`` to a reshaped view of its segment; the moments ``m`` and
    ``v`` and the scratch blocks are flat arrays of the same dtype, so the
    whole step runs in the parameters' precision.

    ``step`` walks the arena in blocks of ``BLOCK`` elements.  It gathers a
    block's gradients into a scratch array and runs the update as in-place
    ufuncs into that and one more block-sized scratch, in the order of the
    plain expression, so the result is the same bit for bit.  Blocking pays
    because a block of every operand (gradient, both moments, parameters,
    scratch) fits in L2 together: each array streams through memory once
    per step, where whole-tensor expressions stream it several times and
    allocate a full-size temporary for every intermediate.

    Every parameter needs a gradient at every step, and every gradient must
    be finite: ``step`` does not look at the values, and a non-finite one
    would poison the moments.  ``train_epochs`` checks the pre-clip norm
    before each step.  Once handed to the optimizer, parameters must be
    changed in place (``p.data[...] = x``): ``step`` refuses one whose
    ``data`` is no longer its arena view, since it would silently stop
    training.  It also refuses a missing gradient, or one of another shape
    or dtype than its parameter, before any block is updated.
    """

    def __init__(self, named_params, lr=1e-5, beta1=0.9, beta2=0.999, eps=1e-8):
        self.items = [(name, p) for name, p in named_params]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.offsets = [0]
        for _, p in self.items:
            self.offsets.append(self.offsets[-1] + p.data.size)
        n = self.offsets[-1]
        dtypes = {p.data.dtype for _, p in self.items}
        if len(dtypes) > 1:
            raise ContractError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        self.arena = np.empty(n, dtype=dtype)
        self.views = []
        for (_, p), lo, hi in zip(self.items, self.offsets, self.offsets[1:]):
            self.arena[lo:hi] = p.data.reshape(-1)
            p.data = self.arena[lo:hi].reshape(p.data.shape)
            self.views.append(p.data)
        self.m = np.zeros(n, dtype=dtype)
        self.v = np.zeros(n, dtype=dtype)
        self._g = np.empty(min(n, BLOCK), dtype=dtype)
        self._s = np.empty(min(n, BLOCK), dtype=dtype)

    def step(self):
        grads = []
        for (name, p), view in zip(self.items, self.views):
            if p.data is not view:
                raise ContractError(
                    f"parameter {name} no longer views the optimizer's arena; "
                    "update parameters in place (p.data[...] = x)")
            if p.grad is None:
                raise ContractError(f"parameter {name} has no gradient: it was not in "
                                    "the graph of the last backward")
            if p.grad.shape != view.shape:
                raise ShapeError(f"parameter {name}: gradient {p.grad.shape} vs {view.shape}")
            if p.grad.dtype != view.dtype:
                # the block gather would cast it silently
                raise ContractError(f"parameter {name}: gradient {p.grad.dtype} vs {view.dtype}")
            grads.append(p.grad)
        self.t += 1
        root_b2c = math.sqrt(1.0 - self.beta2 ** self.t)
        step = self.lr * root_b2c / (1.0 - self.beta1 ** self.t)
        eps = self.eps * root_b2c
        for lo, k in self._gather(grads):
            g, s = self._g[:k], self._s[:k]
            m, v, p = self.m[lo:lo + k], self.v[lo:lo + k], self.arena[lo:lo + k]
            np.multiply(g, 1.0 - self.beta1, out=s)
            m *= self.beta1
            m += s
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v *= self.beta2
            v += s
            np.sqrt(v, out=g)  # the gradient is spent: g takes the denominator
            g += eps
            np.multiply(m, step, out=s)
            s /= g
            p -= s

    def _gather(self, grads):
        """Copy the gradients into the scratch ``_g`` block by block.  Yields
        (arena offset, length) for each block; the blocks tile the arena."""
        lo = fill = 0
        for g in grads:
            flat = g.reshape(-1)
            pos = 0
            while pos < flat.size:
                k = min(BLOCK - fill, flat.size - pos)
                self._g[fill:fill + k] = flat[pos:pos + k]
                fill += k
                pos += k
                if fill == BLOCK:
                    yield lo, fill
                    lo, fill = lo + fill, 0
        if fill:
            yield lo, fill


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm;
    returns the norm before clipping.

    Each gradient's squared norm is one dot product in its own dtype,
    summed as a Python float.  A huge finite gradient (past about 1.8e19 in
    float32, 1.3e154 in float64) overflows that sum to inf, which would
    scale every gradient to zero; an inf sum is redone scaled, as max|g| *
    ||g / max|g|||, so the norm is non-finite only when an entry is (or the
    norm passes float64's max).  A non-finite norm scales nothing, and a
    parameter with no gradient is refused before anything is scaled.
    """
    grads = [p.grad for p in params]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ContractError(f"parameter {i} of params (shape {p.data.shape}) has no "
                                "gradient: it was not in the graph of the last backward")
    flats = [g.reshape(-1) for g in grads]
    with np.errstate(over="ignore"):
        norm = sum(float(np.dot(f, f)) for f in flats) ** 0.5
    if norm == math.inf:
        big = max(float(np.abs(f).max(initial=0.0)) for f in flats)
        if big < math.inf:
            norm = big * math.sqrt(sum(float(np.dot(f / big, f / big)) for f in flats))
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# splitting

@dataclass
class FoldPlan:
    fold: int
    train_ids: list
    dev_ids: list
    test_ids: list


def _session_groups(records):
    groups = {}
    for r in records:
        groups.setdefault(r.session, []).append(r.id)
    # pack sessions into exactly 5 buckets, largest session first, always
    # into the currently smallest bucket; deterministic via (-size, name)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    buckets = [[] for _ in range(5)]
    for _, ids in ordered:
        smallest = min(range(5), key=lambda b: (len(buckets[b]), b))
        buckets[smallest].extend(ids)
    return buckets


def _stratified_random_groups(records, seed):
    rng = np.random.default_rng(seed)
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.id)
    buckets = [[] for _ in range(5)]
    for label in sorted(by_label):
        ids = sorted(by_label[label])
        rng.shuffle(ids)
        for i, utt_id in enumerate(ids):
            buckets[i % 5].append(utt_id)
    return buckets


def kfold_split(manifest, seed=0, group_mode="auto"):
    """Five rotated 3/1/1 fold plans over five utterance groups.

    Groups come from session metadata when every record carries it (more
    than five sessions are packed into five balanced buckets); otherwise
    label-stratified random groups are drawn from the seed.
    """
    records = manifest.records
    if group_mode == "auto":
        group_mode = "session" if manifest.has_sessions else "random"
    if group_mode == "session":
        if not manifest.has_sessions:
            raise ValidationError(
                "records lack session metadata; rerun with random grouping "
                "(group_mode=random)")
        sessions = {r.session for r in records}
        if len(sessions) < 5:
            raise ValidationError(
                f"only {len(sessions)} sessions, need 5 groups; rerun with "
                "random grouping (group_mode=random)")
        groups = _session_groups(records)
    else:
        groups = _stratified_random_groups(records, seed)
    if any(len(g) == 0 for g in groups):
        raise ValidationError("a fold group came out empty; dataset too small for 5 folds")

    plans = []
    for i in range(5):
        train = groups[i % 5] + groups[(i + 1) % 5] + groups[(i + 2) % 5]
        plans.append(FoldPlan(fold=i, train_ids=list(train),
                              dev_ids=list(groups[(i + 3) % 5]),
                              test_ids=list(groups[(i + 4) % 5])))
    return plans


# ---------------------------------------------------------------------------
# metrics

@dataclass
class FoldMetrics:
    wa: float
    ua: float
    per_class_recall: list
    confusion: np.ndarray


def metrics_from_confusion(confusion) -> FoldMetrics:
    """WA is overall accuracy; UA averages recall over classes with support."""
    conf = np.asarray(confusion, dtype=np.int64)
    total = conf.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    support = conf.sum(axis=1)
    recalls = [conf[k, k] / support[k] if support[k] else None
               for k in range(conf.shape[0])]
    present = [r for r in recalls if r is not None]
    return FoldMetrics(
        wa=float(np.trace(conf)) / float(total),
        ua=float(np.mean(present)),
        per_class_recall=recalls,
        confusion=conf)


def evaluate(model, encs, batch_size=HarnessConfig.batch_size) -> FoldMetrics:
    """Argmax predictions over an evaluation set, run in unshuffled batches
    of ``batch_size``; ties break to the first class.  Every label must be
    one of the model's classes."""
    if not encs:
        raise ValidationError("evaluation set is empty")
    k = model.head.n_out
    for enc in encs:
        if not 0 <= enc.label < k:
            raise ValidationError(
                f"utterance {enc.id!r} has label {enc.label}, but the model has {k} classes")
    was_training = model.training
    model.eval()
    conf = np.zeros((k, k), dtype=np.int64)
    try:
        with ag.no_grad():
            for i in range(0, len(encs), batch_size):
                batch = [(enc, 0, 0) for enc in encs[i:i + batch_size]]
                predicted = np.argmax(model.forward_batch(batch).data, axis=1)
                np.add.at(conf, ([enc.label for enc, _, _ in batch], predicted), 1)
    finally:
        if was_training:
            model.train()
    return metrics_from_confusion(conf)


# ---------------------------------------------------------------------------
# training one fold

@dataclass
class TrainResult:
    fold: int
    seed: int
    test: FoldMetrics
    dev_history: list
    best_epoch: int
    epochs_run: int
    checkpoint_path: str = None


def build_model(model_cfg: ModelConfig, hcfg: HarnessConfig, word_vectors: WordVectors,
                seed: int, utt_dim=None):
    return build_variant(model_cfg, word_vectors, hcfg.granularity, seed, utt_dim,
                         hcfg.freeze_fine)


def train_epochs(model, train_encs, dev_encs, hcfg: HarnessConfig, seed,
                 out_dir=None, tag="model"):
    """Epoch loop with early stopping on dev WA; returns (best_state,
    dev_history, best_epoch, epochs_run, checkpoint_path).

    A non-finite loss, a non-finite pre-clip gradient norm (checked before
    ``opt.step()``, so no parameter moves) and a ``NumericError`` from
    forward, backward or the dev evaluation take one path: the best state is
    restored and saved, and one ``TrainingDiverged`` names the epoch, step
    and cause.  Epochs run under ``np.errstate(all="ignore")``, so a
    divergence prints no numpy warning.
    """
    shuffle_rng = np.random.default_rng(seed)
    opt = Adam(model.trainable_named_parameters(), lr=hcfg.lr)
    trainable = [p for _, p in opt.items]
    best_wa = -1.0
    best_state = model.state_dict()
    best_epoch = 0
    since_best = 0
    history = []
    ckpt_path = None
    last_loss = last_norm = None  # of the last step that finished

    def checkpoint():
        """Leave the model holding ``best_state``, and save it under out_dir."""
        nonlocal ckpt_path
        model.load_state_dict(best_state)
        if out_dir is not None:
            path = Path(out_dir) / f"{tag}-best.ckpt"
            extra = {"seed": seed, "best_epoch": best_epoch, **model.checkpoint_extra()}
            save_checkpoint(path, model, model.cfg, extra=extra)
            ckpt_path = str(path)

    for epoch in range(1, hcfg.max_epochs + 1):
        model.train()
        try:
            with np.errstate(all="ignore"):
                for step, batch in enumerate(batches(train_encs, hcfg.batch_size,
                                                     rng=shuffle_rng), 1):
                    where = f"step {step}"
                    loss = ag.cross_entropy(model.forward_batch(batch),
                                            [e.label for e, _, _ in batch])
                    if not np.isfinite(loss.data):
                        raise NumericError(f"loss became {loss.data}")
                    ag.backward(loss)
                    norm = clip_gradients(trainable, hcfg.clip_norm)
                    if not math.isfinite(norm):  # name the first non-finite gradient
                        bad = [name for name, p in opt.items if not np.isfinite(p.grad).all()]
                        raise NumericError(f"non-finite gradient in parameter {bad[0]}" if bad
                                           else f"pre-clip gradient norm {norm}")
                    opt.step()
                    last_loss, last_norm = float(loss.data), norm
                where = "dev evaluation"
                dev_wa = evaluate(model, dev_encs, hcfg.batch_size).wa
        except NumericError as exc:
            checkpoint()
            raise TrainingDiverged(
                f"training diverged in epoch {epoch}, {where}: {exc}; "
                f"last finite loss: {_or_none(last_loss)}, "
                f"its pre-clip gradient norm: {_or_none(last_norm)}; "
                f"best checkpoint: {ckpt_path or 'none saved'}") from exc
        history.append(dev_wa)
        if dev_wa > best_wa:
            best_wa = dev_wa
            best_state = model.state_dict()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > hcfg.patience:
                break

    checkpoint()
    return best_state, history, best_epoch, len(history), ckpt_path


def _or_none(value):
    return "none" if value is None else f"{value:.6g}"


def train_fold(plan: FoldPlan, encs_by_id, model_cfg: ModelConfig, hcfg: HarnessConfig,
               word_vectors: WordVectors, seed=0, utt_dim=None, out_dir=None) -> TrainResult:
    model = build_model(model_cfg, hcfg, word_vectors, seed=100000 * seed + plan.fold,
                        utt_dim=utt_dim)
    train_encs = [encs_by_id[i] for i in plan.train_ids]
    dev_encs = [encs_by_id[i] for i in plan.dev_ids]
    test_encs = [encs_by_id[i] for i in plan.test_ids]
    _, history, best_epoch, epochs_run, ckpt = train_epochs(
        model, train_encs, dev_encs, hcfg, seed=100000 * seed + plan.fold,
        out_dir=out_dir, tag=f"seed{seed}-fold{plan.fold}")
    test = evaluate(model, test_encs, hcfg.batch_size)
    return TrainResult(fold=plan.fold, seed=seed, test=test, dev_history=history,
                       best_epoch=best_epoch, epochs_run=epochs_run,
                       checkpoint_path=ckpt)


# ---------------------------------------------------------------------------
# protocol over folds and seeds

def _run_job(args):
    plan, encs_by_id, model_cfg, hcfg, word_vectors, seed, utt_dim, out_dir = args
    return train_fold(plan, encs_by_id, model_cfg, hcfg, word_vectors,
                      seed=seed, utt_dim=utt_dim, out_dir=out_dir)


def run_protocol(encs, plans, model_cfg: ModelConfig, hcfg: HarnessConfig,
                 word_vectors: WordVectors, utt_dim=None, out_dir=None):
    """All folds for every seed; returns (results list, summary dict).  With
    workers, a job goes to the pool only when a worker is free and no job has
    raised, since the pool starts every job it holds; the error raised is the
    first in job order, as in a serial run."""
    encs_by_id = {e.id: e for e in encs}
    jobs = [(plan, encs_by_id, model_cfg, hcfg, word_vectors, seed, utt_dim, out_dir)
            for seed in hcfg.seeds for plan in plans]
    if hcfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=hcfg.workers) as pool:
            futures, running = [], set()
            for job in jobs:
                if len(running) == hcfg.workers:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    if any(f.exception() is not None for f in done):
                        break
                futures.append(pool.submit(_run_job, job))
                running.add(futures[-1])
            results = [f.result() for f in futures]
    else:
        results = [_run_job(j) for j in jobs]
    return results, summarize(results, hcfg.seeds)


def format_mean_std(mean, std):
    return f"{mean:.3f} ± {std:.3f}"


def summarize(results, seeds):
    """Per-seed fold means, then mean and population std over seeds."""
    per_seed = []
    for seed in seeds:
        rs = [r for r in results if r.seed == seed]
        per_seed.append({"seed": seed,
                         "wa": float(np.mean([r.test.wa for r in rs])),
                         "ua": float(np.mean([r.test.ua for r in rs]))})
    wa = np.asarray([s["wa"] for s in per_seed])
    ua = np.asarray([s["ua"] for s in per_seed])
    return {
        "per_seed": per_seed,
        "wa_mean": float(wa.mean()), "wa_std": float(wa.std()),
        "ua_mean": float(ua.mean()), "ua_std": float(ua.std()),
        "wa": format_mean_std(wa.mean(), wa.std()),
        "ua": format_mean_std(ua.mean(), ua.std()),
    }


def write_results(out_dir, run_cfg: RunConfig, results, summary):
    """results.json plus a plain-text table row for the run, named after its
    granularity, layer counts and run id."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "run_id": run_cfg.run_id(),
        "config": run_cfg.to_dict(),
        "labels": list(LABELS),
        "folds": [{
            "seed": r.seed, "fold": r.fold,
            "wa": r.test.wa, "ua": r.test.ua,
            "per_class_recall": r.test.per_class_recall,
            "confusion": r.test.confusion.tolist(),
            "dev_history": r.dev_history,
            "best_epoch": r.best_epoch,
            "epochs_run": r.epochs_run,
        } for r in results],
        "summary": summary,
    }
    (out / "results.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    m = run_cfg.model
    row_name = (f"{run_cfg.harness.granularity} ({m.layers_text}|{m.layers_cross}|"
                f"{m.layers_fusion}) {run_cfg.run_id()}")
    write_table(out / "table.txt", [(row_name, summary["wa"], summary["ua"])])
    return out / "results.json"


def write_table(path, rows):
    """Aligned model/WA/UA rows, stable order as given."""
    name_w = max(len("model"), *(len(r[0]) for r in rows))
    lines = [f"{'model'.ljust(name_w)}  {'WA'.ljust(13)}  UA"]
    for name, wa, ua in rows:
        lines.append(f"{name.ljust(name_w)}  {wa.ljust(13)}  {ua}")
    Path(path).write_text("\n".join(lines) + "\n")
