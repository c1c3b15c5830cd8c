"""Output checks that feed ``failed``, and the digest of a run's outputs.

Each check returns a list of problems; an empty list means the output
passed.  A later change can compare digests to show that it left the
program's results unchanged.
"""

import hashlib
import json

import numpy as np

from melformer.model import load_checkpoint

PROB_SUM_TOL = 1e-9


def check_fold(result, plan):
    """A fold's confusion matrix covers its test set and its checkpoint reads back."""
    problems = []
    total = int(np.asarray(result.test.confusion).sum())
    if total != len(plan.test_ids):
        problems.append(f"fold {plan.fold}: confusion sums to {total}, "
                        f"test set has {len(plan.test_ids)}")
    try:
        _, _, params = load_checkpoint(result.checkpoint_path)
    except Exception as exc:  # any failure to read back counts against the fold
        problems.append(f"fold {plan.fold}: checkpoint {result.checkpoint_path} "
                        f"does not read back: {exc!r}")
    else:
        if not params or not all(np.all(np.isfinite(p)) for p in params.values()):
            problems.append(f"fold {plan.fold}: checkpoint has no or non-finite parameters")
    return problems


def check_probs(probs, n_classes):
    """Finite, non-negative class probabilities that sum to one."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (n_classes,):
        return [f"probabilities have shape {p.shape}, expected ({n_classes},)"]
    if not np.all(np.isfinite(p)):
        return ["probabilities are not finite"]
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > PROB_SUM_TOL:
        return [f"probabilities {p.tolist()} are not a distribution"]
    return []


def fold_outputs(results):
    """The parts of a protocol's results that the digest covers."""
    return [{"seed": r.seed, "fold": r.fold,
             "confusion": np.asarray(r.test.confusion).tolist(),
             "dev_history": [float(x) for x in r.dev_history],
             "best_epoch": r.best_epoch, "epochs_run": r.epochs_run}
            for r in results]


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
