"""Command-line interface.

Exit codes: 0 on success, 1 with a one-line `error: ...` message on any
validation or runtime failure, 2 for usage mistakes (argparse's default).
Config values resolve as defaults < --config file < explicit flags, and the
resolved document is echoed into the output directory before training.
"""

import argparse
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import nn
from .config import CHOICES, LABELS, resolve_config, run_keys
from .data import (SyntheticSpec, check_coverage, encode_manifest, featurize_manifest,
                   gen_synthetic, parse_manifest)
from .errors import MelformerError, ValidationError
from .fusion import MultiGranularityModel, load_utterance_embeddings
from .harness import build_model, evaluate, kfold_split, run_protocol, write_results, write_table
from .model import load_checkpoint, rebuild_model
from .text import Lexicon, hash_word_vectors, load_word_vectors, tokenize_and_g2p


def _ints(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _bool(text):
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


# how one command-line value of a field of each type is read
_PARSERS = {int: int, float: float, str: str, tuple: _ints, bool: _bool}


def _add_run_flags(p):
    """--config, then one flag per run key (--x/--no-x for booleans)."""
    p.add_argument("--config", help="JSON config file")
    for _, key, kind in run_keys():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, dest=key, type=_PARSERS[kind], choices=CHOICES.get(key))


def _grid_axis(text):
    """``key=v1,v2,...`` over a model or harness field that is not a tuple,
    each value read as that field's flag reads it."""
    key, _, csv = text.partition("=")
    kind = {k: t for section, k, t in run_keys() if section}.get(key)
    if kind in (None, tuple) or not csv:
        raise argparse.ArgumentTypeError(
            f"expected key=v1,v2,... over a model or harness field that is not a list, got {text!r}")
    values = tuple(_PARSERS[kind](v) for v in csv.split(","))
    allowed = CHOICES.get(key, values)
    if any(v not in allowed for v in values):
        raise argparse.ArgumentTypeError(f"{key} must be one of {', '.join(allowed)}, got {text!r}")
    if len(set(values)) < len(values):  # two points would share one directory
        raise argparse.ArgumentTypeError(f"a value repeats in {text!r}")
    return key, values


def _config_and_flags(args):
    """The --config document (or None) and the flags given, shaped like it."""
    file_dict = None
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config not found: {path}")
        try:
            file_dict = json.loads(path.read_bytes().decode("utf-8"))
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: config is not UTF-8 text") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, huge ints, deep nesting
            raise ValidationError(f"{path}: bad JSON ({getattr(exc, 'msg', exc)})") from None
    flags = {"model": {}, "harness": {}}
    for section, key, _ in run_keys():
        if getattr(args, key) is not None:
            (flags[section] if section else flags)[key] = getattr(args, key)
    return file_dict, flags


def _load_manifest(path):
    if not path:
        raise ValidationError("no manifest given; pass --manifest or set it in the config")
    if not Path(path).exists():
        raise ValidationError(f"manifest not found: {path}")
    return parse_manifest(path)


def _load_lexicon(path):
    if not path:
        return Lexicon({})
    if not Path(path).exists():
        raise ValidationError(f"lexicon not found: {path}")
    return Lexicon.load(path)


def _word_vectors_for(path, transcripts, lexicon, word_dim):
    """Word vectors from the file at ``path``, or hashed vectors over the
    transcripts' words when no file is given."""
    if path:
        if not Path(path).exists():
            raise ValidationError(f"word vectors not found: {path}")
        wv = load_word_vectors(path)
        if wv.dim != word_dim:
            raise ValidationError(
                f"word vectors are {wv.dim}-dimensional but the model expects "
                f"word_dim={word_dim}")
        return wv
    vocab = sorted({w for t in transcripts for w in tokenize_and_g2p(t, lexicon).words})
    return hash_word_vectors(vocab, dim=word_dim)


def _utt_table(path):
    """The utterance-embedding file at ``path`` -> (dim, table)."""
    if not Path(path).exists():
        raise ValidationError(f"utterance embeddings not found: {path}")
    return load_utterance_embeddings(path)


def _checkpoint_utt_table(model, path):
    """The utterance table a restored model reads, or None.

    Only a multi-granularity model without a built-in encoder reads one, and
    it needs one; a model with a built-in encoder refuses a file, since it
    would never read it; a fine-grained model ignores ``path``, as ``train``
    does.
    """
    if not isinstance(model, MultiGranularityModel):
        return None
    if model.utt_encoder is not None:
        if path:
            raise ValidationError("this checkpoint encodes utterances with its built-in "
                                  "encoder; it would ignore --utt-embeddings")
        return None
    if not path:
        raise ValidationError("this checkpoint was trained on an utterance-embedding file; "
                              "pass --utt-embeddings")
    return _utt_table(path)[1]


def _load_resources(run_cfg):
    manifest = _load_manifest(run_cfg.manifest)
    lexicon = _load_lexicon(run_cfg.lexicon)
    wv = _word_vectors_for(run_cfg.word_vectors, [r.transcript for r in manifest.records],
                           lexicon, run_cfg.model.word_dim)
    utt_table = utt_dim = None
    if run_cfg.harness.granularity == "multi" and run_cfg.utt_embeddings:
        utt_dim, utt_table = _utt_table(run_cfg.utt_embeddings)
    return manifest, lexicon, wv, utt_table, utt_dim


def _run_resolved(run_cfg, quiet=False):
    """One protocol run.  What can refuse it before its first fold (the
    resources, their encoding, the split, a model build) runs before the
    output directory and its ``config.json`` are written, so a refused run
    writes neither; one that diverges in training keeps its config."""
    manifest, lexicon, wv, utt_table, utt_dim = _load_resources(run_cfg)
    encs = encode_manifest(manifest, lexicon, wv, utt_table=utt_table)
    plans = kfold_split(manifest, seed=run_cfg.harness.seeds[0],
                        group_mode=run_cfg.harness.group_mode)
    with nn.skip_init(run_cfg.model.precision):  # draws nothing
        build_model(run_cfg.model, run_cfg.harness, wv, seed=0, utt_dim=utt_dim)
    out = Path(run_cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(run_cfg.to_json() + "\n")
    results, summary = run_protocol(encs, plans, run_cfg.model, run_cfg.harness,
                                    wv, utt_dim=utt_dim, out_dir=str(out))
    write_results(out, run_cfg, results, summary)
    if not quiet:
        print(f"run {run_cfg.run_id()} -> {out / 'results.json'}")
        print(f"WA {summary['wa']}")
        print(f"UA {summary['ua']}")
    return summary


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_synthetic(args):
    spec = SyntheticSpec(classes=args.classes, per_class=args.per_class,
                         seed=args.seed, utt_dim=args.utt_dim)
    manifest_path = gen_synthetic(spec, args.out)
    print(f"wrote {spec.classes * spec.per_class} utterances, manifest at {manifest_path}")
    return 0


def cmd_featurize(args):
    manifest = _load_manifest(args.manifest)
    new_manifest, written, skipped = featurize_manifest(manifest, args.out_dir)
    print(f"features written: {written}, unchanged: {skipped}")
    print(f"manifest: {new_manifest}")
    return 0


def cmd_train(args):
    _run_resolved(resolve_config(*_config_and_flags(args)))
    return 0


def cmd_sweep(args):
    """One protocol run per point of the grid, first axis outermost; every
    point is resolved and validated before the first one trains."""
    file_dict, flags = _config_and_flags(args)
    grid = dict(args.grid)
    if len(grid) < len(args.grid):
        raise ValidationError("each --grid key may be given once")
    sections = {key: section for section, key, _ in run_keys()}
    points = []
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
        for key, value in point.items():
            flags[sections[key]][key] = value
        cfg = resolve_config(file_dict, flags)
        out = Path(cfg.out_dir)
        cfg.out_dir = str(out / ",".join(f"{k}={v}" for k, v in point.items()))
        points.append((point, cfg))
    rows, doc = [], []
    for point, cfg in points:
        summary = _run_resolved(cfg, quiet=True)
        name = " ".join(f"{k}={v}" for k, v in point.items())
        rows.append((name, summary["wa"], summary["ua"]))
        doc.append({"grid": point, "run_id": cfg.run_id(), "summary": summary})
        print(f"{name}  WA {summary['wa']}  UA {summary['ua']}")
    write_table(out / "table.txt", rows)
    (out / "sweep.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"sweep table -> {out / 'table.txt'}")
    return 0


def _restore(args, transcripts, lexicon):
    """The checkpoint's model, with word vectors for ``transcripts``."""
    if not Path(args.checkpoint).exists():
        raise ValidationError(f"checkpoint not found: {args.checkpoint}")
    cfg, extra, params = load_checkpoint(args.checkpoint)
    wv = _word_vectors_for(args.word_vectors, transcripts, lexicon, cfg.word_dim)
    return rebuild_model(cfg, extra, params, wv), wv


def cmd_eval(args):
    manifest = _load_manifest(args.manifest)
    lexicon = _load_lexicon(args.lexicon)
    model, wv = _restore(args, [r.transcript for r in manifest.records], lexicon)
    utt_table = _checkpoint_utt_table(model, args.utt_embeddings)
    encs = encode_manifest(manifest, lexicon, wv, utt_table=utt_table)
    m = evaluate(model, encs)
    print(f"WA {m.wa:.4f}")
    print(f"UA {m.ua:.4f}")
    for label, recall in zip(LABELS, m.per_class_recall):
        shown = "n/a" if recall is None else f"{recall:.4f}"
        print(f"recall[{label}] {shown}")
    print("confusion (rows true, cols predicted):")
    for row in m.confusion:
        print("  " + " ".join(f"{v:5d}" for v in row))
    return 0


def cmd_predict(args):
    from .audio import featurize_wav
    if not Path(args.wav).exists():
        raise ValidationError(f"wav not found: {args.wav}")
    lexicon = _load_lexicon(args.lexicon)
    model, wv = _restore(args, [args.transcript], lexicon)
    seq = tokenize_and_g2p(args.transcript, lexicon, word_vectors=wv)
    table = _checkpoint_utt_table(model, args.utt_embeddings)
    emb = None
    if table is not None:
        if not args.utt_id:
            raise ValidationError("--utt-id is required with --utt-embeddings")
        check_coverage(table, [args.utt_id])
        emb = table[args.utt_id]
    mel = featurize_wav(args.wav)
    enc = SimpleNamespace(word_ids=seq.word_ids, phonemes=seq.phonemes, mel=mel.frames,
                          utt_embedding=emb)
    probs = model.predict_probs(enc)
    for label, p in zip(LABELS, probs):
        print(f"{label} {p:.4f}")
    print(f"predicted: {LABELS[int(np.argmax(probs))]}")
    return 0


def cmd_gradcheck(args):
    from .verify import run_all
    results = run_all(report=print)
    return 0 if all(ok for _, _, ok in results) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="melformer",
        description="Multimodal speech emotion recognition: feature extraction, "
                    "training protocol, and inference.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a small separable synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", dest="per_class", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utt-dim", dest="utt_dim", type=int, default=32)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("featurize", help="cache feature matrices for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="run the 5-fold protocol over all seeds")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid over config fields, one protocol run per point")
    _add_run_flags(p)
    p.add_argument("--grid", type=_grid_axis, nargs="+", action="extend", required=True,
                   help="axes like: combine_mode=concat,highway layers_fusion=1,2")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--word-vectors", dest="word_vectors")
    p.add_argument("--utt-embeddings", dest="utt_embeddings")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one wav file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--word-vectors", dest="word_vectors")
    p.add_argument("--utt-embeddings", dest="utt_embeddings")
    p.add_argument("--utt-id", dest="utt_id")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and both models")
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MelformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory where a file belongs, no permission, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
