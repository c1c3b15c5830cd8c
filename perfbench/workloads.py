"""The three workloads, driven only through the program's public functions.

* ``train-quick`` and ``train-paper-long`` time ``harness.run_protocol``
  itself, one whole serial 5-fold protocol per unit, repeated while another
  unit fits in the run.
* ``infer-long`` sends predict requests, composed as ``melformer predict``
  composes them, to a paper-default checkpoint restored in set-up: one
  client in a closed loop, over whole passes of the corpus.

Every workload reports predict latency.  On train-* the requests go to a
checkpoint of the workload's own model, in two blocks: one before training
and one after it.  Two windows far apart average over more of the machine's
slow and fast spells than one window of the same total length.

Set-up (timed, repeated) is what a user pays before the first timed
operation: a cold ``featurize_manifest`` into an empty cache,
``encode_manifest`` and ``kfold_split``, plus ``restore_model`` on
infer-long.
"""

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import corpus
from melformer import audio, data, fusion, harness, model, text
from melformer.config import HarnessConfig, ModelConfig

LEXICON = text.Lexicon({})   # no lexicon file: every word is spelled out
SETUP_REPS = 21             # the first one or two are warm-up; the median is not
MIN_CYCLES = 3              # passes over the corpus: at least 120 requests, 12 beyond p90


@dataclass
class Workload:
    corpus: str
    model: ModelConfig
    harness: HarnessConfig = None   # None: inference only


WORKLOADS = {
    # the quick-start model; patience >= max_epochs, so the work is fixed
    "train-quick": Workload("quick", ModelConfig(
        d_model=16, heads=2, layers_text=1, layers_cross=1, layers_fusion=1,
        d_ff=32, dropout=0.0), HarnessConfig(
        lr=3e-3, batch_size=4, max_epochs=1, patience=1, seeds=(0,), workers=1)),
    "train-paper-long": Workload("long", ModelConfig(), HarnessConfig(
        batch_size=4, max_epochs=1, patience=1, seeds=(0,), workers=1,
        granularity="multi")),
    "infer-long": Workload("long", ModelConfig()),
}


def word_vectors(manifest, dim):
    """Hashed word vectors over the manifest's vocabulary, as ``melformer
    train`` builds them when no word-vector file is given."""
    vocab = sorted({w for r in manifest.records
                    for w in text.tokenize_and_g2p(r.transcript, LEXICON).words})
    return text.hash_word_vectors(vocab, dim=dim)


def restore(path, wv):
    """Dispatch on the checkpoint's granularity, as ``melformer predict`` does."""
    _, extra, _ = model.load_checkpoint(path)
    if extra.get("granularity") == "multi":
        return fusion.restore_fusion_model(path, wv)[0]
    return model.restore_model(path, wv)[0]


def predict_request(net, wv, wav, transcript):
    """One ``predict``: WAV + transcript -> class probabilities."""
    mel = audio.featurize_wav(wav)
    seq = text.tokenize_and_g2p(transcript, LEXICON)
    enc = SimpleNamespace(word_ids=[wv.lookup(w) for w in seq.words],
                          phonemes=seq.phonemes, mel=mel.frames, utt_embedding=None)
    return net.predict_probs(enc)


class Bench:
    def __init__(self, name, seed, seconds, work_dir, tracer=None):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = Path(work_dir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}
        self.fold_outputs = None

    # -- inputs and set-up -------------------------------------------------

    def prepare(self):
        """Generate the inputs and a checkpoint from the seed; nothing here is timed."""
        self.raw_manifest = corpus.generate(self.w.corpus, self.seed, self.work / "corpus")
        self.requests = data.parse_manifest(self.raw_manifest)
        wv = word_vectors(self.requests, self.w.model.word_dim)
        hcfg = self.w.harness or HarnessConfig()
        net = harness.build_model(self.w.model, hcfg, wv, seed=self.seed)
        # the header fields restore needs, as the harness writes them
        extra = {"seed": self.seed, "granularity": hcfg.granularity}
        if hcfg.granularity == "multi":
            extra.update(utt_dim=net.utt_dim, builtin_encoder=net.utt_encoder is not None)
        self.checkpoint = self.work / "model.ckpt"
        model.save_checkpoint(self.checkpoint, net, self.w.model, extra=extra)

    def set_up(self, rep):
        manifest = data.parse_manifest(self.raw_manifest)
        feats, _, _ = data.featurize_manifest(manifest, self.work / f"feats{rep}")
        manifest = data.parse_manifest(feats)
        wv = word_vectors(manifest, self.w.model.word_dim)
        encs = data.encode_manifest(manifest, LEXICON, wv)
        hcfg = self.w.harness or HarnessConfig()
        plans = harness.kfold_split(manifest, seed=hcfg.seeds[0], group_mode=hcfg.group_mode)
        net = None if self.w.harness else restore(self.checkpoint, wv)
        return SimpleNamespace(wv=wv, encs=encs, plans=plans, net=net)

    def timed_set_up(self):
        times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.state = self.set_up(rep)
            times.append(time.perf_counter() - t0)
        self.inputs = corpus.describe(self.state.encs)
        return statistics.median(times)

    # -- timed work --------------------------------------------------------

    def run_units(self, seconds, unit, min_units=1):
        """Repeat a unit while another one still fits in ``seconds``; returns
        the unit records."""
        units = []
        t_start = time.perf_counter()
        while True:
            units.append(unit(len(units)))
            last = units[-1]["wall_s"]
            if last is None:
                return units
            if len(units) >= min_units and time.perf_counter() - t_start + last > seconds:
                return units

    def train_unit(self, k):
        st = self.state
        out = self.work / f"unit{k}"
        out.mkdir(parents=True, exist_ok=True)
        self.attempted += len(st.plans)
        t0 = time.perf_counter()
        try:
            results, _ = harness.run_protocol(st.encs, st.plans, self.w.model, self.w.harness,
                                              st.wv, utt_dim=None, out_dir=str(out))
        except Exception:   # counted and reported; the run still prints a result
            self._fail(len(st.plans), f"protocol run {k} raised:\n{traceback.format_exc()}")
            return {"wall_s": None}
        wall = time.perf_counter() - t0
        if self.tracer and self.tracer.installed:
            self.tracer.counts["protocol_runs"] += 1
        plans = {p.fold: p for p in st.plans}
        bad = 0
        for r in results:
            problems = checks.check_fold(r, plans[r.fold])
            bad += bool(problems)
            self.problems += problems
        outputs = checks.fold_outputs(results)
        if self.fold_outputs is None:
            self.fold_outputs = outputs
        elif outputs != self.fold_outputs:
            self._fail(0, "a repeated protocol run gave different results")
            bad = len(results)
        self.failed += bad
        utts = sum(r.epochs_run * len(plans[r.fold].train_ids) for r in results)
        return {"wall_s": wall, "rate": utts / wall, "utts": utts}

    def predict_cycle(self, k, net):
        """One pass over the corpus in a seeded order; per-request latency."""
        records = self.requests.records
        order = np.random.default_rng([self.seed, k]).permutation(len(records))
        lat, outputs = [], []
        t_cycle = time.perf_counter()
        for i in order:
            r = records[i]
            self.attempted += 1
            if self.tracer:
                self.tracer.new_step("request")
            t0 = time.perf_counter()
            try:
                probs = predict_request(net, self.state.wv, self.requests.resolve(r.audio_path),
                                        r.transcript)
            except Exception:   # counted and reported; the run still prints a result
                self._fail(1, f"request {r.id} raised:\n{traceback.format_exc()}")
                continue
            finally:
                if self.tracer:
                    self.tracer.step = -1
            lat.append(time.perf_counter() - t0)
            problems = checks.check_probs(probs, self.w.model.num_classes)
            if problems:
                self._fail(1, f"request {r.id}: {problems[0]}")
            # rounded, so a change that only reorders float sums keeps the digest
            outputs.append([int(np.argmax(probs)), [round(float(p), 6) for p in probs]])
        wall = time.perf_counter() - t_cycle
        return {"wall_s": wall, "rate": len(lat) / wall, "latencies": lat,
                "outputs": outputs}

    def _fail(self, n, message):
        self.failed += n
        self.problems.append(message)

    # -- whole runs --------------------------------------------------------

    def run(self, trace):
        self.prepare()
        if trace:
            self.tracer.install()
        setup_s = self.timed_set_up()
        net = self.state.net
        if net is None:   # train-*: restored outside the timed set-up
            net = restore(self.checkpoint, self.state.wv)

        def cycle(k):
            return self.predict_cycle(k, net)

        main, min_units = (self.train_unit, 1) if self.w.harness else (cycle, MIN_CYCLES)
        before = self.run_units(self.seconds / 4, cycle, 2) if self.w.harness else []
        if trace:
            # the same work untraced then traced: the difference is the overhead
            self.tracer.uninstall()
            plain = self.run_units(self.seconds / 2, main)
            self.tracer.install()
            units = self.run_units(self.seconds / 2, main, min_units)
            if _walls(units) and _walls(plain):
                self.counts["overhead_pct"] = 100.0 * (
                    statistics.median(_walls(units)) / statistics.median(_walls(plain)) - 1.0)
        else:
            units = self.run_units(self.seconds, main, min_units)
        after = self.run_units(self.seconds / 4, cycle, 2) if self.w.harness else []
        if trace:
            self.tracer.uninstall()
        cycles = before + after if self.w.harness else units
        lat = [x for c in cycles for x in c["latencies"]]
        rates = [u["rate"] for u in units if u["wall_s"]]
        e2e = {
            "utt_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "predict_ms_p50": (1e3 * float(np.percentile(lat, 50)) if lat else 0.0, "ms"),
            "predict_ms_p90": (1e3 * float(np.percentile(lat, 90)) if lat else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        outputs = {"predict": cycles[0]["outputs"], "folds": self.fold_outputs}
        for msg in self.problems:
            print(f"check failed: {msg}", file=sys.stderr)
        return {
            "e2e": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "samples": {"setup": SETUP_REPS, "units": len(units), "requests": len(lat)},
            "units": [{k: v for k, v in u.items() if k in ("wall_s", "rate", "utts")}
                      for u in units],
            "inputs": self.inputs,
            "digest": checks.digest(outputs),
            "attempted": self.attempted,
            "failed": self.failed,
        }


def _walls(units):
    return [u["wall_s"] for u in units if u["wall_s"] is not None]
