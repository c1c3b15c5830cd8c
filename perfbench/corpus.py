"""Seeded corpora for the benchmark, built only from the public generator.

Each corpus has four classes of ten utterances.  Durations are stratified:
``gen_synthetic`` is called once per duration stratum (one utterance per
class, drawn uniformly inside a tenth of the range), so every seed yields the
same spread of lengths while the audio itself, the noise and the transcript
choice change with the seed.  That keeps the amount of work per run steady
across seeds without fixing the inputs.

The ``long`` corpus rewrites each transcript as two or three template
sentences of its class, chosen and ordered by the seed.
"""

import json
from pathlib import Path

import numpy as np

from melformer.config import LABELS
from melformer.data import TEMPLATES, SyntheticSpec, gen_synthetic

CLASSES = 4
STRATA = 10  # utterances per class, one per duration stratum

CORPORA = {
    "quick": {"duration_range": (0.5, 1.0), "sentences": (1, 1)},
    "long": {"duration_range": (1.0, 3.5), "sentences": (2, 3)},
}


def generate(kind, seed, out_dir):
    """Write wavs and one manifest.jsonl under ``out_dir``; return its path."""
    lo, hi = CORPORA[kind]["duration_range"]
    n_min, n_max = CORPORA[kind]["sentences"]
    out = Path(out_dir)
    rng = np.random.default_rng(seed)
    width = (hi - lo) / STRATA
    lines = []
    for s in range(STRATA):
        part = f"part{s}"
        spec = SyntheticSpec(classes=CLASSES, per_class=1, seed=seed * STRATA + s,
                             duration_range=(lo + s * width, lo + (s + 1) * width))
        manifest = gen_synthetic(spec, out / part)
        for line in manifest.read_text().splitlines():
            rec = json.loads(line)
            k = LABELS.index(rec["label"])
            if n_max == 1:
                transcript = TEMPLATES[k][s % len(TEMPLATES[k])]
            else:
                # alternate two and three sentences so the word count per
                # class does not depend on the seed
                n = n_min + s % (n_max - n_min + 1)
                picks = rng.permutation(len(TEMPLATES[k]))[:n]
                transcript = " ".join(TEMPLATES[k][i] for i in picks)
            lines.append(json.dumps({
                "id": f"{rec['label']}-{s:03d}", "label": rec["label"],
                "audio_path": f"{part}/{rec['audio_path']}", "transcript": transcript,
                "session": f"s{s % 5 + 1}"}, sort_keys=True))
    path = out / "manifest.jsonl"
    path.write_text("\n".join(sorted(lines)) + "\n")
    return path


def describe(encs):
    """Frame and word distribution of encoded utterances."""
    frames = np.asarray([e.n_frames for e in encs])
    words = np.asarray([e.n_words for e in encs])

    def dist(x):
        return {"min": int(x.min()), "mean": round(float(x.mean()), 2),
                "max": int(x.max()), "total": int(x.sum())}

    return {"utterances": len(encs), "frames": dist(frames), "words": dist(words)}
