"""Run the test suite against each catalogued one-line mutant of ``src/ummlearn``.

Usage, from the repository root::

    python tools/mutants.py

Each mutant is a (name, file, old text, new text) entry of ``MUTANTS``; every
old text must occur exactly once in its file, and all of them are checked
before any test runs. The script copies the repository to a temporary
directory, runs the fast test subset there on the unchanged copy (it must
pass), then, one mutant at a time, writes the new text, runs the subset with
``-x`` and restores the file. A mutant is killed when the run fails. The
script prints one row per mutant with the test that killed it, and exits 1 if
any mutant survives, 2 if the unchanged copy fails or an old text is not
unique. A new mechanism's mutant belongs here, with a test that kills it.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Tier-1 without the three slow training criteria
SUBSET = ["-k", "not Criterion6 and not Criterion7 and not Criterion11"]
TIMEOUT_S = 900

NETWORK = "src/ummlearn/network.py"
MARGIN = "src/ummlearn/margin_loss.py"
UNCERTAINTY = "src/ummlearn/uncertainty.py"
CLUSTER = "src/ummlearn/cluster_loss.py"

MUTANTS = [
    ("phase-3 weight is the CCDF", NETWORK, "    return 1.0 - ccdfs\n", "    return ccdfs\n"),
    (
        "margins ignore train.uncertainty_scale",
        NETWORK,
        "class_margin_from_uncertainty(cfg.train_uncertainty_scale * float(v))",
        "class_margin_from_uncertainty(float(v))",
    ),
    (
        "sgd_step decays the biases",
        NETWORK,
        "        b -= lr * g\n",
        "        b -= lr * (g + weight_decay * b)\n",
    ),
    ("hybrid center step ascends", CLUSTER, "labs) - step * grad_centers", "labs) + step * grad_centers"),
    ("margin map at 0.25 u", MARGIN, "math.floor(0.5 * u)", "math.floor(0.25 * u)"),
    (
        "rival class by argmin",
        UNCERTAINTY,
        "return np.argmax(scores, axis=-1)[()]",
        "return np.argmin(scores, axis=-1)[()]",
    ),
    (
        "center damping at 1 - alpha",
        CLUSTER,
        "c - state.alpha * ((n * c",
        "c - (1.0 - state.alpha) * ((n * c",
    ),
    (
        "sqrt(sigma) in error_moments",
        UNCERTAINTY,
        "np.sum(diff * diff * sigma_f, axis=-1)",
        "np.sum(diff * diff * np.sqrt(sigma_f), axis=-1)",
    ),
    (
        "masks as columns of one (B, sum w) draw",
        UNCERTAINTY,
        """    draws = (rng.random(n * sum(layer_widths)) < keep_prob) / keep_prob
    ends = accumulate(n * w for w in layer_widths)
    return [draws[end - n * w : end].reshape(*rows, w) for end, w in zip(ends, layer_widths)]
""",
        """    draws = (rng.random((*rows, sum(layer_widths))) < keep_prob) / keep_prob
    ends = accumulate(layer_widths)
    return [draws[..., end - w : end] for end, w in zip(ends, layer_widths)]
""",
    ),
    (
        "pair scatter adds the iu terms first",
        CLUSTER,
        "((flat_ju, -v), (flat_iu, v))",
        "((flat_iu, v), (flat_ju, -v))",
    ),
    ("margin loss omits the blend", MARGIN, "np.where(live, blend, 0.0)", "np.where(live, 1.0, 0.0)"),
    (
        "margin loss drops the dc/dw term",
        MARGIN,
        "dz_dwy = dz_dwy + slope * (feats / ab[:, None] - (c / (a * a))[:, None] * wy)",
        "dz_dwy = dz_dwy",
    ),
]


def run_subset(tree: Path) -> tuple[int, str]:
    """(pytest's exit code, what ended the run) for the fast subset in ``tree``.

    What ended the run is the first failing test, or pytest's summary line
    when none failed; the code is -1 when the run times out.
    """
    # no .pyc files: a mutant and its restore can share a source's size and mtime second
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *SUBSET]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()[-200:]]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or lines)[-1].split(" - ")[0]


def main() -> int:
    for name, path, old, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {path}", file=sys.stderr)
            return 2

    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-*")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=ignore)
        code, summary = run_subset(tree)
        if code != 0:
            print(f"the unchanged copy fails: {summary}", file=sys.stderr)
            return 2
        print(f"{'mutant':40} {'file':30} {'result':8} ended by")
        survivors = 0
        for name, path, old, new in MUTANTS:
            target = tree / path
            source = target.read_text(encoding="utf-8")
            target.write_text(source.replace(old, new), encoding="utf-8")
            code, summary = run_subset(tree)
            target.write_text(source, encoding="utf-8")
            killed = code != 0  # a failed test, a collection error or a run that never ends
            survivors += not killed
            print(f"{name:40} {path:30} {'killed' if killed else 'SURVIVED':8} {summary}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
