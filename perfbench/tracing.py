"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces the public functions of each traced ``ummlearn`` module
with thin wrappers, at every module attribute where a caller looks the
function up (``network`` calls ``large_margin_softmax_loss`` through its own
namespace, ``cli`` calls ``train`` through its own, and so on). No source
file of the program changes; ``uninstall`` puts every original back.

Each wrapped call records one span (name, start, end, parent). Spans are
appended when they start, so a span's descendants are exactly the spans
with a higher index that start before it ends. ``numerics`` helpers are
called hundreds of thousands of times per run, so they only count calls.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

SPAN_MODULES = ("cli", "network", "margin_loss", "uncertainty", "cluster_loss", "metrics", "data")
COUNT_MODULES = ("numerics",)

# Loss evaluations, as opposed to the margin map helpers of the same module.
MARGIN_LOSS_EVALS = (
    "margin_loss.softmax_loss",
    "margin_loss.large_margin_softmax_loss",
    "margin_loss.uncertainty_weighted_margin_loss",
    "margin_loss.angular_margin_loss",
)
# Which loss a training epoch ran decides its kind; the first match wins.
EPOCH_KINDS = (
    ("sample", ("margin_loss.uncertainty_weighted_margin_loss",)),
    ("margin", ("margin_loss.large_margin_softmax_loss", "margin_loss.angular_margin_loss")),
    ("cluster", ("cluster_loss.hybrid_loss",)),
)


def _public_callables(module):
    """(qualified name, owner, attribute, function, kind) for every public function."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj, "function"
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if not name.startswith("_") and isinstance(member, classmethod):
                    yield f"{short}.{attr}.{name}", obj, name, member.__func__, "classmethod"


class Tracer:
    """Span and count recorder for one process; install, run, uninstall."""

    def __init__(self):
        self.qualnames: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span: qualname id, parent span index (-1 at the root), times
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.train_samples: dict[int, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, qualname, fn, probe):
        nid = self._ids.setdefault(qualname, len(self._ids))
        if nid == len(self.qualnames):
            self.qualnames.append(qualname)
        span_names, parents, starts, ends, stack = self.span_name, self.span_parent, self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(idx, args, result)
            return result

        return traced

    def _count_wrapper(self, qualname, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        return counted

    def _probes(self):
        """Argument-reading hooks for the counts that spans alone cannot give."""
        counts = self.counts

        def csv_bytes(key, path_arg):
            def probe(idx, args, result):
                counts[key] += os.path.getsize(args[path_arg])
            return probe

        def covariance(idx, args, result):
            n_classes = len(args[0][0])
            counts["uncertainty.cov_entries_computed"] += n_classes * n_classes

        def refresh(idx, args, result):
            counts["uncertainty.cov_entries_used"] += args[1].n_samples

        def train(idx, args, result):
            self.train_samples[idx] = args[1].n_samples

        return {
            "data.load_csv": csv_bytes("data.bytes_read", 0),
            "data.save_csv": csv_bytes("data.bytes_written", 1),
            "uncertainty.mc_uncertainty": covariance,
            "network.ensemble_class_uncertainty": refresh,
            "network.train": train,
        }

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the traced modules of ``package``."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        probes = self._probes()
        plan = []
        for short in SPAN_MODULES + COUNT_MODULES:
            module = sys.modules[f"{prefix}.{short}"]
            for qualname, owner, attr, fn, kind in _public_callables(module):
                if short in COUNT_MODULES:
                    wrapper = self._count_wrapper(qualname, fn)
                else:
                    wrapper = self._span_wrapper(qualname, fn, probes.get(qualname))
                plan.append((owner, attr, fn, kind, wrapper))
        for owner, attr, fn, kind, wrapper in plan:
            if kind == "classmethod":
                self._patch(owner, attr, classmethod(wrapper))
                continue
            for module in modules:
                if vars(module).get(attr) is fn:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span and count; call between traced units."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()
        self.train_samples.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, plus counts."""
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        table: dict[str, list] = {}
        for i in range(n):
            row = table.setdefault(self.qualnames[names[i]], [0, 0.0, 0.0])
            dur = ends[i] - starts[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        counts = dict(self.counts)
        forward = self._ids.get("network.forward")
        refresh = self._ids.get("network.ensemble_class_uncertainty")
        counts["uncertainty.ensemble_passes"] = sum(
            1
            for i in range(n)
            if names[i] == forward and parents[i] >= 0 and names[parents[i]] == refresh
        )
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(table.items())},
            "counts": dict(sorted(counts.items())),
        }

    def epochs(self) -> list[dict]:
        """One record per training epoch: its kind, seconds, batches and loss evaluations.

        An epoch ends when its evaluation span returns. Its seconds leave
        out the phase-boundary ensemble refresh, which is reported as its own
        span.
        """
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        ids = self._ids
        evaluate = ids.get("network.evaluate")
        train = ids.get("network.train")
        refresh = ids.get("network.ensemble_class_uncertainty")
        sgd = ids.get("network.sgd_step")
        hybrid_loss = ids.get("cluster_loss.hybrid_loss")
        loss_evals = {ids[n] for n in MARGIN_LOSS_EVALS if n in ids}
        kind_of = {ids[n]: kind for kind, members in EPOCH_KINDS for n in members if n in ids}
        rank = {kind: r for r, (kind, _) in enumerate(EPOCH_KINDS)}
        records = []
        i, n = 0, len(names)
        while i < n:
            if names[i] != train:
                i += 1
                continue
            root, t_end = i, ends[i]
            epoch_start, kind, excluded, batches, evals, hybrid = starts[root], "softmax", 0.0, 0, 0, 0
            i += 1
            while i < n and starts[i] < t_end:
                nid = names[i]
                if nid == refresh:
                    excluded += ends[i] - starts[i]
                elif nid == sgd:
                    batches += 1
                elif nid in loss_evals:
                    evals += 1
                if nid in kind_of and (kind == "softmax" or rank[kind_of[nid]] < rank[kind]):
                    kind = kind_of[nid]
                if nid == hybrid_loss:
                    hybrid += 1
                if nid == evaluate and parents[i] == root:
                    records.append(
                        {
                            "kind": kind,
                            "seconds": ends[i] - epoch_start - excluded,
                            "batches": batches,
                            "samples": self.train_samples.get(root, 0),
                            "loss_evals": evals,
                            "hybrid_calls": hybrid,
                        }
                    )
                    epoch_start, kind, excluded, batches, evals, hybrid = ends[i], "softmax", 0.0, 0, 0, 0
                i += 1
        return records


def layer_metrics(summary: dict, epochs: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced unit, from its summary and epoch records.

    Also returns the bases of the ratio metrics that the workload fixes
    (sample-epochs, SGD steps): they are not costs, so they are not metrics.
    """
    spans, counts = summary["spans"], summary["counts"]

    def layer(prefix, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix + "."))

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def median_epoch(kind):
        values = [e["seconds"] for e in epochs if e["kind"] == kind]
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    margin_epochs = [e for e in epochs if e["kind"] in ("margin", "sample")]
    loss_evals = sum(e["loss_evals"] for e in margin_epochs)
    sample_steps = sum(e["samples"] for e in margin_epochs)
    cluster_epochs = [e for e in epochs if e["kind"] == "cluster"]
    hybrid_calls = sum(e["hybrid_calls"] for e in cluster_epochs)
    cluster_batches = sum(e["batches"] for e in cluster_epochs)
    passes = counts.get("uncertainty.ensemble_passes", 0)
    refreshes = span("network.ensemble_class_uncertainty", "calls")
    cov_used = counts.get("uncertainty.cov_entries_used", 0)
    cov_computed = counts.get("uncertainty.cov_entries_computed", 0)
    epoch_margin = median_epoch("margin")
    epoch_softmax = median_epoch("softmax")
    return {
        "margin_loss.calls": layer("margin_loss", "calls"),
        "margin_loss.self_s": layer("margin_loss", "self_s"),
        "margin_loss.loss_evals": loss_evals,
        "margin_loss.calls_per_sample": ratio(loss_evals, sample_steps),
        "network.epoch_softmax_s": epoch_softmax,
        "network.epoch_margin_s": epoch_margin,
        "network.epoch_sample_s": median_epoch("sample"),
        "network.margin_over_softmax_epoch": ratio(epoch_margin, epoch_softmax),
        "uncertainty.calls": layer("uncertainty", "calls"),
        "uncertainty.self_s": layer("uncertainty", "self_s"),
        "network.ensemble_class_uncertainty.calls": refreshes,
        "network.ensemble_class_uncertainty.s": span("network.ensemble_class_uncertainty", "total_s"),
        "uncertainty.ensemble_passes": passes,
        "uncertainty.passes_per_refresh": ratio(passes, refreshes),
        "uncertainty.cov_entries_computed": cov_computed,
        "uncertainty.cov_entries_used": cov_used,
        "uncertainty.cov_entries_used_ratio": ratio(cov_used, cov_computed) if cov_computed else float(cov_used > 0),
        "cluster_loss.calls": layer("cluster_loss", "calls"),
        "cluster_loss.self_s": layer("cluster_loss", "self_s"),
        "cluster_loss.hybrid_calls": hybrid_calls,
        "cluster_loss.hybrid_calls_per_batch": ratio(hybrid_calls, cluster_batches),
        "network.forward.calls": span("network.forward", "calls"),
        "network.forward.self_s": span("network.forward", "self_s"),
        "network.backward.self_s": span("network.backward", "self_s"),
        "network.sgd_step.self_s": span("network.sgd_step", "self_s"),
        "network.train.self_s": span("network.train", "self_s"),
        "network.evaluate.self_s": span("network.evaluate", "self_s"),
        "metrics.self_s": layer("metrics", "self_s"),
        "data.self_s": layer("data", "self_s"),
        "data.bytes_read": counts.get("data.bytes_read", 0),
        "data.bytes_written": counts.get("data.bytes_written", 0),
        "cli.self_s": layer("cli", "self_s"),
        "numerics.calls": sum(v for k, v in counts.items() if k.startswith("numerics.")),
    }, {
        "margin_loss.sample_steps": sample_steps,
        "cluster_loss.batches": cluster_batches,
    }
