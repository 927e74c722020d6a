"""Span tracing of the pipeline's layers from outside the package.

The tracer replaces the public functions listed in ``LAYERS`` by timing
wrappers in every loaded ``nucsplit`` module that holds a reference to
them. Modules call each other through module-level names (``splitter``
calls its own ``bipartition`` binding), so each binding is patched, not
only the defining one. Modules are taken from ``sys.modules``:
``nucsplit.binarize`` and ``nucsplit.evaluate`` as attributes of the
package are the re-exported functions, not the modules.

Each call becomes a span (name, start, end, parent). A layer's time is
its self time: the span's duration minus the time its child spans
cover. Counts and layer checks run after the wrapped call returns,
inside a ``bench.check`` span, so their cost is subtracted from the
caller's self time and lands in no layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List

from checks import check_bipartition, check_split_blocks

LAYERS = {
    "nucsplit.synthgen": ("generate",),
    "nucsplit.geometry": ("cut_metric_weights", "sphericity"),
    "nucsplit.volume": ("gaussian_smooth", "connected_components"),
    "nucsplit.histmodel": ("em_fit",),
    "nucsplit.binarize": ("binarize",),
    "nucsplit.graphbuild": ("build_graph",),
    "nucsplit.partition": ("bipartition", "split_blocks"),
    "nucsplit.nucmodel": ("score_function",),
    "nucsplit.splitter": ("segment", "recursive_split"),
    "nucsplit.evaluate": ("evaluate",),
}

CHECK = "bench.check"

# per-layer metric -> the span name whose self times it sums
TIMES = {
    "partition.bipartition_s": "partition.bipartition",
    "partition.split_blocks_s": "partition.split_blocks",
    "graphbuild.build_graph_s": "graphbuild.build_graph",
    "volume.gaussian_smooth_s": "volume.gaussian_smooth",
    "volume.connected_components_s": "volume.connected_components",
    "binarize.binarize_s": "binarize.binarize",
    "histmodel.em_fit_s": "histmodel.em_fit",
    "nucmodel.score_function_s": "nucmodel.score_function",
    "geometry.sphericity_s": "geometry.sphericity",
    "splitter.recursive_split_s": "splitter.recursive_split",
    "splitter.label_assembly_s": "splitter.segment",
    "evaluate.evaluate_s": "evaluate.evaluate",
}
# per-layer metric -> the span name whose calls it counts
CALLS = {
    "partition.bipartitions": "partition.bipartition",
    "graphbuild.graphs": "graphbuild.build_graph",
    "volume.gaussian_smooth_calls": "volume.gaussian_smooth",
    "histmodel.em_fit_calls": "histmodel.em_fit",
    "nucmodel.scored": "nucmodel.score_function",
    "geometry.sphericity_calls": "geometry.sphericity",
}
COUNTS = (
    "partition.bipartition_nodes",
    "partition.largest_graph_nodes",
    "partition.cut_weight_sum",
    "partition.blocks",
    "graphbuild.graph_nodes",
    "graphbuild.graph_edges",
    "volume.smoothed_voxels",
    "volume.components",
    "binarize.slabs",
    "nucmodel.kept",
    "nucmodel.discarded",
    "nucmodel.repartitioned",
)
SETUP_TIMES = {
    "synthgen.generate_s": "synthgen.generate",
    "geometry.cut_metric_weights_s": "geometry.cut_metric_weights",
}
UNITS = {**{m: "s" for m in TIMES}, **{m: "s" for m in SETUP_TIMES}}
UNITS.update({m: "count" for m in CALLS})
UNITS.update({m: "count" for m in COUNTS})
UNITS["partition.cut_weight_sum"] = "weight"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Dict[str, float] = {}
        self.failures: List[str] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # span bookkeeping
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        """Start a new phase: spans and counts of the last one are dropped."""
        self.spans, self.counts = [], {}

    def install(self) -> None:
        originals = {}
        for mod_name, fns in LAYERS.items():
            mod = sys.modules[mod_name]
            layer = mod_name.rsplit(".", 1)[1]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn_name}", HOOKS.get(fn_name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nucsplit" and not mod_name.startswith("nucsplit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched = []

    def _wrap(self, fn: Callable, name: str, hook) -> Callable:
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                idx = self._open(CHECK)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, out)
                finally:
                    self._close(idx)
            return out

        return traced

    # metrics of the current phase
    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), cov in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - cov
        return out

    def span_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def phase_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of one segment+evaluate round."""
        selfs, calls = self.self_times(), self.span_counts()
        out = {m: selfs.get(span, 0.0) for m, span in TIMES.items()}
        out.update({m: calls.get(span, 0) for m, span in CALLS.items()})
        out.update({m: self.counts.get(m, 0) for m in COUNTS})
        return out

    def setup_metrics(self) -> Dict[str, float]:
        selfs = self.self_times()
        return {m: selfs.get(span, 0.0) for m, span in SETUP_TIMES.items()}


def _smooth(t: Tracer, a, out) -> None:
    if a["sigma"] > 0:
        t.add("volume.smoothed_voxels", a["v"].data.size)


def _components(t: Tracer, a, out) -> None:
    t.add("volume.components", len(out))


def _binarize(t: Tracer, a, out) -> None:
    t.add("binarize.slabs", len(out[1]))


def _graph(t: Tracer, a, out) -> None:
    t.add("graphbuild.graph_nodes", out.n_nodes)
    t.add("graphbuild.graph_edges", out.edge_count)


def _bipartition(t: Tracer, a, out) -> None:
    n = a["g"].n_nodes
    t.add("partition.bipartition_nodes", n)
    t.counts["partition.largest_graph_nodes"] = max(t.counts.get("partition.largest_graph_nodes", 0), n)
    t.add("partition.cut_weight_sum", out.cut_weight)
    t.failures.extend(check_bipartition(a["g"], a["cfg"], out))


def _split_blocks(t: Tracer, a, out) -> None:
    t.add("partition.blocks", len(out))
    t.failures.extend(check_split_blocks(a["c"], out))


DECISIONS = {"KEEP": "nucmodel.kept", "DISCARD": "nucmodel.discarded", "REPARTITION": "nucmodel.repartitioned"}


def _score(t: Tracer, a, out) -> None:
    t.add(DECISIONS[out.decision.name], 1)


HOOKS = {
    "gaussian_smooth": _smooth,
    "connected_components": _components,
    "binarize": _binarize,
    "build_graph": _graph,
    "bipartition": _bipartition,
    "split_blocks": _split_blocks,
    "score_function": _score,
}
