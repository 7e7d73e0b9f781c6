"""In-memory spans for the traced run, recorded from the benchmark's side.

The program under test is never edited to add spans.  Instead
:func:`instrument` temporarily wraps the public functions of each layer
(at the module attribute or class attribute their callers look them up
through) so that every call opens a span: name, start, end, parent.  The
wrappers are installed only for traced passes and removed afterwards, so
untraced passes run the program exactly as a user would.

A wrapper whose target no longer exists is skipped and reported in
:attr:`SpanRecorder.missing`, so a later refactor of the program shows
up as a missing layer in the trace file instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Spans kept in memory; written out by the caller when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """Index of the next span, to slice out the spans of one pass."""
        return len(self.spans)


def maybe_span(recorder: Optional[SpanRecorder], name: str, **attrs: Any):
    """A span when tracing, otherwise a context that records nothing."""
    if recorder is None:
        return nullcontext({"attrs": {}})
    return recorder.span(name, **attrs)


def _pairs(args: Any, result: Any) -> Dict[str, int]:
    n = len(result[0])
    return {"pairs": n * (n - 1) // 2}


#: (module, attribute path, span name, per-call counts taken from
#: ``(args, result)``).  Each target is the name the program's callers
#: resolve at call time, so wrapping it intercepts every call.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.engine.matrix", "ClaimMatrix.from_dataset", "engine.compile", None),
    ("repro.core.framework", "compact_by_groups", "engine.compact", None),
    (
        "repro.core.truth_discovery",
        "run_convergence_loop",
        "engine.loop",
        lambda args, result: {"iterations": result.iterations},
    ),
    (
        "repro.core.framework",
        "run_convergence_loop",
        "engine.loop",
        lambda args, result: {"iterations": result.iterations},
    ),
    (
        "repro.core.framework",
        "SybilResistantTruthDiscovery._iterate",
        "framework.iterate",
        lambda args, result: {"iterations": result.iterations},
    ),
    (
        "repro.features.extractor",
        "FeatureExtractor.fit_transform",
        "features.extract",
        lambda args, result: {"captures": len(args[1])},
    ),
    ("repro.ml.pca", "PCA.fit_transform", "ml.pca", None),
    ("repro.core.grouping.fingerprint", "estimate_k_elbow", "ml.elbow", None),
    (
        "repro.ml.kmeans",
        "KMeans.fit",
        "ml.kmeans",
        lambda args, result: {"fits": 1, "lloyd_iterations": result.iterations},
    ),
    ("repro.core.grouping.taskset", "taskset_affinity_matrix", "agts.affinity", _pairs),
    (
        "repro.core.grouping.taskset",
        "graph_from_affinity",
        "graph.agts_threshold",
        lambda args, result: {"edges": result.edge_count},
    ),
    (
        "repro.core.grouping.trajectory",
        "trajectory_dissimilarity_matrix",
        "agtr.dissimilarity",
        _pairs,
    ),
    (
        "repro.core.grouping.trajectory",
        "graph_from_dissimilarity",
        "graph.agtr_threshold",
        lambda args, result: {"edges": result.edge_count},
    ),
    (
        "repro.graph.components",
        "UndirectedGraph.connected_components",
        "graph.components",
        None,
    ),
    (
        "repro.core.streaming",
        "StreamingTruthDiscovery.observe",
        "streaming.observe",
        lambda args, result: {"batches": 1},
    ),
)


def _wrap(fn: Callable, recorder: SpanRecorder, name: str, counts) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as record:
            result = fn(*args, **kwargs)
            if counts is not None:
                record["attrs"].update(counts(args, result))
            return result

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer target for the duration of the ``with`` block."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counts in LAYER_TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                if f"{module_name}.{path}" not in recorder.missing:
                    recorder.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, classmethod):
                patched: Any = classmethod(_wrap(original.__func__, recorder, name, counts))
            else:
                patched = _wrap(original, recorder, name, counts)
            setattr(owner, attr, patched)
            restore.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Per span: its duration minus the time its child spans cover."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"]) - child_time.get(span["id"], 0.0)
        for span in spans
    }
