"""Per-layer metrics of the traced run, derived from its spans.

Times are the summed inclusive durations of a layer's spans in one pass
(``streaming.observe_s`` is the median per batch); counts come from span
attributes the wrappers in :mod:`tracing` record, except the DTW pair
dispositions and runtime dispatch counts, which are read from the
program's own ``repro.obs`` counters (complete, since the run is inline).
Each metric is the median over traced passes.  The trace file also gives
every time metric's self time: its spans' durations minus the part their
child spans cover.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Dict, List, Sequence

from tracing import SpanRecorder, self_times

from repro.obs import get_metrics

#: Time metrics: summed inclusive duration of the named spans.
SPAN_TIMES = {
    "dataset.build_s": "dataset.build",
    "engine.compile_s": "engine.compile",
    "engine.compact_s": "engine.compact",
    "engine.loop_s": "engine.loop",
    "features.extract_s": "features.extract",
    "ml.pca_s": "ml.pca",
    "ml.elbow_s": "ml.elbow",
    "ml.kmeans_s": "ml.kmeans",
    "agts.affinity_s": "agts.affinity",
    "graph.agts_threshold_s": "graph.agts_threshold",
    "graph.agtr_threshold_s": "graph.agtr_threshold",
    "graph.components_s": "graph.components",
    "agtr.dissimilarity_s": "agtr.dissimilarity",
    "framework.iterate_s": "framework.iterate",
    "crh.discover_s": "crh.discover",
    "categorical.claims_s": "categorical.claims",
    "categorical.discover_s": "categorical.discover",
    "agfp_truths_s": "path.agfp",
    "agts_truths_s": "path.agts",
    "agtr_truths_s": "path.agtr",
}

#: Count metrics: summed span attribute.
SPAN_COUNTS = {
    "dataset.claims": ("dataset.build", "claims"),
    "engine.iterations": ("engine.loop", "iterations"),
    "features.captures": ("features.extract", "captures"),
    "ml.kmeans_fits": ("ml.kmeans", "fits"),
    "ml.lloyd_iterations": ("ml.kmeans", "lloyd_iterations"),
    "agts.pairs": ("agts.affinity", "pairs"),
    "agtr.pairs": ("agtr.dissimilarity", "pairs"),
    "framework.iterations": ("framework.iterate", "iterations"),
    "crh.iterations": ("crh.discover", "iterations"),
    "streaming.batches": ("streaming.observe", "batches"),
    "categorical.iterations": ("categorical.discover", "iterations"),
}

#: Count metrics read as deltas of the program's ``repro.obs`` counters.
OBS_COUNTERS = {
    "dtw.pairs_computed": "dtw.pairs_computed",
    "dtw.pairs_pruned": "dtw.pairs_pruned",
    "dtw.pairs_abandoned": "dtw.pairs_shortcut",
    "runtime.maps": "runtime.maps",
    "runtime.shards": "runtime.shards_executed",
}

UNITS: Dict[str, str] = {
    "simulation.scenario_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in SPAN_COUNTS},
    **{name: "count" for name in OBS_COUNTERS},
    "graph.edges": "count",
    "agtr.prune_ratio": "1",
    "framework.data_grouping_s": "s",
    "streaming.observe_s": "s",
    "grouping_ari": "1",
    "trace.overhead_s": "s",
}


def total(spans: Sequence[Dict[str, Any]], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def counters() -> Dict[str, int]:
    registry = get_metrics()
    return {key: registry.counter(name).value for key, name in OBS_COUNTERS.items()}


def per_layer(
    spans: List[Dict[str, Any]], pass_result, before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, Dict[str, float]]:
    """Metric values and self times of one traced pass."""
    own = self_times(spans)
    values: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    for metric, name in SPAN_TIMES.items():
        values[metric] = total(spans, name)
        selfs[metric] = sum(own[s["id"]] for s in spans if s["name"] == name)
    for metric, (name, key) in SPAN_COUNTS.items():
        values[metric] = sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)
    for metric in OBS_COUNTERS:
        values[metric] = after[metric] - before[metric]
    values["graph.edges"] = sum(
        s["attrs"].get("edges", 0)
        for s in spans
        if s["name"] in ("graph.agts_threshold", "graph.agtr_threshold")
    )
    values["agtr.prune_ratio"] = (
        (values["dtw.pairs_pruned"] + values["dtw.pairs_abandoned"]) / values["agtr.pairs"]
        if values["agtr.pairs"]
        else 0.0
    )
    # Data grouping (Eq. 3/4, with the claim-matrix compile) is what
    # framework.discover does outside its iteration.
    iterate = {}
    for s in spans:
        if s["name"] == "framework.iterate" and s["parent"] is not None:
            iterate[s["parent"]] = iterate.get(s["parent"], 0.0) + s["end"] - s["start"]
    discover = [s for s in spans if s["name"] == "framework.discover"]
    values["framework.data_grouping_s"] = sum(
        s["end"] - s["start"] - iterate.get(s["id"], 0.0) for s in discover
    )
    selfs["framework.data_grouping_s"] = sum(own[s["id"]] for s in discover)
    observe = [s["end"] - s["start"] for s in spans if s["name"] == "streaming.observe"]
    values["streaming.observe_s"] = statistics.median(observe) if observe else 0.0
    values["grouping_ari"] = (
        sum(pass_result.aris) / len(pass_result.aris) if pass_result.aris else 0.0
    )
    return {"values": values, "self": selfs}


def summarize(
    per_pass: List[Dict[str, Dict[str, float]]],
    scenario_s: List[float],
    passes: Sequence[Any],
) -> Dict[str, float]:
    """Median over traced passes, plus set-up and tracing overhead."""
    metrics = {
        name: statistics.median(p["values"][name] for p in per_pass)
        for name in UNITS
        if name in per_pass[0]["values"]
    }
    metrics["simulation.scenario_s"] = statistics.median(scenario_s)
    traced = [p.campaign_s for i, p in enumerate(passes) if i % 2 == 1]
    untraced = [p.campaign_s for i, p in enumerate(passes) if i % 2 == 0]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def write_trace(
    path: pathlib.Path,
    recorder: SpanRecorder,
    per_pass: List[Dict[str, Dict[str, float]]],
    metrics: Dict[str, float],
    info: Dict[str, Any],
) -> pathlib.Path:
    """Write the run's spans and per-layer metrics (with self times)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "info": info,
        "metrics": {
            name: {
                "value": metrics[name],
                "unit": UNITS[name],
                **(
                    {"self_s": statistics.median(p["self"][name] for p in per_pass)}
                    if name in per_pass[0]["self"]
                    else {}
                ),
            }
            for name in UNITS
        },
        "missing_targets": recorder.missing,
        "spans": recorder.spans,
    }
    path.write_text(json.dumps(document) + "\n")
    return path
