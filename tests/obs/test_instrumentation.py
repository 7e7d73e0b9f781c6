"""End-to-end checks that the pipeline emits the expected telemetry."""

import pytest

from repro.core.crh import CRH
from repro.core.dataset import SensingDataset
from repro.core.framework import SybilResistantTruthDiscovery
from repro.core.grouping import TaskSetGrouper, TrajectoryGrouper
from repro.core.grouping.trajectory import pairwise_trajectory_dissimilarity
from repro.core.streaming import StreamingTruthDiscovery
from repro.core.truth_discovery import ConvergencePolicy, IterativeTruthDiscovery
from repro.core.types import Observation, Task
from repro.errors import ConvergenceError
from repro.obs import get_metrics, tracing_session


def _span_names(tracer):
    return [record.name for record in tracer.spans]


class TestTruthDiscoveryTelemetry:
    def test_discover_emits_span_and_per_iteration_events(self, simple_dataset):
        with tracing_session() as tracer:
            result = CRH().discover(simple_dataset)
        assert "td.discover" in _span_names(tracer)
        events = [e for e in tracer.events if e.name == "td.iteration"]
        assert len(events) == result.iterations
        assert [e.fields["iteration"] for e in events] == list(
            range(1, result.iterations + 1)
        )
        for event in events:
            assert event.fields["truth_delta"] >= 0.0
            assert 0.0 <= event.fields["weight_entropy"] <= 1.0
        span = tracer.spans[-1]
        assert span.attributes["stop_reason"] == "converged"
        assert span.attributes["iterations"] == result.iterations
        assert get_metrics().counter("td.runs").value >= 1

    def test_convergence_error_records_stop_reason(self, simple_dataset):
        policy = ConvergencePolicy(max_iterations=1, tolerance=0.0, strict=True)
        with tracing_session() as tracer:
            with pytest.raises(ConvergenceError):
                IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)
        span = next(r for r in tracer.spans if r.name == "td.discover")
        assert span.attributes["stop_reason"] == "convergence_error"
        assert span.status == "error:ConvergenceError"

    def test_max_iterations_stop_reason_without_strict(self, simple_dataset):
        policy = ConvergencePolicy(max_iterations=1, tolerance=0.0)
        with tracing_session() as tracer:
            IterativeTruthDiscovery(convergence=policy).discover(simple_dataset)
        span = next(r for r in tracer.spans if r.name == "td.discover")
        assert span.attributes["stop_reason"] == "max_iterations"


class TestFrameworkTelemetry:
    def test_framework_emits_stage_spans_and_convergence_records(
        self, paper_dataset
    ):
        with tracing_session() as tracer:
            result = SybilResistantTruthDiscovery(TaskSetGrouper()).discover(
                paper_dataset
            )
        names = _span_names(tracer)
        for expected in (
            "framework.discover",
            "framework.account_grouping",
            "framework.data_grouping",
            "framework.iterate",
            "grouping.ag_ts",
        ):
            assert expected in names, f"missing span {expected}"
        events = [e for e in tracer.events if e.name == "framework.iteration"]
        assert len(events) == result.iterations
        iterate_span = next(r for r in tracer.spans if r.name == "framework.iterate")
        assert iterate_span.attributes["iterations"] == result.iterations
        # The stage spans nest under framework.discover.
        discover_span = next(
            r for r in tracer.spans if r.name == "framework.discover"
        )
        assert iterate_span.parent_id == discover_span.span_id

    def test_precomputed_grouping_skips_grouping_span(self, paper_dataset):
        grouping = TaskSetGrouper().group(paper_dataset)
        with tracing_session() as tracer:
            SybilResistantTruthDiscovery().discover(paper_dataset, grouping=grouping)
        names = _span_names(tracer)
        assert "framework.account_grouping" not in names
        assert "framework.data_grouping" in names


class TestGrouperTelemetry:
    @pytest.mark.parametrize(
        "grouper, outer",
        [(TaskSetGrouper(), "grouping.ag_ts"), (TrajectoryGrouper(), "grouping.ag_tr")],
    )
    def test_pairwise_groupers_split_score_graph_and_components(
        self, paper_dataset, grouper, outer
    ):
        with tracing_session() as tracer:
            grouper.group(paper_dataset)
        parent = next(r for r in tracer.spans if r.name == outer)
        steps = [r.name for r in tracer.spans if r.parent_id == parent.span_id]
        assert steps == [
            "grouping.score",
            "grouping.threshold_graph",
            "grouping.components",
        ]

    def test_trajectory_grouper_counts_pairs_and_dtw_calls(self, paper_dataset):
        with tracing_session() as tracer:
            TrajectoryGrouper().group(paper_dataset)
        assert "grouping.ag_tr" in _span_names(tracer)
        metrics = get_metrics()
        n = len(paper_dataset.accounts)
        assert metrics.counter("agtr.pairs_scored").value == n * (n - 1) // 2
        # Eq. 8 runs two DTWs (task + timestamp series) per compared pair.
        assert metrics.counter("dtw.calls").value > 0

    def test_pruned_dtw_matrix_reports_hit_rate(self):
        series = [[0.0, 0.0], [0.1, 0.1], [100.0, 100.0]]
        trajectories = [(s, [0.0, 0.0]) for s in series]
        with tracing_session():
            pairwise_trajectory_dissimilarity(trajectories, prune_threshold=1.0)
        metrics = get_metrics()
        assert metrics.counter("dtw.pairs_computed").value == 1
        assert metrics.counter("dtw.pairs_pruned").value == 2
        assert metrics.gauge("dtw.prune_hit_rate").value == pytest.approx(2 / 3)
        # The one computed pair ran both Eq. 8 DTW terms.
        assert metrics.counter("dtw.calls").value == 2


class TestStreamingTelemetry:
    def test_observe_sets_gauges_and_emits_batch_events(self):
        with tracing_session() as tracer:
            engine = StreamingTruthDiscovery(decay=0.9)
            engine.observe(
                [
                    Observation("a", "T1", 10.0, 0.0),
                    Observation("b", "T1", 11.0, 1.0),
                ]
            )
            engine.observe([Observation("a", "T1", 10.5, 2.0)])
        metrics = get_metrics()
        assert metrics.counter("streaming.batches").value == 2
        assert metrics.counter("streaming.observations").value == 3
        assert metrics.gauge("streaming.active_sources").value == 2
        assert metrics.gauge("streaming.error_mass").value is not None
        events = [e for e in tracer.events if e.name == "streaming.batch"]
        assert [e.fields["batch"] for e in events] == [1, 2]
        assert events[1].fields["tasks_tracked"] == 1

    def test_disabled_tracer_still_updates_metrics(self):
        get_metrics().reset()
        engine = StreamingTruthDiscovery()
        engine.observe([Observation("a", "T1", 1.0, 0.0)])
        assert get_metrics().counter("streaming.batches").value == 1


class TestKMeansElbowTelemetry:
    def test_elbow_scan_counts_candidates_and_restarts(self, rng):
        import numpy as np

        from repro.ml.elbow import sse_curve

        points = np.vstack(
            [rng.normal(0, 0.1, (5, 2)), rng.normal(5, 0.1, (5, 2))]
        )
        with tracing_session() as tracer:
            result = sse_curve(points, k_max=4, n_init=2, rng=rng)
        metrics = get_metrics()
        assert metrics.counter("elbow.scans").value == 1
        assert metrics.counter("elbow.candidates").value == 4
        assert metrics.counter("kmeans.fits").value == 4
        assert metrics.counter("kmeans.restarts").value == 8
        span = next(r for r in tracer.spans if r.name == "ml.elbow_scan")
        assert span.attributes["k"] == result.k


class TestIngestTelemetry:
    @staticmethod
    def _ingest_spans(tracer):
        return [r for r in tracer.spans if r.name == "ingest.dataset"]

    @pytest.mark.parametrize(
        "build, claims, accounts, tasks",
        [
            (
                lambda: SensingDataset(
                    [Task("T1"), Task("T2")], [Observation("a", "T1", 1.0, 0.0)]
                ),
                1, 1, 2,
            ),
            (
                lambda: SensingDataset.from_arrays(
                    [Task("T1")], ["a", "b"], ["T1", "T1"], [1.0, 2.0], [0.0, 1.0]
                ),
                2, 2, 1,
            ),
            (lambda: SensingDataset.from_matrix([[1.0, float("nan")], [2.0, 3.0]]), 3, 2, 2),
        ],
    )
    def test_every_constructor_opens_one_ingest_span(self, build, claims, accounts, tasks):
        with tracing_session() as tracer:
            build()
        (span,) = self._ingest_spans(tracer)
        assert span.attributes == {"claims": claims, "accounts": accounts, "tasks": tasks}

    def test_derived_datasets_open_an_ingest_span(self, simple_dataset):
        with tracing_session() as tracer:
            rest = simple_dataset.without_accounts([simple_dataset.accounts[0]])
            merged = rest.merged_with(SensingDataset.from_matrix([[5.0]], account_ids=["new"]))
        spans = self._ingest_spans(tracer)
        assert [s.attributes["claims"] for s in spans] == [len(rest), 1, len(merged)]
        assert spans[-1].attributes["accounts"] == len(rest.accounts) + 1

    def test_failed_ingest_span_records_the_error(self):
        with tracing_session() as tracer:
            with pytest.raises(ValueError, match="unknown task"):
                SensingDataset([Task("T1")], [Observation("a", "T9", 1.0, 0.0)])
        (span,) = self._ingest_spans(tracer)
        assert span.status == "error:DataValidationError"

    def test_compile_nests_under_discover_and_data_grouping(self, paper_dataset):
        grouping = TaskSetGrouper().group(paper_dataset)
        with tracing_session() as tracer:
            CRH().discover(paper_dataset)
            SybilResistantTruthDiscovery().discover(paper_dataset, grouping=grouping)
        by_id = {r.span_id: r for r in tracer.spans}
        parents = [by_id[r.parent_id].name for r in tracer.spans if r.name == "engine.compile"]
        assert parents == ["td.discover", "framework.data_grouping"]
