"""Categorical truth discovery tests: 0/1 loss, majority votes, grouping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categorical import CategoricalClaims, CategoricalTruthDiscovery
from repro.core.truth_discovery import (
    ConvergencePolicy,
    crh_log_weights,
    reciprocal_weights,
)
from repro.core.types import Grouping
from repro.errors import ConvergenceError, DataValidationError
from repro.obs import NoopTracer, get_metrics, set_tracer, tracing_session
from tests.core.campaigns import claims_80k
from tests.core.categorical_oracle import oracle_discover


def _assert_identical(result, expected):
    """Equal results, dict key order included."""
    assert result == expected
    assert list(result.truths.items()) == list(expected.truths.items())
    assert list(result.weights.items()) == list(expected.weights.items())


class TestCategoricalClaims:
    def test_duplicate_claim_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            CategoricalClaims([("a", "T1", "open"), ("a", "T1", "secured")])

    def test_indexes(self):
        claims = CategoricalClaims(
            [("a", "T1", "open"), ("a", "T2", "secured"), ("b", "T1", "open")]
        )
        assert claims.tasks == ("T1", "T2")
        assert claims.accounts == ("a", "b")
        assert len(claims) == 3
        assert claims.label("b", "T1") == "open"
        assert claims.claims_for_task("T1") == {"a": "open", "b": "open"}
        assert claims.task_set("a") == {"T1", "T2"}

    TRIPLES = [
        ("b", "T2", "x"),
        ("a", "T1", "y"),
        ("c", "T2", "z"),
        ("a", "T3", ("t", 1)),
        ("a", "T2", "x"),
        ("b", "T1", 7),
        ("d", "T3", "y"),
    ]

    def test_lookups_match_a_scan_of_every_claim(self):
        claims = CategoricalClaims(self.TRIPLES)
        for task in claims.tasks:
            scanned = {a: label for a, t, label in self.TRIPLES if t == task}
            found = claims.claims_for_task(task)
            assert type(found) is dict
            assert list(found.items()) == list(scanned.items())
        for account in claims.accounts:
            found = claims.task_set(account)
            assert type(found) is frozenset
            assert found == frozenset(t for a, t, _ in self.TRIPLES if a == account)

    def test_lookups_keep_claim_order(self):
        claims = CategoricalClaims(self.TRIPLES)
        assert list(claims.claims_for_task("T2")) == ["b", "c", "a"]
        assert claims.task_set("a") == frozenset({"T1", "T2", "T3"})
        assert claims.task_set("d") == frozenset({"T3"})

    def test_unknown_task_and_account(self):
        claims = CategoricalClaims(self.TRIPLES)
        assert claims.claims_for_task("T9") == {}
        assert claims.task_set("nobody") == frozenset()
        with pytest.raises(KeyError):
            claims.label("nobody", "T1")


class TestVoteHelpers:
    """Algorithm 2's vote rules, observed through ``discover``."""

    def test_plurality(self):
        # One group whose members say x, y, x casts the vote x.
        grouping = Grouping.from_groups([["a", "b", "c"]])
        claims = CategoricalClaims([("a", "T1", "x"), ("b", "T1", "y"), ("c", "T1", "x")])
        result = CategoricalTruthDiscovery(grouping=grouping).discover(claims)
        assert result.truths == {"T1": "x"}
        assert list(result.weights) == ["g0"]

    def test_plurality_tie_is_deterministic(self):
        grouping = Grouping.from_groups([["a", "b"]])
        forward = CategoricalClaims([("a", "T1", "a"), ("b", "T1", "b")])
        backward = CategoricalClaims([("b", "T1", "b"), ("a", "T1", "a")])
        discover = CategoricalTruthDiscovery(grouping=grouping).discover
        assert discover(forward).truths == discover(backward).truths == {"T1": "a"}

    def test_weighted_majority(self):
        # s1 agrees with the crowd on T1..T3 and s2/s3 never do, so on T4
        # s1's weight outvotes the two of them.
        result = CategoricalTruthDiscovery().discover(
            CategoricalClaims(_weighted_majority_triples())
        )
        assert result.truths["T4"] == "open"
        assert result.weights["s1"] > result.weights["s2"] + result.weights["s3"]

    @pytest.mark.parametrize(
        "labels, winner", [((9, 10), 10), ((-10, -1), -1), (("b", "a"), "a")]
    )
    def test_ties_break_on_repr_order(self, labels, winner):
        # repr order: "10" < "9" and "-1" < "-10", unlike numeric order.
        claims = CategoricalClaims([("a", "T1", labels[0]), ("b", "T1", labels[1])])
        assert CategoricalTruthDiscovery().discover(claims).truths["T1"] == winner


def _weighted_majority_triples():
    triples = []
    for task in ("T1", "T2", "T3"):
        triples += [(s, task, "A") for s in ("s1", "x", "y")]
        triples += [(s, task, "B") for s in ("s2", "s3")]
    triples += [("s1", "T4", "open"), ("s2", "T4", "secured"), ("s3", "T4", "secured")]
    return triples


class TestDiscovery:
    def test_unanimous(self):
        claims = CategoricalClaims(
            [(f"a{i}", "T1", "open") for i in range(4)]
        )
        result = CategoricalTruthDiscovery().discover(claims)
        assert result.truths["T1"] == "open"
        assert result.converged

    def test_majority_wins(self):
        claims = CategoricalClaims(
            [
                ("a", "T1", "open"),
                ("b", "T1", "open"),
                ("c", "T1", "open"),
                ("d", "T1", "secured"),
            ]
        )
        result = CategoricalTruthDiscovery().discover(claims)
        assert result.truths["T1"] == "open"

    def test_reliable_source_dominates_across_tasks(self):
        # "good" agrees with the crowd on T1..T3; on T4 only "good" and
        # "bad" answer, disagreeing.  good's track record must win T4.
        triples = []
        for task in ("T1", "T2", "T3"):
            triples += [
                ("good", task, "A"),
                ("x", task, "A"),
                ("y", task, "A"),
                ("bad", task, "B"),
            ]
        triples += [("good", "T4", "A"), ("bad", "T4", "B")]
        result = CategoricalTruthDiscovery().discover(CategoricalClaims(triples))
        assert result.truths["T4"] == "A"
        assert result.weights["good"] > result.weights["bad"]

    def test_empty_claims_rejected(self):
        with pytest.raises(DataValidationError, match="empty"):
            CategoricalTruthDiscovery().discover(CategoricalClaims([]))

    def test_integer_labels_supported(self):
        claims = CategoricalClaims(
            [("a", "T1", 1), ("b", "T1", 1), ("c", "T1", 2)]
        )
        assert CategoricalTruthDiscovery().discover(claims).truths["T1"] == 1


class TestSybilResistance:
    def _attacked_claims(self):
        # 3 honest accounts say "open"; a 5-account Sybil says "secured".
        triples = [(f"h{i}", "T1", "open") for i in range(3)]
        triples += [(f"s{i}", "T1", "secured") for i in range(5)]
        return CategoricalClaims(triples)

    def test_ungrouped_attacker_wins(self):
        result = CategoricalTruthDiscovery().discover(self._attacked_claims())
        assert result.truths["T1"] == "secured"

    def test_grouped_attacker_loses(self):
        grouping = Grouping.from_groups(
            [[f"s{i}" for i in range(5)]] + [[f"h{i}"] for i in range(3)]
        )
        result = CategoricalTruthDiscovery(grouping=grouping).discover(
            self._attacked_claims()
        )
        assert result.truths["T1"] == "open"

    def test_group_votes_named_by_group(self):
        grouping = Grouping.from_groups([["s0", "s1"]])
        claims = CategoricalClaims(
            [("s0", "T1", "x"), ("s1", "T1", "x"), ("h", "T1", "y")]
        )
        result = CategoricalTruthDiscovery(grouping=grouping).discover(claims)
        assert "g0" in result.weights
        assert "h" in result.weights


class TestTelemetry:
    def _claims(self):
        # T4 starts at "secured" (two votes to one) and flips to "open" in
        # iteration 1; iteration 2 changes nothing.
        return CategoricalClaims(_weighted_majority_triples())

    def test_span_events_and_counters(self):
        with tracing_session() as tracer:
            result = CategoricalTruthDiscovery().discover(self._claims())
        assert result.iterations == 2 and result.converged
        span = next(r for r in tracer.spans if r.name == "categorical.discover")
        assert span.attributes["iterations"] == 2
        assert span.attributes["stop_reason"] == "converged"
        events = [e for e in tracer.events if e.name == "categorical.iteration"]
        assert [e.fields["iteration"] for e in events] == [1, 2]
        assert [e.fields["labels_changed"] for e in events] == [1, 0]
        for event in events:
            assert 0.0 <= event.fields["weight_entropy"] <= 1.0
        assert get_metrics().counter("categorical.runs").value == 1
        assert get_metrics().counter("categorical.iterations").value == 2

    def test_no_events_with_tracer_off(self):
        class SpyTracer(NoopTracer):
            def __init__(self):
                self.events = []

            def event(self, name, **fields):
                self.events.append(name)

        spy = SpyTracer()
        previous = set_tracer(spy)
        try:
            CategoricalTruthDiscovery().discover(self._claims())
        finally:
            set_tracer(previous)
        assert spy.events == []

    def test_strict_raises_when_budget_runs_out(self):
        policy = ConvergencePolicy(max_iterations=1, strict=True)
        with tracing_session() as tracer:
            with pytest.raises(ConvergenceError, match="did not converge in 1"):
                CategoricalTruthDiscovery(convergence=policy).discover(self._claims())
        span = next(r for r in tracer.spans if r.name == "categorical.discover")
        assert span.attributes["stop_reason"] == "convergence_error"
        assert span.status == "error:ConvergenceError"
        assert get_metrics().counter("categorical.iterations").value == 1

    def test_strict_returns_when_converged_within_budget(self):
        policy = ConvergencePolicy(max_iterations=2, strict=True)
        result = CategoricalTruthDiscovery(convergence=policy).discover(self._claims())
        assert result.converged and result.iterations == 2

    def test_budget_exhausted_without_strict(self):
        policy = ConvergencePolicy(max_iterations=1)
        with tracing_session() as tracer:
            result = CategoricalTruthDiscovery(convergence=policy).discover(self._claims())
        assert not result.converged and result.truths["T4"] == "open"
        span = next(r for r in tracer.spans if r.name == "categorical.discover")
        assert span.attributes["stop_reason"] == "max_iterations"


# ----------------------------------------------------------------------
# Equivalence with the dict-of-dicts reference (tests/core/categorical_oracle.py)
# ----------------------------------------------------------------------

#: "g0"/"g1" collide with group names; "u*" are grouped but never claim.
ACCOUNTS = ["a0", "a1", "a2", "a3", "b0", "b1", "g0", "g1"]
UNKNOWN = ["u0", "u1", "u2"]
TASKS = ["T0", "T1", "T2", "T3"]
LABEL_SETS = [
    [9, 10, -1, -10],  # repr order differs from numeric order
    ["x", 1, (1, "a"), -10, "y", ("b",)],  # mixed types
    ["A", "B"],  # two labels per task: frequent ties
]


@st.composite
def campaigns(draw):
    labels = draw(st.sampled_from(LABEL_SETS))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from(TASKS)),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    triples = [(a, t, draw(st.sampled_from(labels))) for a, t in pairs]
    assignment = draw(
        st.none()
        | st.dictionaries(st.sampled_from(ACCOUNTS + UNKNOWN), st.integers(0, 4))
    )
    grouping = None
    if assignment is not None:
        groups = {}
        for account, group in assignment.items():
            groups.setdefault(group, []).append(account)
        grouping = Grouping.from_groups(groups.values())
    return triples, grouping


def tenths(distances):
    """Weights 0.1, 0.2, ... 0.7 by source position, whatever the distances:
    their float sums depend on the order they are added in."""
    return (np.arange(len(distances)) % 7 + 1) / 10.0


@given(
    campaigns(),
    st.sampled_from([1, 2, 100]),
    st.sampled_from([crh_log_weights, reciprocal_weights, tenths]),
)
@settings(max_examples=300, deadline=None)
def test_discover_matches_dict_reference(campaign, max_iterations, weight_function):
    triples, grouping = campaign
    policy = ConvergencePolicy(max_iterations=max_iterations)
    result = CategoricalTruthDiscovery(weight_function, policy, grouping).discover(
        CategoricalClaims(triples)
    )
    _assert_identical(
        result, oracle_discover(triples, weight_function, policy, grouping)
    )


def test_vote_totals_add_in_claim_order():
    # Sources sort as a, p, q, r and carry weights 0.6, 0.3, 0.2, 0.1.  In
    # claim order B totals 0.1 + 0.2 + 0.3 = 0.6000000000000001 and beats
    # A's 0.6; added in source order it would tie at 0.6 and A would win.
    triples = [("r", "T1", "B"), ("q", "T1", "B"), ("p", "T1", "B"), ("a", "T1", "A")]
    weights = lambda distances: np.array([0.6, 0.3, 0.2, 0.1])  # noqa: E731
    result = CategoricalTruthDiscovery(weights).discover(CategoricalClaims(triples))
    assert result.truths == {"T1": "B"}
    _assert_identical(result, oracle_discover(triples, weights))


def _claims_80k_labels(seed):
    """The ``claims-80k`` benchmark campaign's label triples (claims binned
    at 5 dBm) and grouping."""
    claims, grouping = claims_80k(seed)
    return [(a, t, int(math.floor(v / 5.0))) for _, a, t, v in claims], grouping


@pytest.mark.parametrize("grouped", [True, False])
def test_claims_80k_campaign_matches_dict_reference(grouped):
    triples, grouping = _claims_80k_labels(seed=20)
    grouping = grouping if grouped else None
    result = CategoricalTruthDiscovery(grouping=grouping).discover(
        CategoricalClaims(triples)
    )
    assert len(triples) > 75_000 and any(label < -10 for _, _, label in triples)
    _assert_identical(result, oracle_discover(triples, grouping=grouping))
