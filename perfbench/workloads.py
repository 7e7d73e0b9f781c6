"""The three workloads: how their inputs are made and what one pass runs.

Every input is derived from the ``--seed`` the benchmark is given; the
program only ever sees the generated inputs (tasks, the raw observation
list, fingerprint captures, label triples and a supplied grouping).

One *pass* takes each campaign of a workload from its raw observation
list to published truths along every path the workload runs.  Each
program call is one *operation*: it is timed, then its output is checked
(outside the timed region) by :mod:`checks`.  A typed ``repro.errors``
exception or a failed check marks the operation failed; the pass goes on.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
from tracing import SpanRecorder, maybe_span

from repro.core.categorical import CategoricalClaims, CategoricalTruthDiscovery
from repro.core.crh import CRH
from repro.core.dataset import SensingDataset
from repro.core.framework import SybilResistantTruthDiscovery
from repro.core.grouping import FingerprintGrouper, TaskSetGrouper, TrajectoryGrouper
from repro.core.streaming import StreamingTruthDiscovery, replay_dataset
from repro.core.types import Grouping, Observation, Task
from repro.errors import ReproError
from repro.simulation.attackers import AttackerConfig, ConstantFabrication
from repro.simulation.scenario import PaperScenarioConfig, ScenarioConfig, build_scenario
from repro.simulation.users import UserConfig

#: AG-TS edge threshold rho and AG-TR edge threshold phi (the paper's
#: walkthrough values, also the program's defaults), passed explicitly so
#: the checks recompute with the same values.
RHO = 1.0
PHI = 1.0
#: AG-TR compares timestamps in hours.
TIMESTAMP_SCALE = 3600.0
#: Streaming replay: forgetting factor and window length (seconds).
STREAM_DECAY = 0.9
STREAM_BATCH_SECONDS = 600.0
#: Categorical labels are the claims binned to this width (dBm).
LABEL_BIN_DBM = 5.0

GROUPERS: Dict[str, Callable[[], Any]] = {
    "agfp": FingerprintGrouper,
    "agts": lambda: TaskSetGrouper(threshold=RHO),
    "agtr": lambda: TrajectoryGrouper(threshold=PHI, timestamp_scale=TIMESTAMP_SCALE),
}


@dataclass
class Campaign:
    """One campaign's generated inputs, as the platform would receive them."""

    name: str
    tasks: List[Task]
    observations: List[Observation]
    ground_truths: Dict[str, float]
    supplied: Grouping
    reference: Grouping
    groupers: Tuple[str, ...]
    captures: Optional[Tuple[Any, ...]] = None
    labels: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Calls per operation, by operation; the operation's time is their
    #: median.  Short calls are repeated so that one slow spell of a shared
    #: machine, or one collector pause, does not set the figure.
    repeats: Dict[str, int] = field(default_factory=dict)
    claims: Optional[checks.Claims] = None

    def prepare_checks(self) -> None:
        """Compile the benchmark's own view of the claims (not timed)."""
        self.claims = checks.Claims(self.observations)


def _label_triples(observations: Sequence[Observation]) -> List[Tuple[str, str, int]]:
    return [
        (o.account_id, o.task_id, int(math.floor(o.value / LABEL_BIN_DBM)))
        for o in observations
    ]


def _observed(grouping: Grouping, accounts: set) -> Grouping:
    return Grouping.from_groups([members & accounts for members in grouping.groups])


def _from_scenario(name: str, scenario, groupers: Tuple[str, ...]) -> Campaign:
    dataset = scenario.dataset
    observations = sorted(
        (o for a in dataset.accounts for o in dataset.observations_for_account(a)),
        key=lambda o: (o.timestamp, o.account_id, o.task_id),
    )
    reference = _observed(scenario.user_partition, set(dataset.accounts))
    return Campaign(
        name=name,
        tasks=[dataset.task(t) for t in dataset.tasks],
        observations=observations,
        ground_truths=dict(scenario.ground_truths),
        supplied=reference,
        reference=reference,
        groupers=groupers,
        captures=tuple(scenario.fingerprints) if "agfp" in groupers else None,
        labels=_label_triples(observations),
    )


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------

#: Every operation except account grouping.
CHEAP_OPERATIONS = ("dataset", "crh", "grouped", "stream", "categorical")

LEGIT_PANELS = (0.2, 0.5, 1.0)
SYBIL_LEVELS = (0.2, 0.4, 0.6, 0.8, 1.0)


def paper_grid(seed: int, size: str, recorder: Optional[SpanRecorder]) -> List[Campaign]:
    """Section V-A population over the Fig. 6/7 grid, one trial per cell."""
    if size == "tiny":
        cells = [(1, 2), (2, 4)]
    else:
        cells = [(p, s) for p in range(len(LEGIT_PANELS)) for s in range(len(SYBIL_LEVELS))]
    campaigns = []
    for p, s in cells:
        rng = np.random.default_rng([seed, p, s])
        config = PaperScenarioConfig(
            legit_activeness=LEGIT_PANELS[p], sybil_activeness=SYBIL_LEVELS[s]
        )
        with maybe_span(recorder, "simulation.scenario"):
            scenario = build_scenario(config, rng)
        campaign = _from_scenario(
            f"L{LEGIT_PANELS[p]}/S{SYBIL_LEVELS[s]}", scenario, ("agfp", "agts", "agtr")
        )
        campaign.repeats = dict.fromkeys(CHEAP_OPERATIONS, 5)
        campaigns.append(campaign)
    return campaigns


def population(seed: int, size: str, recorder: Optional[SpanRecorder]) -> List[Campaign]:
    """~600 accounts: ~400 legitimate users and ~40 attackers x 5 accounts
    alternating Attack-I/II, 100 tasks, ~28k claims."""
    n_legit, n_attackers, n_tasks = (40, 4, 20) if size == "tiny" else (400, 40, 100)
    rng = np.random.default_rng([seed, 7])
    legit = tuple(
        UserConfig(
            activeness=float(rng.uniform(0.3, 0.6)),
            noise_std=float(rng.uniform(1.0, 3.0)),
            bias=float(rng.normal(0.0, 0.5)),
        )
        for _ in range(n_legit)
    )
    attackers = tuple(
        (
            AttackerConfig(
                n_accounts=5,
                activeness=0.5,
                fabrication=ConstantFabrication(target=float(rng.uniform(-55.0, -45.0))),
            ),
            1 if index % 2 == 0 else 2,
        )
        for index in range(n_attackers)
    )
    config = ScenarioConfig(
        n_tasks=n_tasks, legit_users=legit, attackers=attackers, start_window=8 * 3600.0
    )
    with maybe_span(recorder, "simulation.scenario"):
        scenario = build_scenario(config, rng)
    campaign = _from_scenario("population", scenario, ("agts", "agtr"))
    campaign.repeats = {**dict.fromkeys(CHEAP_OPERATIONS, 5), "categorical": 3}
    return [campaign]


def claims_80k(seed: int, size: str, recorder: Optional[SpanRecorder]) -> List[Campaign]:
    """2000 accounts x 500 tasks at density 0.08 (~80k claims) with a fixed
    400-group partition of the accounts."""
    n_accounts, n_tasks, n_groups, density = (
        (200, 60, 40, 0.1) if size == "tiny" else (2000, 500, 400, 0.08)
    )
    rng = np.random.default_rng([seed, 80])
    truths = rng.uniform(-90.0, -60.0, n_tasks)
    noise_std = rng.uniform(1.0, 4.0, n_accounts)
    task_ids = [f"T{j:04d}" for j in range(n_tasks)]
    account_ids = [f"a{i:04d}" for i in range(n_accounts)]
    observations = []
    for i in range(n_accounts):
        answered = np.flatnonzero(rng.random(n_tasks) < density)
        values = truths[answered] + rng.normal(0.0, noise_std[i], len(answered))
        stamps = rng.uniform(0.0, 8 * 3600.0, len(answered))
        observations.extend(
            Observation(account_ids[i], task_ids[j], float(v), float(t))
            for j, v, t in zip(answered, values, stamps)
        )
    observations.sort(key=lambda o: (o.timestamp, o.account_id, o.task_id))
    observed = {o.account_id for o in observations}
    labels = rng.integers(0, n_groups, n_accounts)
    members: Dict[int, List[str]] = {}
    for account, label in zip(account_ids, labels):
        if account in observed:
            members.setdefault(int(label), []).append(account)
    partition = Grouping.from_groups(members.values())
    return [
        Campaign(
            name="claims-80k",
            tasks=[Task(task_id=t) for t in task_ids],
            observations=observations,
            ground_truths={t: float(v) for t, v in zip(task_ids, truths)},
            supplied=partition,
            reference=partition,
            groupers=(),
            labels=_label_triples(observations),
            repeats={**dict.fromkeys(CHEAP_OPERATIONS, 5), "categorical": 1},
        )
    ]


WORKLOADS: Dict[str, Callable[[int, str, Optional[SpanRecorder]], List[Campaign]]] = {
    "paper-grid": paper_grid,
    "population": population,
    "claims-80k": claims_80k,
}


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    """Timings and outcomes of one pass over every campaign."""

    times: Dict[str, float] = field(default_factory=dict)
    #: Every call's time, per (campaign index, operation).
    calls: Dict[Tuple[int, str], List[float]] = field(default_factory=dict)
    stream_claims: int = 0
    maes: List[float] = field(default_factory=list)
    aris: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: Any = None
    wall_s: float = 0.0

    @property
    def campaign_s(self) -> float:
        return sum(self.times.values())

    def add_time(self, key: str, seconds: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + seconds


#: The checked operations of a campaign; every pass attempts all of them.
def operations(campaign: Campaign) -> Tuple[str, ...]:
    return ("dataset", "crh", "grouped", "stream", "categorical") + campaign.groupers


def run_pass(
    campaigns: Sequence[Campaign],
    seed: int,
    recorder: Optional[SpanRecorder],
    single_calls: bool = False,
) -> PassResult:
    """One pass; ``single_calls`` makes every operation one call (the
    traced run's passes, so traced and untraced passes do the same work)."""
    out = PassResult()
    digest = hashlib.sha256()
    start = time.perf_counter()
    for index, campaign in enumerate(campaigns):
        _run_campaign(campaign, index, seed, recorder, single_calls, out, digest)
    out.wall_s = time.perf_counter() - start
    out.digest = digest.hexdigest()
    return out


def _run_campaign(
    c: Campaign,
    index: int,
    seed: int,
    recorder: Optional[SpanRecorder],
    single_calls: bool,
    out: PassResult,
    digest,
) -> None:
    """Every operation once, checked; then the repeat calls of the short
    operations, one round after each account-grouping path and the rest
    at the end, so that their samples span the whole pass."""
    claims = c.claims
    assert claims is not None, "prepare_checks() must run before a pass"

    def call(key: str, span: str, fn: Callable[[], Any]) -> Tuple[Any, Dict[str, Any]]:
        with maybe_span(recorder, span, campaign=c.name) as record:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        out.calls.setdefault((index, key), []).append(elapsed)
        digest.update(repr((c.name, key, _summary(result))).encode())
        return result, record

    def op(key: str, span: str, fn: Callable[[], Any], check: Callable[[Any], Any]) -> Any:
        out.attempted += 1
        try:
            result, record = call(key, span, fn)
            check(result)
            return result, record
        except (ReproError, checks.CheckFailed) as exc:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(f"{c.name} {key}: {type(exc).__name__}: {exc}")
            return None

    def build():
        return SensingDataset(c.tasks, c.observations)

    done = op(
        "dataset",
        "dataset.build",
        build,
        lambda ds: _expect(len(ds) == len(c.observations), "dataset lost claims"),
    )
    if done is None:
        # Nothing downstream can run without the dataset.
        rest = len(operations(c)) - 1
        out.attempted += rest
        out.failed += rest
        return
    dataset, record = done
    record["attrs"]["claims"] = len(dataset)

    def stream():
        engine = StreamingTruthDiscovery(decay=STREAM_DECAY, grouping=c.supplied)
        return replay_dataset(engine, c.observations, batch_seconds=STREAM_BATCH_SECONDS)

    def categorical():
        with maybe_span(recorder, "categorical.claims"):
            labelled = CategoricalClaims(c.labels)
        with maybe_span(recorder, "categorical.discover") as record:
            result = CategoricalTruthDiscovery(grouping=c.supplied).discover(labelled)
            record["attrs"]["iterations"] = result.iterations
        return result

    def check_grouped(result) -> None:
        checks.check_framework(claims, result)
        out.maes.append(checks.mean_absolute_error(result.truths, c.ground_truths))

    short = [
        ("dataset", "dataset.build", build, None),
        ("crh", "crh.discover", lambda: CRH().discover(dataset),
         lambda result: checks.check_crh(claims, result)),
        ("grouped", "path.grouped", lambda: _framework(dataset, c.supplied, recorder),
         check_grouped),
        ("stream", "path.stream", stream, lambda truths: checks.check_streaming(claims, truths)),
        ("categorical", "path.categorical", categorical,
         lambda result: checks.check_categorical(c.labels, c.supplied, result)),
    ]
    for key, span, fn, check in short[1:]:
        done = op(key, span, fn, check)
        if done is not None and key == "crh":
            done[1]["attrs"]["iterations"] = done[0].iterations
        if done is not None and key == "stream":
            out.stream_claims += len(c.observations)

    rounds = 1 if single_calls else max(c.repeats.values(), default=1)
    pending = list(range(1, rounds))

    def repeat_round(r: int) -> None:
        for key, span, fn, _ in short:
            if r < c.repeats.get(key, 1):
                out.attempted += 1
                try:
                    call(key, span, fn)
                except ReproError as exc:
                    out.failed += 1
                    if len(out.errors) < 5:
                        out.errors.append(f"{c.name} {key}: {type(exc).__name__}: {exc}")

    for name in c.groupers:

        def grouped_path(name: str = name):
            with maybe_span(recorder, "grouping.group", method=name):
                grouping = GROUPERS[name]().group(dataset, c.captures)
            with maybe_span(recorder, "framework.discover"):
                result = SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)
            return grouping, result

        def check_path(pair, name: str = name) -> None:
            grouping, result = pair
            expected = set(claims.accounts)
            if name == "agfp":
                expected |= {capture.account_id for capture in c.captures}
            checks.check_partition(grouping, expected)
            if name == "agts":
                checks.check_agts(claims, grouping, RHO, len(c.tasks))
            elif name == "agtr":
                checks.check_agtr(
                    claims,
                    grouping,
                    PHI,
                    TIMESTAMP_SCALE,
                    np.random.default_rng([seed, index]),
                    samples=100 if claims.n_rows > 100 else 20,
                )
            checks.check_framework(claims, result)
            out.maes.append(checks.mean_absolute_error(result.truths, c.ground_truths))
            out.aris.append(checks.grouping_ari(grouping, c.reference, claims.accounts))

        op(name, f"path.{name}", grouped_path, check_path)
        if pending:
            repeat_round(pending.pop(0))
    for r in pending:
        repeat_round(r)

    for (campaign, key), samples in out.calls.items():
        if campaign == index:
            out.add_time(key, median(samples))


def _framework(dataset, grouping, recorder):
    with maybe_span(recorder, "framework.discover"):
        return SybilResistantTruthDiscovery().discover(dataset, grouping=grouping)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise checks.CheckFailed(message)


def _summary(result: Any) -> Any:
    """A compact, exact fingerprint of an operation's output."""
    if isinstance(result, SensingDataset):
        return len(result)
    if isinstance(result, tuple):
        grouping, framework = result
        return (sorted(sorted(g) for g in grouping.groups), _summary(framework))
    if isinstance(result, dict):
        return sorted(result.items())
    return sorted(result.truths.items())


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def robust_time(passes: Sequence[PassResult], key: str) -> float:
    """Seconds one pass spends on ``key``: per campaign, the median of each
    pass's calls (robust to a single collector pause or spike), averaged
    over passes (so a run's fast and slow spells on a shared machine blend
    instead of the figure jumping between them), summed over campaigns."""
    per_campaign: Dict[int, List[float]] = {}
    for p in passes:
        for (index, op), times in p.calls.items():
            if op == key:
                per_campaign.setdefault(index, []).append(median(times))
    return sum(statistics.fmean(values) for values in per_campaign.values())
