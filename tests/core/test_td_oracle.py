"""Every numeric engine against the per-engine loops it replaced.

CRH, GTM, CATD and the weighted-median variant of Algorithm 1 all run
through :meth:`IterativeTruthDiscovery.discover`, and the framework's
cells collapse by aggregation name.  Their truths, weights, iteration
counts and convergence flags must equal the reference
(:mod:`tests.core.td_oracle`) bit for bit.  Inputs mix gaps, unanswered
tasks, single-claim tasks, repeated values, values up to the ``1e100``
bound and budgets that stop before convergence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import CATD, GTM
from repro.core.crh import CRH
from repro.core.dataset import SensingDataset
from repro.core.framework import GROUP_AGGREGATIONS, SybilResistantTruthDiscovery
from repro.core.truth_discovery import (
    ConvergencePolicy,
    IterativeTruthDiscovery,
    crh_log_weights,
    reciprocal_weights,
)
from repro.core.types import Grouping
from tests.core.td_oracle import oracle_catd, oracle_framework, oracle_gtm, oracle_td

values = st.sampled_from([0.0, 7.25, -3.5, 1e100, np.nan, np.nan]) | st.floats(
    -1e3, 1e3, allow_nan=False
)
policies = st.builds(
    ConvergencePolicy,
    max_iterations=st.sampled_from([1, 2, 5, 100]),
    tolerance=st.sampled_from([0.0, 1e-6, 0.5]),
)


@st.composite
def campaigns(draw):
    """A dataset of up to 6 accounts × 4 tasks with at least one claim."""
    n_accounts = draw(st.integers(1, 6))
    n_tasks = draw(st.integers(1, 4))
    cells = draw(
        st.lists(values, min_size=n_accounts * n_tasks, max_size=n_accounts * n_tasks)
    )
    matrix = np.array(cells, dtype=float).reshape(n_accounts, n_tasks)
    if np.isnan(matrix).all():
        matrix[0, 0] = 1.0
    accounts = draw(st.permutations([f"a{i}" for i in range(n_accounts)]))
    return SensingDataset.from_matrix(matrix, account_ids=accounts)


def _bits(mapping):
    return {key: float(value).hex() for key, value in mapping.items()}


def _history_bits(history):
    return [[float(x).hex() for x in row] for row in history]


def _assert_identical(new, old, history=True):
    assert _bits(new.truths) == _bits(old.truths)
    assert _bits(new.weights) == _bits(old.weights)
    assert new.iterations == old.iterations
    assert new.converged == old.converged
    if history:
        assert _history_bits(new.truth_history) == _history_bits(old.truth_history)


@settings(max_examples=200, deadline=None)
@given(campaigns(), policies)
def test_crh_matches_reference(dataset, policy):
    _assert_identical(CRH(policy).discover(dataset), oracle_td(dataset, convergence=policy))


@settings(max_examples=200, deadline=None)
@given(
    campaigns(),
    policies,
    st.sampled_from([crh_log_weights, reciprocal_weights]),
    st.sampled_from(["mean", "median"]),
)
def test_iterative_td_matches_reference(dataset, policy, weight_function, estimator):
    new = IterativeTruthDiscovery(
        weight_function, policy, truth_estimator=estimator
    ).discover(dataset)
    old = oracle_td(dataset, weight_function, policy, truth_estimator=estimator)
    _assert_identical(new, old)


@settings(max_examples=200, deadline=None)
@given(campaigns(), policies, st.sampled_from([0.5, 1.0, 3.0]))
def test_gtm_matches_reference(dataset, policy, prior):
    new = GTM(policy, alpha=prior, beta=1.0 / prior).discover(dataset)
    old = oracle_gtm(dataset, policy, alpha=prior, beta=1.0 / prior)
    _assert_identical(new, old, history=False)


@settings(max_examples=200, deadline=None)
@given(campaigns(), policies, st.sampled_from([0.05, 0.5, 0.95]))
def test_catd_matches_reference(dataset, policy, significance):
    new = CATD(significance, policy).discover(dataset)
    _assert_identical(new, oracle_catd(dataset, significance, policy), history=False)


@settings(max_examples=200, deadline=None)
@given(campaigns(), policies, st.sampled_from(sorted(GROUP_AGGREGATIONS)), st.data())
def test_framework_matches_reference(dataset, policy, aggregation, data):
    accounts = list(dataset.accounts)
    labels = data.draw(
        st.lists(
            st.integers(0, len(accounts) - 1),
            min_size=len(accounts),
            max_size=len(accounts),
        )
    )
    groups = {}
    for account, label in zip(accounts, labels):
        groups.setdefault(label, []).append(account)
    grouping = Grouping.from_groups(list(groups.values()))
    new = SybilResistantTruthDiscovery(
        aggregation=aggregation, convergence=policy
    ).discover(dataset, grouping=grouping)
    truths, group_weights, iterations, converged, history = oracle_framework(
        dataset, grouping, aggregation, policy
    )
    assert _bits(new.truths) == _bits(truths)
    assert _bits(new.group_weights) == _bits(group_weights)
    assert (new.iterations, new.converged) == (iterations, converged)
    assert _history_bits(new.truth_history) == _history_bits(history)
