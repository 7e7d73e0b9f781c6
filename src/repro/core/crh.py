"""CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD 2014).

CRH is the truth discovery algorithm the paper uses both as the vulnerable
baseline (Section III-C, Table I) and as the iteration engine inside the
Sybil-resistant framework ("a truth discovery algorithm that is similar to
CRH", Section V).  For continuous data CRH alternates:

* weight update ``w_i = log( sum_k dist_k / dist_i )`` where ``dist_i`` is
  the sum over account *i*'s tasks of the squared deviation from the current
  truth, normalized by the task's claim spread;
* truth update ``d_j = sum_i w_i d_j^i / sum_i w_i``.

Our :class:`CRH` is a preset of
:class:`~repro.core.truth_discovery.IterativeTruthDiscovery` with exactly
those choices.  The paper argues CRH "is sufficient to represent existing
truth discovery algorithms since they have the same procedure as
Algorithm 1" — the other representatives live in
:mod:`repro.core.baselines`.
"""

from __future__ import annotations

from repro.core.truth_discovery import (
    ConvergencePolicy,
    IterativeTruthDiscovery,
    crh_log_weights,
)


class CRH(IterativeTruthDiscovery):
    """The CRH truth discovery algorithm for continuous (numerical) data.

    Parameters
    ----------
    convergence:
        Stopping policy.  CRH's reference implementation runs a fixed
        iteration count; the default here additionally stops early once
        truths move less than the tolerance.  Iteration-0 truths are the
        per-task claim means (CRH's common choice).

    Examples
    --------
    >>> from repro.core.dataset import SensingDataset
    >>> data = SensingDataset.from_matrix([[10.0, 20.0], [11.0, 21.0], [50.0, 20.5]])
    >>> result = CRH().discover(data)
    >>> 10.0 < result.truths["T1"] < 12.0
    True
    """

    def __init__(
        self,
        convergence: ConvergencePolicy = ConvergencePolicy(max_iterations=100),
    ):
        super().__init__(weight_function=crh_log_weights, convergence=convergence)
