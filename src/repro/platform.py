"""A multi-campaign crowdsensing platform: the framework in operation.

The paper's algorithms answer one campaign at a time.  A real deployment
runs campaign after campaign and accumulates knowledge: which accounts
keep landing in suspicious groups, which earned trust, who should no
longer be served.  :class:`CrowdsensingPlatform` packages that operating
loop around the library's pieces:

1. **exclusion** — data from banned accounts is dropped up front;
2. **grouping + Algorithm 2** — the configured grouper and the framework
   produce truths and group weights;
3. **payments** — group-level weight-proportional rewards
   (:mod:`repro.incentives`), so duplication never pays;
4. **reputation** — each account's normalized source weight feeds an
   exponentially-weighted running reputation;
5. **flagging & banning** — accounts in non-singleton groups collect
   strikes; at ``flag_threshold`` strikes they are banned from future
   campaigns.

The framework deliberately only *down-weights* within a campaign (false
positives must not silence honest users — Section IV-A); banning is the
cross-campaign escalation, justified by repeated evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

from repro.core.dataset import SensingDataset
from repro.core.framework import FrameworkResult, SybilResistantTruthDiscovery
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping, TaskId
from repro.errors import DataValidationError
from repro.incentives.payments import PaymentReport, group_level_payments
from repro.metrics.detection import flagged_accounts


@dataclass(frozen=True)
class CampaignOutcome:
    """Everything one platform campaign produced.

    Attributes
    ----------
    truths:
        Estimated truths for the campaign's tasks.
    grouping:
        The account partition used.
    flagged:
        Accounts that sat in a non-singleton group this campaign.
    newly_banned:
        Accounts whose strike count crossed the ban threshold now.
    excluded:
        Accounts whose data was dropped up front (banned earlier).
    payments:
        The campaign's reward allocation.
    framework_result:
        Full Algorithm 2 diagnostics.
    """

    truths: Mapping[TaskId, float]
    grouping: Grouping
    flagged: FrozenSet[AccountId]
    newly_banned: FrozenSet[AccountId]
    excluded: FrozenSet[AccountId]
    payments: PaymentReport
    framework_result: FrameworkResult


class CrowdsensingPlatform:
    """Stateful campaign runner with reputation and ban management.

    Parameters
    ----------
    grouper:
        The account grouping strategy used every campaign.
    budget_per_task:
        Reward budget split per task (group-level payments).
    reputation_decay:
        EWMA factor: ``rep = decay * rep + (1 - decay) * trust`` where
        ``trust`` is the account's group weight normalized by the
        campaign's maximum group weight.  Accounts absent from a
        campaign keep their reputation unchanged.
    flag_threshold:
        Strikes (campaigns spent in a non-singleton group) before a ban.
        ``0`` disables banning.
    aggregation, convergence:
        Passed through to the framework.
    """

    def __init__(
        self,
        grouper: AccountGrouper,
        budget_per_task: float = 1.0,
        reputation_decay: float = 0.7,
        flag_threshold: int = 2,
        aggregation: str = "inverse_deviation",
    ):
        if not 0.0 <= reputation_decay < 1.0:
            raise ValueError(
                f"reputation_decay must be in [0, 1), got {reputation_decay}"
            )
        if flag_threshold < 0:
            raise ValueError(
                f"flag_threshold must be >= 0, got {flag_threshold}"
            )
        self._grouper = grouper
        self._budget = budget_per_task
        self._decay = reputation_decay
        self._flag_threshold = flag_threshold
        self._framework = SybilResistantTruthDiscovery(
            grouper, aggregation=aggregation
        )
        self._reputations: Dict[AccountId, float] = {}
        self._strikes: Dict[AccountId, int] = {}
        self._banned: set = set()
        self._campaigns = 0

    # ------------------------------------------------------------------

    @property
    def reputations(self) -> Dict[AccountId, float]:
        """Current per-account reputation in [0, 1]."""
        return dict(self._reputations)

    @property
    def banned_accounts(self) -> FrozenSet[AccountId]:
        """Accounts excluded from all future campaigns."""
        return frozenset(self._banned)

    @property
    def strike_counts(self) -> Dict[AccountId, int]:
        """Suspicion strikes accumulated per account."""
        return dict(self._strikes)

    @property
    def campaigns_run(self) -> int:
        """Number of campaigns processed."""
        return self._campaigns

    # ------------------------------------------------------------------

    def run_campaign(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
    ) -> CampaignOutcome:
        """Process one campaign and fold its evidence into the state."""
        excluded = frozenset(self._banned & set(dataset.accounts))
        working = (
            dataset.without_accounts(excluded) if excluded else dataset
        )
        if len(working) == 0:
            raise DataValidationError(
                "campaign has no usable data (all contributors banned?)"
            )
        usable_fingerprints = None
        if fingerprints is not None:
            usable_fingerprints = [
                capture
                for capture in fingerprints
                if capture.account_id not in self._banned
            ]

        result = self._framework.discover(working, usable_fingerprints)
        payments = group_level_payments(working, result, self._budget)
        flagged = flagged_accounts(result.grouping)

        self._update_reputations(result)
        newly_banned = self._update_strikes(flagged)
        self._campaigns += 1

        return CampaignOutcome(
            truths=result.truths,
            grouping=result.grouping,
            flagged=frozenset(flagged),
            newly_banned=newly_banned,
            excluded=excluded,
            payments=payments,
            framework_result=result,
        )

    # ------------------------------------------------------------------

    def _update_reputations(self, result: FrameworkResult) -> None:
        weights = result.group_weights
        peak = max(weights.values(), default=0.0)
        for group_index, members in enumerate(result.grouping.groups):
            trust = weights.get(group_index, 0.0) / peak if peak > 0 else 0.0
            for account in members:
                previous = self._reputations.get(account, trust)
                self._reputations[account] = (
                    self._decay * previous + (1 - self._decay) * trust
                )

    def _update_strikes(self, flagged) -> FrozenSet[AccountId]:
        newly_banned = set()
        for account in flagged:
            self._strikes[account] = self._strikes.get(account, 0) + 1
            if (
                self._flag_threshold > 0
                and self._strikes[account] >= self._flag_threshold
                and account not in self._banned
            ):
                self._banned.add(account)
                newly_banned.add(account)
        return frozenset(newly_banned)
