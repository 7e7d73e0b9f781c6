"""The grouping-strategy interface shared by all AG-* methods.

The framework (Algorithm 2, line 1) calls ``AG(D, F)`` — an opaque
procedure taking the sensing data and the device fingerprints and
returning a partition of accounts.  :class:`AccountGrouper` captures that
contract; each concrete method uses whichever of the two inputs it needs
and ignores the other.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.core.dataset import SensingDataset
from repro.core.types import Grouping


class AccountGrouper(abc.ABC):
    """Strategy interface: partition accounts into suspected-same-user groups.

    Implementations must return a :class:`~repro.core.types.Grouping`
    covering every account that appears in the dataset, every account that
    provided a fingerprint, or both — the framework projects the grouping
    onto the dataset's accounts before use and treats uncovered accounts
    as singletons, so partial coverage degrades gracefully rather than
    failing.
    """

    @abc.abstractmethod
    def group(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
    ) -> Grouping:
        """Partition the accounts.

        Parameters
        ----------
        dataset:
            The sensing data ``D`` (task sets, values, timestamps).
        fingerprints:
            The device fingerprints ``F`` — a sequence of
            :class:`~repro.sensors.fingerprint.FingerprintCapture`, one
            per account.  Methods that do not use fingerprints accept and
            ignore ``None``.
        """

    @staticmethod
    def complete(grouping: Grouping, dataset: SensingDataset) -> Grouping:
        """Extend a grouping so it covers every dataset account.

        Accounts the method could not score (e.g. no fingerprint on file)
        become singleton groups — the conservative choice: an unscored
        account is treated as an independent user.
        """
        extra = [[account] for account in dataset.accounts if account not in grouping]
        if not extra:
            return grouping
        return Grouping.from_groups([set(g) for g in grouping.groups] + extra)
