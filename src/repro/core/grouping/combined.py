"""Combined account grouping — the paper's future-work extension.

Section IV-C's remarks state the three methods "are used independently in
the framework; we leave the combination of them for our future work".
This module implements the two natural combination semantics so the
extension can be evaluated (see the EXT-1 bench):

* **union** (``mode="union"``): accounts are grouped together if *any*
  constituent method links them — the transitive closure of the union of
  the methods' same-group relations.  High recall: Attack-I accounts are
  caught by AG-FP even when AG-TR misses them, and vice versa.  Risk:
  false-positives accumulate.
* **intersection** (``mode="intersection"``): accounts are grouped only if
  *every* method agrees — the common refinement (pairwise intersection of
  groups).  High precision, lower recall.

Both semantics produce valid partitions by construction: union takes
connected components over the merged relation; intersection intersects
blocks of the partitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import SensingDataset
from repro.core.grouping.base import AccountGrouper
from repro.core.types import AccountId, Grouping
from repro.graph.components import UndirectedGraph
from repro.obs import get_tracer


class CombinedGrouper(AccountGrouper):
    """Combine several grouping methods into one partition.

    Parameters
    ----------
    groupers:
        The constituent :class:`AccountGrouper` strategies (typically
        AG-FP + AG-TR, covering both attack types).
    mode:
        ``"union"`` (default) or ``"intersection"`` — see module docs.
    """

    def __init__(
        self,
        groupers: Sequence[AccountGrouper],
        mode: str = "union",
    ):
        if not groupers:
            raise ValueError("CombinedGrouper needs at least one constituent")
        if mode not in ("union", "intersection"):
            raise ValueError(f"mode must be 'union' or 'intersection', got {mode!r}")
        self.groupers = tuple(groupers)
        self.mode = mode

    def group(
        self,
        dataset: SensingDataset,
        fingerprints: Optional[Sequence] = None,
    ) -> Grouping:
        """Run every constituent (Eqs. 6-8 methods and AG-FP) and combine.

        Each constituent partitions the accounts with its own criterion
        — AG-TS's Eq. 6 affinity, AG-TR's Eq. 7/8 DTW dissimilarity, or
        AG-FP's fingerprint matching — and the partitions are merged
        under the union or intersection semantics.
        """
        with get_tracer().span(
            "grouping.combined",
            mode=self.mode,
            constituents=len(self.groupers),
        ) as span:
            partitions = [
                AccountGrouper.complete(grouper.group(dataset, fingerprints), dataset)
                for grouper in self.groupers
            ]
            if self.mode == "union":
                grouping = _union(partitions)
            else:
                grouping = _intersection(partitions)
            span.set("groups", len(grouping))
            return grouping


def _union(partitions: Sequence[Grouping]) -> Grouping:
    """Transitive closure of the union of same-group relations."""
    graph: UndirectedGraph[AccountId] = UndirectedGraph()
    for partition in partitions:
        for members in partition.groups:
            ordered = sorted(members)
            graph.add_node(ordered[0])
            # A path through the group suffices to connect it.
            for left, right in zip(ordered, ordered[1:]):
                graph.add_edge(left, right)
    return Grouping.from_groups(graph.connected_components())


def _intersection(partitions: Sequence[Grouping]) -> Grouping:
    """Common refinement: accounts grouped only when all methods agree."""
    accounts = set()
    for partition in partitions:
        accounts |= partition.accounts
    blocks: Dict[Tuple[int, ...], List[AccountId]] = {}
    for account in sorted(accounts):
        signature = tuple(
            partition.group_index_of(account) if account in partition else -1
            for partition in partitions
        )
        blocks.setdefault(signature, []).append(account)
    return Grouping.from_groups(blocks.values())
