"""The ``claims-80k`` benchmark campaign, rebuilt for the oracle tests."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.types import Grouping


def claims_80k(
    seed, n_accounts=2000, n_tasks=500, n_groups=400, density=0.08
) -> Tuple[List[Tuple[float, str, str, float]], Grouping]:
    """``(timestamp, account, task, value)`` claims in time order, and a grouping.

    Same draws as the benchmark's generator: truths U(-90, -60) dBm,
    per-account noise, timestamps over eight hours, and a random
    partition of the claiming accounts into ``n_groups`` groups.
    """
    rng = np.random.default_rng([seed, 80])
    truths = rng.uniform(-90.0, -60.0, n_tasks)
    noise_std = rng.uniform(1.0, 4.0, n_accounts)
    claims = []
    for i in range(n_accounts):
        answered = np.flatnonzero(rng.random(n_tasks) < density)
        values = truths[answered] + rng.normal(0.0, noise_std[i], len(answered))
        stamps = rng.uniform(0.0, 8 * 3600.0, len(answered))
        claims.extend(
            (float(t), f"a{i:04d}", f"T{j:04d}", float(v))
            for j, v, t in zip(answered, values, stamps)
        )
    claims.sort()
    observed = {account for _, account, _, _ in claims}
    members = {}
    for i, group in enumerate(rng.integers(0, n_groups, n_accounts)):
        if f"a{i:04d}" in observed:
            members.setdefault(int(group), []).append(f"a{i:04d}")
    return claims, Grouping.from_groups(members.values())
