"""Internal numpy helpers: the shared numerical floor."""

from __future__ import annotations

#: Numerical floor shared across the library: keeps logarithms and
#: divisions finite when a distance, spread, or weight mass is exactly
#: zero (e.g. a source agreeing perfectly with every truth estimate).
EPS = 1e-12
