"""Hypothesis strategies for fingerprint streams and captures."""

import numpy as np
from hypothesis import strategies as st

from repro.features.extractor import STREAM_NAMES


@st.composite
def streams(draw, max_len=400, length=None):
    """Noise, integer steps (plateaus and exact zeros) or constants, at
    magnitudes from 1e-6 to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = length if length is not None else draw(st.integers(2, max_len))
    kind = draw(st.sampled_from(["noise", "steps", "constant"]))
    if kind == "noise":
        signal = rng.normal(size=n)
        signal[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    elif kind == "steps":
        signal = np.repeat(rng.integers(-2, 3, size=n), rng.integers(1, 6, size=n))
        signal = signal[:n].astype(float)
    else:
        signal = np.full(n, draw(st.sampled_from([0.0, -1.0, 3.5])))
    return signal * 10.0 ** draw(st.floats(-6, 6))


def capture_lists(draw_streams, max_size=3):
    """Lists of raw capture mappings whose four streams draw independently."""
    return st.lists(
        st.fixed_dictionaries({name: draw_streams for name in STREAM_NAMES}),
        min_size=1,
        max_size=max_size,
    )
