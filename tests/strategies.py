"""Hypothesis settings and strategies shared by the property tests."""

import warnings

from hypothesis import settings
from hypothesis import strategies as st

from circulant_ilc import ContinuousPlant, discretize_zoh, realize

T = 0.02

# Runs are derandomized and keep no example database.
PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=40)


@st.composite
def sampled_plants(draw):
    """1-3 stable sections with poles on both sides of Nyquist (157 rad/s at 50 Hz)."""
    first, second = [], []
    for _ in range(draw(st.integers(1, 3))):
        omega = draw(st.floats(0.5, 500.0))
        if draw(st.booleans()):
            first.append(omega)
        else:
            second.append((omega, draw(st.floats(0.05, 2.0))))
    with warnings.catch_warnings():
        # poles above Nyquist are drawn on purpose
        warnings.filterwarnings("ignore", "pole at .* aliases", RuntimeWarning)
        return discretize_zoh(realize(ContinuousPlant(tuple(first), tuple(second))), T)


horizons = st.integers(2, 200)
