import hypothesis
import hypothesis.strategies as st
import numpy as np

from labelsearch import TaskSpec, generate_task
from labelsearch.search import _gray_flip_blocks

hypothesis.settings.register_profile(
    "ci", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", max_examples=300, deadline=None
)
hypothesis.settings.load_profile("ci")


@st.composite
def small_tasks(draw, max_n=10, min_m=1, max_m=10):
    """Synthetic tasks small enough for exhaustive cross-checks."""
    spec = TaskSpec(
        m=draw(st.integers(min_m, max_m)),
        n=draw(st.integers(2, max_n)),
        d=draw(st.integers(1, 4)),
        separation=draw(st.floats(0.0, 5.0, allow_nan=False)),
        noise_sigma=draw(st.floats(0.3, 2.0, allow_nan=False)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return generate_task(spec)


learner_kinds = st.sampled_from(["centroid", "onenn"])


def ruler_walk(n):
    """The sweep's n-bit Gray ruler applied from word 0.

    Returns the flip index of each step and the 2**n visited words (word
    0 first, the word after step s at index s), as uint64 arrays.
    """
    flips = np.frombuffer(b"".join(_gray_flip_blocks(n)), dtype=np.uint8).astype(np.uint64)
    words = np.zeros(1 << n, dtype=np.uint64)
    np.bitwise_xor.accumulate(np.uint64(1) << flips, out=words[1:])
    return flips, words
