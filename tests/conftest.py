import contextlib
import multiprocessing
import os

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from labelsearch import TaskSpec, generate_task, search
from labelsearch.learners import _gray_flip_blocks

hypothesis.settings.register_profile(
    "ci", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.register_profile(
    "thorough", max_examples=300, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def fresh_sweep_group():
    """Start every test without sweep workers, so that a test's patches
    of the search module reach the workers its calls fork."""
    search._GROUP.close()


def close_group_leaving_no_child():
    """Check that the only live children are the sweep group's workers,
    then close the group and check that no child is left."""
    workers = {process for process, _ in search._GROUP.workers}
    assert set(multiprocessing.active_children()) == workers
    search._GROUP.close()
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def umask(mask):
    """Run the body with ``mask`` as the process umask."""
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


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
