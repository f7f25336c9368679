from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stspgl.model import build_instance
from stspgl.scenarios import generate_instance


@pytest.fixture
def d1():
    """Five collinear nodes, two requests, two complementary demand scenarios.

    Small enough to enumerate everything by hand: the minimal covers are
    {(1,3)} (objective 5.0) and {(2,4)} (objective 6.5).
    """
    return build_instance(
        compulsory=[0],
        requests=[(1, 3), (2, 4)],
        demand=[[10.0, 0.0], [0.0, 10.0]],
        theta=0.5,
        rho=0.5,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )


@pytest.fixture
def small_instance():
    """One representative generated instance at brute-forceable scale."""
    return generate_instance(n=7, seed=11, n_requests=6, n_scenarios=4)


def make_suite(count, start_seed=0, **kwargs):
    """Deterministic list of small generated instances."""
    defaults = dict(n=7, n_requests=6, n_scenarios=4, theta=0.7, rho=0.25)
    defaults.update(kwargs)
    return [generate_instance(seed=start_seed + i, **defaults) for i in range(count)]
