from __future__ import annotations

import random

import pytest

from oracles import enumerate_minimal_covers
from stspgl.covers import (
    CoverError,
    explore,
    induced_requests,
    is_minimal,
    local_search,
    make_cover,
    minimal_feasibility_cover,
    random_minimal_node_cover,
)
from stspgl.model import build_instance
from stspgl.scenarios import chance_feasible, generate_instance


def test_make_cover_incidence_vectors(d1):
    cov = make_cover(d1, [(1, 3)])
    assert cov.requests == ((1, 3),)
    assert cov.visited == {0, 1, 3}
    assert cov.node_incidence == {0: 1, 1: 1, 2: 0, 3: 1, 4: 0}
    assert cov.request_incidence == {(1, 3): 1, (2, 4): 0}


def test_make_cover_rejects_non_cover(d1):
    with pytest.raises(CoverError):
        make_cover(d1, [])


def test_minimalization_on_d1(d1):
    cov = minimal_feasibility_cover(d1, d1.requests)
    assert cov.requests == ((2, 4),)  # removing (1,3) first succeeds
    assert minimal_feasibility_cover(d1, [(1, 3)]).requests == ((1, 3),)


def test_minimalization_rejects_non_cover(d1):
    with pytest.raises(CoverError):
        minimal_feasibility_cover(d1, [])


def test_minimalization_empty_when_theta_zero(d1):
    free = build_instance(
        compulsory=[0],
        requests=list(d1.requests),
        demand=[[10.0, 0.0], [0.0, 10.0]],
        theta=0.0,
        rho=0.5,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )
    assert minimal_feasibility_cover(free, free.requests).requests == ()
    assert is_minimal(free, ())


def test_is_minimal_on_d1(d1):
    assert is_minimal(d1, [(1, 3)])
    assert is_minimal(d1, [(2, 4)])
    assert not is_minimal(d1, d1.requests)
    assert not is_minimal(d1, [])  # not even a cover


def test_random_minimal_node_cover_full_size_always_succeeds(d1):
    seen = set()
    nodes = random_minimal_node_cover(d1, n=5, seed=0, seen=seen)
    assert nodes is not None
    assert d1.compulsory <= nodes
    assert chance_feasible(d1, induced_requests(d1, nodes))
    # seen is keyed on the drawn set, which at n=|N| is all nodes
    assert frozenset(range(5)) in seen


def test_random_minimal_node_cover_shrinks_to_minimality(d1):
    nodes = random_minimal_node_cover(d1, n=5, seed=3, seen=set())
    for v in nodes - d1.compulsory:
        assert not chance_feasible(d1, induced_requests(d1, nodes - {v}))


def test_random_minimal_node_cover_exhaustion(d1):
    # every draw of size 5 is the full node set; once seen, nothing is left
    seen = {frozenset(range(5))}
    assert random_minimal_node_cover(d1, n=5, seed=0, seen=seen, attempts=50) is None


def test_random_minimal_node_cover_infeasible_instance():
    inst = build_instance(
        compulsory=[0],
        requests=[(1, 2)],
        demand=[[1.0]],
        theta=1.0,
        rho=0.0,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(4)] for i in range(4)],
    )
    # theta=1 needs the single request, so size-2 node sets never induce a cover
    assert random_minimal_node_cover(inst, n=2, seed=1, seen=set(), attempts=30) is None


def test_random_minimal_node_cover_deterministic(d1):
    a = random_minimal_node_cover(d1, n=4, seed=9, seen=set())
    b = random_minimal_node_cover(d1, n=4, seed=9, seen=set())
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b


def test_explore_on_d1_returns_a_minimal_cover(d1):
    found = set()
    for seed in range(12):
        cov = explore(d1, n=5, seed=seed, seen=set())
        assert cov is not None
        assert cov.requests in {((1, 3),), ((2, 4),)}
        found.add(cov.requests)
    assert len(found) == 2  # removal order varies with the seed


def test_explore_respects_seen(d1):
    assert explore(d1, n=5, seed=0, seen={frozenset(range(5))}) is None


def test_local_search_swaps_d1_cover(d1):
    cov = make_cover(d1, [(1, 3)])
    out = local_search(d1, cov, seed=4)
    assert out is not None
    assert out.requests == ((2, 4),)


def test_local_search_singleton_universe():
    inst = build_instance(
        compulsory=[0],
        requests=[(1, 2)],
        demand=[[4.0], [6.0]],
        theta=0.5,
        rho=0.5,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(3)] for i in range(3)],
    )
    cov = make_cover(inst, [(1, 2)])
    out = local_search(inst, cov, seed=0)
    assert out is not None
    assert out.requests == ((1, 2),)  # re-added, no alternative exists


def test_local_search_deterministic(d1):
    cov = make_cover(d1, [(2, 4)])
    a = local_search(d1, cov, seed=7)
    b = local_search(d1, cov, seed=7)
    assert a.requests == b.requests


def test_cover_algebra_properties_random_suite():
    rng = random.Random(2024)
    for trial in range(60):
        inst = generate_instance(
            n=rng.choice([5, 6, 7]),
            seed=1000 + trial,
            n_requests=rng.choice([4, 5, 6]),
            n_scenarios=rng.choice([2, 3, 4]),
            theta=rng.choice([0.5, 0.7, 0.9]),
            rho=rng.choice([0.0, 0.25, 0.5]),
        )
        if not chance_feasible(inst, inst.requests):
            continue
        cov = minimal_feasibility_cover(inst, inst.requests)
        assert set(cov.requests) <= set(inst.requests)
        assert chance_feasible(inst, cov.requests)
        assert is_minimal(inst, cov.requests)
        seed = rng.randrange(10**6)
        exp = explore(inst, n=inst.n, seed=seed, seen=set())
        assert exp is not None
        assert is_minimal(inst, exp.requests)
        ls = local_search(inst, exp, seed=seed + 1)
        if ls is not None:
            assert is_minimal(inst, ls.requests)
        # feasibility is monotone under supersets
        sub = sorted(cov.requests)
        extra = sorted(set(inst.requests) - set(sub))
        grown = list(sub)
        for hk in extra:
            grown.append(hk)
            assert chance_feasible(inst, grown)


def test_minimal_covers_match_enumeration_oracle():
    for seed in range(8):
        inst = generate_instance(n=6, seed=seed, n_requests=5, n_scenarios=3,
                                 theta=0.7, rho=0.3)
        oracle = enumerate_minimal_covers(inst)
        mine = sorted(
            {
                cov
                for cov in _all_subset_fixed_points(inst)
            }
        )
        assert mine == oracle


def _all_subset_fixed_points(inst):
    import itertools

    out = []
    for size in range(len(inst.requests) + 1):
        for subset in itertools.combinations(inst.requests, size):
            if chance_feasible(inst, subset) and is_minimal(inst, subset):
                out.append(tuple(sorted(subset)))
    return out
