"""Brute-force reference: hand-checked sets, maximality, size guard."""

import itertools
import sys
import traceback

import numpy as np
import pytest

from conftest import directed_state, make_topology, random_instance, two_route_network
from qnetcap import datasets
from qnetcap.oracle import (
    SizeGuardError,
    _all_simple_paths,
    brute_force_capacity,
    enumerate_path_sets,
)
from qnetcap.snapshot import SnapshotState


def triangle():
    return make_topology({"v": 0.5}, [("s", "t"), ("s", "v"), ("v", "t")])


def test_triangle_capacity_by_hand():
    # {direct, s-v-t} scores 1.5; {direct} alone scores 1
    assert brute_force_capacity(directed_state(triangle())) == pytest.approx(1.5)


def test_triangle_maximal_sets():
    # the lone maximal set packs both paths; {direct} alone is not maximal
    sets = list(enumerate_path_sets(directed_state(triangle())))
    assert len(sets) == 1
    assert sets[0][1] == pytest.approx(1.5)
    assert max(v for _, v in sets) == brute_force_capacity(directed_state(triangle()))


def test_c6_demo_has_three_maximal_sets():
    g = directed_state(datasets.c6_demo(0.1))
    sets = list(enumerate_path_sets(g))
    assert len(sets) == 3
    values = sorted(v for _, v in sets)
    assert values == pytest.approx([0.1**2, 0.2, 1.0])


def test_single_chain_single_set():
    t = make_topology({"a": 0.7}, [("s", "a"), ("a", "t")])
    sets = list(enumerate_path_sets(directed_state(t)))
    assert len(sets) == 1
    assert sets[0][0] == (("s", "a", "t"),)
    assert sets[0][1] == pytest.approx(0.7)


@pytest.mark.parametrize("eps, expected", [(0.1, 1.0), (0.7, 1.4)])
def test_c6_demo_capacity(eps, expected):
    g = directed_state(datasets.c6_demo(eps))
    assert brute_force_capacity(g) == pytest.approx(expected, abs=1e-12)


def test_no_path_zero(five_node):
    g = directed_state(five_node, SnapshotState.from_counts(five_node, {"0-1": 1}))
    assert brute_force_capacity(g) == 0.0
    assert list(enumerate_path_sets(g)) == []


def test_two_route_covers_both_options():
    g = directed_state(two_route_network(0.1, 0.9, 0.9, 0.1))
    sets = {frozenset(paths) for paths, _ in enumerate_path_sets(g)}
    both_chains = frozenset(
        {("s", "a1", "a2", "t"), ("s", "a3", "a4", "t")}
    )
    chord = frozenset({("s", "a3", "a2", "t")})
    assert both_chains in sets
    assert any(chord <= s for s in sets)


def test_sets_are_yielded_once():
    g = directed_state(two_route_network(0.5, 0.5, 0.5, 0.5))
    sets = [frozenset(paths) for paths, _ in enumerate_path_sets(g)]
    assert len(sets) == len(set(sets))


def test_every_set_value_bounded_by_capacity():
    g = directed_state(two_route_network(0.3, 0.6, 0.9, 0.2))
    best = brute_force_capacity(g)
    for _, value in enumerate_path_sets(g):
        assert value <= best + 1e-12


def test_maximal_restriction_is_lossless():
    # max over maximal sets must equal max over ALL disjoint subsets
    rng = np.random.default_rng(7)
    for _ in range(40):
        t, state = random_instance(rng, max_internal=3, max_edges=6)
        g = directed_state(t, state)
        paths = _all_simple_paths(g)
        best_all = 0.0
        for r in range(len(paths) + 1):
            for combo in itertools.combinations(range(len(paths)), r):
                used = set()
                ok = True
                for i in combo:
                    if paths[i][2] & used:
                        ok = False
                        break
                    used |= paths[i][2]
                if ok:
                    best_all = max(best_all, sum(paths[i][1] for i in combo))
        assert brute_force_capacity(g) == pytest.approx(best_all, abs=1e-12)


def test_size_guard_refuses_large_instances(abilene):
    g = directed_state(abilene)
    with pytest.raises(SizeGuardError, match="cap is 10"):
        brute_force_capacity(g, max_edges=10)


def test_size_guard_override(abilene):
    g = directed_state(abilene)
    assert brute_force_capacity(g, max_edges=20) == pytest.approx(1.607, abs=5e-4)


def recursive_path_sets(g):
    """enumerate_path_sets as it was, one recursion level per path."""
    paths = _all_simple_paths(g)
    n = len(paths)

    def rec(i, chosen, used):
        if i == n:
            if all(paths[j][2] & used for j in range(n)):
                yield tuple(paths[j][0] for j in chosen), sum(paths[j][1] for j in chosen)
            return
        if not paths[i][2] & used:
            yield from rec(i + 1, chosen + [i], used | paths[i][2])
        yield from rec(i + 1, chosen, used)

    return list(rec(0, [], frozenset())) if paths else []


def test_path_sets_come_in_the_recursive_order():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = directed_state(*random_instance(rng, max_internal=4, max_edges=9, mux=True))
        assert list(enumerate_path_sets(g)) == recursive_path_sets(g)


def bridged_block(size):
    """s joined by one link to b0 of a complete block of `size` nodes, t
    among them: every path crosses the bridge s-b0."""
    block = [f"b{i}" for i in range(size - 1)] + ["t"]
    pairs = [("s", "b0")] + list(itertools.combinations(block, 2))
    return make_topology({b: 0.9 for b in block[:-1]}, pairs)


def test_path_sets_do_not_recurse_per_path():
    # 326 paths, each a maximal set of its own as all share the bridge;
    # the enumeration once nested a generator per path
    g = directed_state(bridged_block(7))
    assert len(_all_simple_paths(g)) == 326
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        sets = list(enumerate_path_sets(g, max_edges=40))
    finally:
        sys.setrecursionlimit(limit)
    assert len(sets) == 326 and all(len(paths) == 1 for paths, _ in sets)
    assert max(value for _, value in sets) == pytest.approx(0.9, abs=0)
