"""Flow-network construction: Algorithm 1 gadget, construct+ (Lemma 12),
exact cut decisions on rational alpha, and the Newton search."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.clique_core import density_fraction
from repro.densest.bruteforce import brute_force_densest
from repro.densest.network import (
    build_network,
    group_instances,
    min_cut_vertices,
    newton_search,
)


def _mincut_value(vertex_ids, members, alpha, p, grouped=False):
    net, s, t, vid2node, _ = build_network(vertex_ids, members, alpha, p, grouped=grouped)
    return net.max_flow(s, t)


def test_group_instances():
    members = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [1, 2, 3, 5]])
    uniq, counts = group_instances(members)
    assert uniq.shape == (2, 4)
    assert sorted(counts.tolist()) == [1, 2]


def test_group_instances_empty():
    members = np.empty((0, 3), dtype=np.int64)
    uniq, counts = group_instances(members)
    assert uniq.shape[0] == 0 and counts.shape[0] == 0


def test_trivial_cut_capacity_is_h_mu():
    # alpha huge -> min cut is ({s}, rest) with capacity sum deg = h*mu
    members = np.array([[0, 1, 2], [1, 2, 3]])
    val = _mincut_value([0, 1, 2, 3], members, alpha=100.0, p=3)
    assert val == pytest.approx(3 * 2)


def test_alpha_zero_selects_everything():
    members = np.array([[0, 1, 2]])
    net, s, t, vid2node, _ = build_network([0, 1, 2], members, 0.0, 3)
    cut = min_cut_vertices(net, s, t, vid2node)
    assert cut == [0, 1, 2]


def test_binary_search_threshold_behaviour():
    # K4 triangles: mu=4, n=4, rho_opt=1. Cut empty iff alpha >= 1.
    members = np.array([list(c) for c in combinations(range(4), 3)])
    net, s, t, v2n, _ = build_network(range(4), members, 0.9, 3)
    assert min_cut_vertices(net, s, t, v2n) == [0, 1, 2, 3]
    net, s, t, v2n, _ = build_network(range(4), members, 1.1, 3)
    assert min_cut_vertices(net, s, t, v2n) == []


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.1, 2.0])
def test_lemma12_grouped_equals_ungrouped(alpha):
    """construct+ min-cut capacity == per-instance network capacity."""
    rng = np.random.default_rng(0)
    # duplicate-vertex-set instances (as diamonds produce)
    base = rng.integers(0, 8, size=(12, 4))
    base = base[np.array([len(set(r)) == 4 for r in base])]
    members = np.vstack([base, base[: len(base) // 2]])  # force duplicates
    vids = sorted(set(members.flatten()))
    v1 = _mincut_value(vids, members, alpha, 4, grouped=False)
    v2 = _mincut_value(vids, members, alpha, 4, grouped=True)
    assert v1 == pytest.approx(v2)


def test_network_node_count():
    members = np.array([[0, 1, 2], [1, 2, 3]])
    _, s, t, vid2node, n_nodes = build_network([0, 1, 2, 3], members, 1.0, 3)
    assert n_nodes == 1 + 4 + 2 + 1
    assert s == 0 and t == n_nodes - 1


@pytest.mark.parametrize("grouped", [False, True])
def test_cut_decision_is_exact_next_to_rho_opt(grouped):
    """K5's triangles (rho = 2) are the unique densest set; a triangle
    hanging off vertex 0 and an isolated vertex are not in it. Just below
    rho_opt the cut is exactly K5, at rho_opt it is empty: a float network
    compared with a tolerance cannot tell the two apart."""
    k5 = [list(c) for c in combinations(range(5), 3)]
    members = np.array(k5 + [[0, 5, 6]], dtype=np.int64)
    vids = list(range(8))
    s_star = list(range(5))
    rho = density_fraction(members, s_star)
    assert rho == 2
    net, s, t, v2n, _ = build_network(vids, members, rho - Fraction(1, 10**12), 3, grouped)
    assert min_cut_vertices(net, s, t, v2n) == s_star
    net, s, t, v2n, _ = build_network(vids, members, rho, 3, grouped)
    assert min_cut_vertices(net, s, t, v2n) == []


@st.composite
def _instances(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(p, 12))
    rows = draw(st.lists(st.permutations(range(n)).map(lambda r: r[:p]), max_size=24))
    members = np.array(rows, dtype=np.int64).reshape(len(rows), p)
    return n, p, members, draw(st.booleans())


@settings(max_examples=100, deadline=None, database=None)
@given(_instances())
def test_newton_search_matches_brute_force(case):
    n, p, members, grouped = case
    vids = list(range(n))
    stats = {"iterations": 0, "network_sizes": []}
    best, rho = newton_search(
        members, p, vids, vids, Fraction(members.shape[0], n), grouped, stats
    )
    bf_set, _ = brute_force_densest(members, vids)
    assert rho == density_fraction(members, bf_set)
    assert rho == density_fraction(members, best)
    assert stats["iterations"] == len(stats["network_sizes"]) >= 1
