"""Gated assignment solved against an exhaustive permutation oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmot.assignment import _SENTINEL, INADMISSIBLE, solve_gated_assignment


def brute_force_min_cost(costs: np.ndarray, gate: float):
    """Minimum-cost admissible matching by trying every permutation.

    Pairs with cost > gate or infinite cost are simply left unmatched;
    a matching is any injective partial map from rows to columns.
    Returns (best_cost, best_set_of_pairs). Exponential, fine up to ~7x7.
    """
    n, m = costs.shape
    rows = list(range(n))
    best_cost = 0.0
    best_pairs: set[tuple[int, int]] = set()
    k = min(n, m)
    for size in range(k, -1, -1):
        for row_subset in itertools.combinations(rows, size):
            for col_perm in itertools.permutations(range(m), size):
                cost = 0.0
                ok = True
                for r, c in zip(row_subset, col_perm):
                    v = costs[r, c]
                    if not math.isfinite(v) or v > gate:
                        ok = False
                        break
                    cost += v
                if not ok:
                    continue
                pairs = set(zip(row_subset, col_perm))
                if len(pairs) > len(best_pairs) or (
                    len(pairs) == len(best_pairs) and cost < best_cost
                ):
                    best_cost = cost
                    best_pairs = pairs
    return best_cost, best_pairs


def _total(costs, matches):
    return float(sum(costs[r, c] for r, c in matches))


def test_empty_matrix():
    res = solve_gated_assignment(np.zeros((0, 0)), 1.0)
    assert res.matches == []
    assert res.unmatched_tracks == []
    assert res.unmatched_detections == []


def test_no_rows():
    res = solve_gated_assignment(np.zeros((0, 3)), 1.0)
    assert res.matches == []
    assert res.unmatched_detections == [0, 1, 2]


def test_no_cols():
    res = solve_gated_assignment(np.zeros((4, 0)), 1.0)
    assert res.matches == []
    assert res.unmatched_tracks == [0, 1, 2, 3]


def test_single_admissible_pair():
    costs = np.array([[0.3]])
    res = solve_gated_assignment(costs, 0.5)
    assert res.matches == [(0, 0)]
    assert res.unmatched_tracks == []
    assert res.unmatched_detections == []


def test_single_gated_pair():
    costs = np.array([[0.7]])
    res = solve_gated_assignment(costs, 0.5)
    assert res.matches == []
    assert res.unmatched_tracks == [0]
    assert res.unmatched_detections == [0]


def test_gate_boundary_is_inclusive():
    costs = np.array([[0.5]])
    res = solve_gated_assignment(costs, 0.5)
    assert res.matches == [(0, 0)]


def test_inadmissible_marker_never_matched():
    costs = np.array([[INADMISSIBLE, 0.1], [0.2, INADMISSIBLE]])
    res = solve_gated_assignment(costs, 10.0)
    assert set(res.matches) == {(0, 1), (1, 0)}


def test_all_inadmissible():
    costs = np.full((3, 3), INADMISSIBLE)
    res = solve_gated_assignment(costs, 100.0)
    assert res.matches == []
    assert res.unmatched_tracks == [0, 1, 2]
    assert res.unmatched_detections == [0, 1, 2]


def test_prefers_cheaper_over_greedy():
    # Greedy row-by-row picks (0,0) at 0.1 then forces (1,1) at 0.9
    # for 1.0 total; the optimum is 0.2 + 0.3 = 0.5.
    costs = np.array([[0.1, 0.2], [0.3, 0.9]])
    res = solve_gated_assignment(costs, 1.0)
    assert set(res.matches) == {(0, 1), (1, 0)}


def test_rectangular_more_tracks():
    costs = np.array([[0.1, 0.4], [0.2, 0.5], [0.9, 0.3]])
    res = solve_gated_assignment(costs, 1.0)
    assert len(res.matches) == 2
    matched_rows = {r for r, _ in res.matches}
    assert len(res.unmatched_tracks) == 1
    assert set(res.unmatched_tracks) | matched_rows == {0, 1, 2}


def test_unmatched_lists_sorted_and_complete():
    rng = np.random.default_rng(7)
    costs = rng.uniform(0.0, 2.0, size=(6, 4))
    res = solve_gated_assignment(costs, 0.8)
    rows = sorted(r for r, _ in res.matches) + res.unmatched_tracks
    cols = sorted(c for _, c in res.matches) + res.unmatched_detections
    assert sorted(rows) == list(range(6))
    assert sorted(cols) == list(range(4))
    assert res.unmatched_tracks == sorted(res.unmatched_tracks)
    assert res.unmatched_detections == sorted(res.unmatched_detections)


def test_matches_all_respect_gate():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 1.5, size=(n, m))
        gate = float(rng.uniform(0.2, 1.2))
        res = solve_gated_assignment(costs, gate)
        for r, c in res.matches:
            assert costs[r, c] <= gate


def test_three_by_three_anti_diagonal():
    costs = np.array([
        [0.1, 0.9, 0.9],
        [0.9, 0.9, 0.1],
        [0.9, 0.1, 0.9],
    ])
    res = solve_gated_assignment(costs, 1.0)
    oracle_cost, oracle_pairs = brute_force_min_cost(costs, 1.0)
    assert set(res.matches) == {(0, 0), (1, 2), (2, 1)}
    assert set(res.matches) == oracle_pairs
    assert _total(costs, res.matches) == pytest.approx(0.3)
    assert oracle_cost == pytest.approx(0.3)


def test_constant_shift_keeps_pair_set():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        costs = rng.uniform(0.0, 0.4, size=(n, m))
        base = solve_gated_assignment(costs, 1.0)
        shifted = solve_gated_assignment(costs + 0.5, 1.0 + 0.5)
        assert set(base.matches) == set(shifted.matches)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_permutation_oracle_small(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        costs = rng.uniform(0.0, 1.0, size=(n, m))
        # Sprinkle gated-out entries
        mask = rng.uniform(size=(n, m)) < 0.25
        costs[mask] = INADMISSIBLE
        gate = float(rng.uniform(0.3, 0.9))
        res = solve_gated_assignment(costs, gate)
        oracle_cost, oracle_pairs = brute_force_min_cost(costs, gate)
        assert len(res.matches) == len(oracle_pairs)
        assert _total(costs, res.matches) == pytest.approx(oracle_cost, abs=1e-9)


def test_component_larger_than_a_pair_beside_lone_pairs():
    # Rows 0-1 and columns 0-2 form one five-node component; (2, 3) is a
    # lone pair matched directly.
    costs = np.array([
        [0.1, 0.2, INADMISSIBLE, INADMISSIBLE],
        [INADMISSIBLE, 0.3, 0.35, INADMISSIBLE],
        [INADMISSIBLE, INADMISSIBLE, INADMISSIBLE, 0.4],
    ])
    res = solve_gated_assignment(costs, 0.5)
    assert res.matches == [(0, 0), (1, 1), (2, 3)]
    assert res.unmatched_tracks == []
    assert res.unmatched_detections == [2]


@st.composite
def gated_matrices(draw):
    """(costs, gate): random rectangular matrices up to 12x12, with sparse
    or dense admissibility, dense blocks of 3-6 nodes and tied costs."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    costs = rng.uniform(0.0, 1.0, size=(n, m))
    if draw(st.booleans()):
        costs = np.round(costs, 1)
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    costs[rng.uniform(size=(n, m)) >= density] = INADMISSIBLE
    for _ in range(draw(st.integers(0, 3))):
        h, w = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        if n >= h and m >= w:
            r0, c0 = int(rng.integers(0, n - h + 1)), int(rng.integers(0, m - w + 1))
            costs[r0:r0 + h, c0:c0 + w] = np.round(rng.uniform(0.0, 1.0, (h, w)), 1)
    gate = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    return costs, gate


@settings(max_examples=400, deadline=None)
@given(gated_matrices())
def test_matches_scipy_on_sentinel_filled_matrix(case):
    from scipy.optimize import linear_sum_assignment

    costs, gate = case
    n, m = costs.shape
    res = solve_gated_assignment(costs, gate)
    filled = np.where(costs <= gate, costs, _SENTINEL)
    rows, cols = linear_sum_assignment(filled)
    oracle = [(r, c) for r, c in zip(rows, cols) if filled[r, c] < _SENTINEL]
    assert len(res.matches) == len(oracle)
    assert _total(costs, res.matches) == pytest.approx(_total(costs, oracle), abs=1e-9)
    assert all(costs[r, c] <= gate for r, c in res.matches)
    assert res.matches == sorted(res.matches)
    matched_rows = {r for r, _ in res.matches}
    matched_cols = {c for _, c in res.matches}
    assert len(matched_rows) == len(matched_cols) == len(res.matches)
    assert res.unmatched_tracks == [r for r in range(n) if r not in matched_rows]
    assert res.unmatched_detections == [c for c in range(m) if c not in matched_cols]
