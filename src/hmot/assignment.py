"""Gated minimum-cost linear assignment on track/detection cost matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Marks a pair that must never be matched (cross-class, missing feature, ...).
INADMISSIBLE = np.inf

# Finite stand-in for inadmissible entries inside a component's solve; any
# value far above the [0, 1] cost range works, such pairs are dropped after.
_SENTINEL = 1e9


@dataclass
class AssociationResult:
    """Outcome of one association step, index-based.

    ``matches`` holds (row, col) pairs; unmatched lists hold the leftover row
    (track) and column (detection) indices.
    """

    matches: list[tuple[int, int]] = field(default_factory=list)
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def _lsap(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a finite n x m
    matrix, n <= m: shortest augmenting paths with dual potentials (Crouse,
    IEEE TAES 2016), the algorithm of ``scipy.optimize.linear_sum_assignment``.
    """
    n, m = len(cost), len(cost[0])
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col = [-1] * n, [-1] * m
    for cur in range(n):
        shortest, path = [math.inf] * m, [-1] * m
        # Reverse order makes a constant matrix give the identity, as scipy does.
        remaining = list(range(m - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows.append(i)
            row, base = cost[i], min_val - u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                reduced = base + row[j] - v[j]
                if reduced < shortest[j]:
                    path[j], shortest[j] = i, reduced
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _solve_component(costs: np.ndarray, admissible: np.ndarray,
                     rows: list[int], cols: list[int]) -> list[tuple[int, int]]:
    """Admissible pairs of the most-matches, then least-cost assignment of
    the sub-matrix ``rows`` x ``cols``."""
    sub = np.ix_(rows, cols)
    filled = np.where(admissible[sub], costs[sub], _SENTINEL)
    if len(rows) <= len(cols):
        pairs = list(enumerate(_lsap(filled.tolist())))
    else:
        pairs = [(r, c) for c, r in enumerate(_lsap(filled.T.tolist()))]
    return [(rows[r], cols[c]) for r, c in pairs if filled[r, c] < _SENTINEL]


def solve_gated_assignment(costs: np.ndarray, gate: float) -> AssociationResult:
    """Minimum-cost assignment over entries with cost <= gate.

    Entries above the gate (or INADMISSIBLE) are excluded. Among the
    admissible pairs the returned matching has the most matches and, among
    those, the least total cost; matches are sorted by row. Empty inputs
    yield an all-unmatched result.

    The admissible pairs split into connected components that are solved
    apart. A pair whose row and column have no other admissible entry is
    matched directly; larger components go to an exact solver.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n_rows, n_cols = costs.shape
    if n_rows == 0 or n_cols == 0:
        return AssociationResult([], list(range(n_rows)), list(range(n_cols)))
    admissible = (costs <= gate) & np.isfinite(costs)
    rows, cols = np.divmod(admissible.ravel().nonzero()[0], n_cols)  # row-major, as np.nonzero
    lone = ((np.bincount(rows, minlength=n_rows)[rows] == 1)
            & (np.bincount(cols, minlength=n_cols)[cols] == 1))
    matches = list(zip(rows[lone].tolist(), cols[lone].tolist()))
    if len(matches) < len(rows):
        # Search the other admissible pairs for connected components; node
        # r is row r, node n_rows + c is column c. Lone pairs are components
        # of their own and never reached.
        neighbours: dict[int, list[int]] = {}
        for r, c in zip(rows[~lone].tolist(), (cols[~lone] + n_rows).tolist()):
            neighbours.setdefault(r, []).append(c)
            neighbours.setdefault(c, []).append(r)
        seen: set[int] = set()
        for start in neighbours:
            if start in seen:
                continue
            stack, comp = [start], {start}
            while stack:
                for node in neighbours[stack.pop()]:
                    if node not in comp:
                        comp.add(node)
                        stack.append(node)
            seen |= comp
            comp_rows = sorted(node for node in comp if node < n_rows)
            comp_cols = sorted(node - n_rows for node in comp if node >= n_rows)
            matches += _solve_component(costs, admissible, comp_rows, comp_cols)
        matches.sort()
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return AssociationResult(matches, [r for r in range(n_rows) if r not in matched_rows],
                             [c for c in range(n_cols) if c not in matched_cols])
