"""Alpha-vector (bounding-hyperplane) utilities.

Both the exact solver (Monahan enumeration) and the incremental lower-bound
sets of Section 4.1 represent piecewise-linear value functions as finite sets
of vectors: the value at belief ``pi`` is ``max_alpha pi . alpha``.  This
module provides evaluation and the two standard pruning operators
(pointwise dominance and exact LP dominance).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

#: Slack below which a vector is considered dominated in the LP test.
LP_EPSILON = 1e-9


def evaluate(vectors: np.ndarray, belief: np.ndarray) -> float:
    """``max_alpha pi . alpha`` for a ``(k, |S|)`` stack of vectors."""
    return float(np.max(vectors @ belief))


def evaluate_batch(vectors: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`evaluate` over a ``(m, |S|)`` stack of beliefs."""
    return np.max(vectors @ beliefs.T, axis=0)


def argmax_vector(vectors: np.ndarray, belief: np.ndarray) -> int:
    """Index of the maximising vector at ``belief``."""
    return int(np.argmax(vectors @ belief))


def pointwise_dominated(candidate: np.ndarray, vectors: np.ndarray) -> bool:
    """True if some vector in ``vectors`` is ``>= candidate`` everywhere.

    Pointwise dominance is sufficient but not necessary for uselessness;
    it is the cheap filter applied before the exact LP test.
    """
    if vectors.size == 0:
        return False
    return bool(np.any(np.all(vectors >= candidate - LP_EPSILON, axis=1)))


def prune_pointwise(vectors: np.ndarray) -> np.ndarray:
    """Drop vectors pointwise-dominated by another vector in the set."""
    return vectors[pointwise_survivors(vectors)]


def pointwise_survivors(vectors: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows :func:`prune_pointwise` keeps.

    A row is dropped when some other row is at least as good everywhere and
    either strictly better somewhere or an earlier duplicate (so exactly one
    copy of each tie survives).  Every pair is compared in one broadcast.
    """
    rows = vectors[:, None, :]  # candidate i against every other row j
    at_least = np.all(vectors >= rows - LP_EPSILON, axis=2)
    better = np.any(vectors > rows + LP_EPSILON, axis=2)
    earlier = np.tri(len(vectors), k=-1, dtype=bool)  # j < i
    dominated = at_least & (better | earlier)
    np.fill_diagonal(dominated, False)
    return np.flatnonzero(~dominated.any(axis=1))


def witness_belief(
    candidate: np.ndarray, vectors: np.ndarray
) -> np.ndarray | None:
    """A belief where ``candidate`` strictly beats every vector in ``vectors``.

    Solves the standard witness LP: maximise ``delta`` subject to
    ``pi . candidate >= pi . v + delta`` for every ``v``, ``pi`` in the
    probability simplex.  Returns the witness belief, or ``None`` when
    ``candidate`` is (weakly) dominated everywhere.
    """
    if vectors.size == 0:
        return np.full(candidate.shape[0], 1.0 / candidate.shape[0])
    n = candidate.shape[0]
    # Decision variables: [pi_1 .. pi_n, delta]; maximise delta.
    objective = np.zeros(n + 1)
    objective[-1] = -1.0
    inequality = np.hstack([vectors - candidate, np.ones((vectors.shape[0], 1))])
    inequality_rhs = np.zeros(vectors.shape[0])
    equality = np.hstack([np.ones((1, n)), np.zeros((1, 1))])
    equality_rhs = np.array([1.0])
    bounds = [(0.0, 1.0)] * n + [(None, None)]
    result = linprog(
        objective,
        A_ub=inequality,
        b_ub=inequality_rhs,
        A_eq=equality,
        b_eq=equality_rhs,
        bounds=bounds,
        method="highs",
    )
    if not result.success:  # pragma: no cover - solver failure is exceptional
        return None
    delta = -result.fun
    if delta <= LP_EPSILON:
        return None
    return result.x[:n]


def prune_lp(vectors: np.ndarray) -> np.ndarray:
    """Exact (Lark-style) pruning: keep only vectors useful at some belief."""
    return vectors[lp_survivors(vectors)]


def lp_survivors(vectors: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows :func:`prune_lp` keeps.

    After the cheap pointwise filter (which also dedups ties), a row
    survives iff the witness LP finds a belief where it strictly beats all
    remaining rivals.
    """
    survivors = pointwise_survivors(vectors)
    rows = vectors[survivors]
    keep = []
    for i in range(rows.shape[0]):
        rivals = np.delete(rows, i, axis=0)
        if rivals.size == 0 or witness_belief(rows[i], rivals) is not None:
            keep.append(i)
    if not keep:
        # Degenerate numerical case: keep one representative.
        keep.append(0)
    return survivors[keep]


def cross_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All pairwise sums of two vector stacks (the Monahan cross-sum)."""
    if left.size == 0:
        return right
    if right.size == 0:
        return left
    return (left[:, None, :] + right[None, :, :]).reshape(
        -1, left.shape[1]
    )
