"""State classification and graph analyses for Markov chains.

The convergence arguments of Section 3.1 hinge on which states of the
RA-Bound chain are recurrent: Eq. 5 has a finite solution iff every action
originating in a recurrent state has zero reward.  This module computes the
recurrent/transient split from the chain's strongly-connected components,
and exposes the underlying graph analyses (SCC decomposition, reachability,
expected absorption time) for reuse by the static analyzer in
:mod:`repro.analysis`.

Every analysis first turns its chain, dense or ``scipy.sparse``, into one
CSR support graph (:func:`_adjacency`) and then runs once over it: strong
components through :func:`scipy.sparse.csgraph.connected_components`,
reachability as a CSR frontier sweep, absorption times as a sparse
transient-state solve.  The cost is O(nodes + edges) whatever the input
layout, which is what lets the analyzer cover the 300k-state tiered chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

#: Probabilities below this are treated as structural zeros.
EDGE_EPSILON = 1e-12


@dataclass(frozen=True)
class ChainClassification:
    """Recurrent/transient structure of a finite Markov chain.

    Attributes:
        recurrent: boolean mask over states; ``True`` for states inside some
            closed (bottom) strongly-connected component.
        transient: boolean mask, the complement of ``recurrent``.
        absorbing: boolean mask of single-state closed classes with a
            self-loop probability of one.
        recurrent_classes: tuple of frozensets, one per closed SCC.
    """

    recurrent: np.ndarray
    transient: np.ndarray
    absorbing: np.ndarray
    recurrent_classes: tuple[frozenset, ...]


def _adjacency(chain) -> sp.csr_matrix:
    """The support graph of ``chain`` (a dense array or any sparse format)
    as CSR: its entries above :data:`EDGE_EPSILON`."""
    coo = sp.coo_matrix(chain, dtype=float)
    keep = coo.data > EDGE_EPSILON
    return sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
    )


@dataclass(frozen=True)
class SCCSummary:
    """Vectorised strong-component decomposition of a chain's support graph.

    Unlike :func:`strongly_connected_components`, nothing here materialises
    per-component Python sets — just label/size/closedness arrays — so the
    analyzer can summarise the 300k-state tiered union graph without
    allocating |S| frozenset members.

    Attributes:
        count: number of strongly-connected components.
        labels: ``(n,)`` component label per state.
        sizes: ``(count,)`` number of states per component.
        closed: ``(count,)`` True for components with no outgoing edge
            (the recurrent classes when the graph is a chain's support).
    """

    count: int
    labels: np.ndarray
    sizes: np.ndarray
    closed: np.ndarray


def scc_summary(chain) -> SCCSummary:
    """SCC labels/sizes/closedness of ``chain > EDGE_EPSILON``, vectorised.

    The one strong-component computation of this module, O(nodes + edges)
    with no per-component Python loop.  A component is closed iff no edge
    crosses out of it; one pass over the edge list marks every component
    with an outgoing cross edge as open.
    """
    adjacency = _adjacency(chain)
    count, labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    coo = adjacency.tocoo()
    cross = labels[coo.row] != labels[coo.col]
    closed = np.ones(count, dtype=bool)
    closed[labels[coo.row[cross]]] = False
    return SCCSummary(
        count=int(count),
        labels=labels,
        sizes=np.bincount(labels, minlength=count),
        closed=closed,
    )


def _component_sets(summary: SCCSummary, keep: np.ndarray) -> list[frozenset]:
    """Member sets of the components ``keep`` selects, in label order."""
    states = np.flatnonzero(keep[summary.labels])
    states = states[np.argsort(summary.labels[states], kind="stable")]
    groups = np.split(states, np.cumsum(summary.sizes[keep])[:-1])
    return [frozenset(group.tolist()) for group in groups if group.size]


def strongly_connected_components(chain: np.ndarray) -> list[frozenset]:
    """SCCs of the directed graph induced by ``chain > EDGE_EPSILON``.

    ``chain`` may be a stochastic matrix or any non-negative weight matrix;
    only the sparsity pattern matters.
    """
    summary = scc_summary(chain)
    return _component_sets(summary, np.ones(summary.count, dtype=bool))


def closed_components(chain) -> list[frozenset]:
    """The closed (no outgoing edge) SCCs — the recurrent classes."""
    summary = scc_summary(chain)
    return _component_sets(summary, summary.closed)


def classify_chain(chain) -> ChainClassification:
    """Classify the states of a row-stochastic ``chain``.

    A strongly-connected component is *closed* (and hence recurrent in a
    finite chain) iff no edge leaves it.  Accepts dense arrays and
    ``scipy.sparse`` matrices; both classify in one vectorised edge sweep.
    """
    summary = scc_summary(chain)
    recurrent = summary.closed[summary.labels]
    return ChainClassification(
        recurrent=recurrent,
        transient=~recurrent,
        absorbing=sp.csr_matrix(chain).diagonal() >= 1.0 - EDGE_EPSILON,
        recurrent_classes=tuple(_component_sets(summary, summary.closed)),
    )


def reachable_set(chain, sources: np.ndarray) -> np.ndarray:
    """States reachable (in any number of steps) from the ``sources`` mask."""
    transposed = _adjacency(chain).T.tocsr()
    reached = np.asarray(sources, dtype=bool).copy()
    frontier = reached.copy()
    while frontier.any():
        successors = (transposed @ frontier.astype(float)) > 0.0
        frontier = successors & ~reached
        reached |= successors
    return reached


def expected_absorption_time(chain, targets: np.ndarray | None = None) -> np.ndarray:
    """Expected number of steps for each state to enter ``targets``.

    ``targets`` defaults to the chain's recurrent set, making this the
    expected absorption time of the chain — the quantity that controls how
    loose the undiscounted RA-Bound is (a transient state that wanders for
    ``t`` expected steps accrues roughly ``t`` steps of average cost in
    Eq. 5).  Returns 0 on target states and ``inf`` on states that cannot
    reach the target set at all.

    Solves ``t = 1 + P_TT t`` over the non-target states with one sparse
    linear solve (``inf`` if the system is singular, which happens exactly
    when some non-target state never reaches a target).
    """
    chain = sp.csr_matrix(chain, dtype=float)
    if targets is None:
        target_mask = classify_chain(chain).recurrent
    else:
        target_mask = np.asarray(targets, dtype=bool)
    times = np.zeros(chain.shape[0])
    if target_mask.all():
        return times
    can_reach = reachable_set(chain.T, target_mask)
    times[~can_reach & ~target_mask] = np.inf
    solvable = np.flatnonzero(~target_mask & can_reach)
    if solvable.size == 0:
        return times
    sub = chain[solvable][:, solvable]
    system = (sp.identity(solvable.size, format="csc") - sub).tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            solution = spla.spsolve(system, np.ones(solvable.size))
        except (spla.MatrixRankWarning, RuntimeError):
            solution = np.full(solvable.size, np.inf)
    times[solvable] = solution
    return times
