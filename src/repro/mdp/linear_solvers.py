"""Linear-system solvers for Markov reward chains.

The RA-Bound (Eq. 5) reduces to the linear system ``v = r + beta * P v`` for
the uniform-random chain.  Section 3.1 of the paper solves it with
"Gauss-Seidel iterations with successive over-relaxation"; this module
provides that solver plus a Jacobi iteration, a direct sparse solve, and a
sparse backend (``method="sparse"``) that solves the transient block of
``I - beta P`` in CSR/CSC form with an iterative (LGMRES) fallback — the
path behind Section 4.3's hundreds-of-thousands-of-states claim.  All of
them are verified against each other in the test suite.

The direct and sparse solves share :func:`solve_transient_block`.  Ordered
by strong component, the transient block of an acyclic chain (self-loops
aside) is lower-triangular, and one sparse triangular solve replaces the
SuperLU factorisation; a chain with a cycle among its transient states is
factorised.  Every shipped model takes the triangular path.

Every solver accepts ``P`` as a dense array or a ``scipy.sparse`` matrix;
``method="auto"`` picks the sparse backend or Gauss-Seidel from the chain's
size and density (see :func:`select_method`).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from repro.exceptions import DivergenceError, NotConvergedError
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span

#: Value magnitude past which an undiscounted iteration is declared divergent.
DIVERGENCE_THRESHOLD = 1e12

#: ``method="auto"`` heuristics: a chain is routed to the sparse backend
#: when it is already a scipy.sparse matrix, or when it has at least
#: SPARSE_MIN_STATES states and at most SPARSE_DENSITY_CUTOFF of its
#: entries are structurally non-zero.  Below the size floor the dense
#: Gauss-Seidel sweep wins on constant factors; above the density cutoff
#: the CSR factorisation fills in and loses its advantage.
SPARSE_MIN_STATES = 256
SPARSE_DENSITY_CUTOFF = 0.25

#: Sweeps between residual-stagnation checks.  A linearly diverging
#: iteration (constant per-sweep decrement, e.g. a recurrent state accruing
#: cost forever) keeps a constant residual, while any convergent iteration
#: shrinks it; comparing residuals one window apart separates the two long
#: before the magnitude threshold trips.
STAGNATION_WINDOW = 1_000
STAGNATION_RATIO = 0.99

#: Iteration budget of the sparse backend's LGMRES fallback.
LGMRES_MAXITER = 10_000


def chain_density(chain) -> float:
    """Fraction of structurally non-zero entries in ``chain``.

    Works on dense arrays and scipy.sparse matrices alike; the density of a
    0x0 chain is defined as 1.0 (nothing to gain from sparsity).
    """
    if not sp.issparse(chain):
        chain = np.asarray(chain)
    n = chain.shape[0]
    if n == 0:
        return 1.0
    if sp.issparse(chain):
        return float(chain.nnz) / float(n * n)
    return float(np.count_nonzero(chain)) / float(n * n)


def select_method(chain) -> str:
    """The ``method="auto"`` policy: ``"sparse"`` or ``"gauss-seidel"``.

    A scipy.sparse chain always takes the sparse backend (densifying it
    would defeat the caller's construction); a dense chain takes it only
    when it is both large (>= :data:`SPARSE_MIN_STATES` states) and sparse
    enough (density <= :data:`SPARSE_DENSITY_CUTOFF`).
    """
    if sp.issparse(chain):
        return "sparse"
    chain = np.asarray(chain)
    if (
        chain.shape[0] >= SPARSE_MIN_STATES
        and chain_density(chain) <= SPARSE_DENSITY_CUTOFF
    ):
        return "sparse"
    return "gauss-seidel"


def _check_stagnation(
    residual: float, checkpoint: float, values_growing: bool, context: str
) -> None:
    if values_growing and residual > 0 and residual >= STAGNATION_RATIO * checkpoint:
        raise DivergenceError(
            f"{context}: residual stalled at {residual:.3g} over "
            f"{STAGNATION_WINDOW} sweeps while values keep growing — the "
            "iteration diverges linearly (a recurrent state accrues reward; "
            "see Section 3.1 conditions)"
        )


def gauss_seidel(
    chain: np.ndarray | sp.spmatrix,
    reward: np.ndarray,
    discount: float = 1.0,
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Solve ``v = r + discount * P v`` by Gauss-Seidel with SOR.

    Args:
        chain: row-stochastic transition matrix ``P`` of shape ``(n, n)``.
        reward: expected single-step reward vector ``r`` of shape ``(n,)``.
        discount: the factor ``beta``; 1.0 for the paper's undiscounted
            criterion.
        omega: SOR relaxation factor in ``(0, 2)``; 1.0 is plain
            Gauss-Seidel, values above 1 over-relax ("successive
            over-relaxation", as used by the paper's implementation).
        tol: sup-norm change below which the iteration stops.
        max_iterations: iteration budget.

    Raises:
        DivergenceError: if iterates blow past :data:`DIVERGENCE_THRESHOLD`
            (the chain accumulates unbounded reward, e.g. a recurrent state
            with non-zero reward in an undiscounted model).
        NotConvergedError: if the budget is exhausted first.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must be in (0, 2), got {omega}")
    # The per-state sweep needs random row access; densify sparse input
    # (callers with genuinely large sparse chains should use "sparse").
    chain = (
        chain.toarray() if sp.issparse(chain) else np.asarray(chain, dtype=float)
    )
    reward = np.asarray(reward, dtype=float)
    n = reward.shape[0]
    value = np.zeros(n)
    checkpoint_residual = np.inf
    checkpoint_norm = 0.0
    for iteration in range(max_iterations):
        delta = 0.0
        for s in range(n):
            # The self-loop term is moved to the left-hand side so states
            # with high self-transition probability converge in one sweep.
            row = chain[s]
            diagonal = discount * row[s]
            others = discount * (row @ value) - diagonal * value[s]
            if diagonal >= 1.0:
                # Absorbing state with discount 1: value is determined by its
                # own reward stream; finite only when the reward is zero.
                if abs(reward[s]) > 0.0:
                    raise DivergenceError(
                        f"state {s} is absorbing with non-zero reward "
                        f"{reward[s]:.3g}; undiscounted value is infinite"
                    )
                updated = 0.0
            else:
                updated = (reward[s] + others) / (1.0 - diagonal)
            updated = value[s] + omega * (updated - value[s])
            delta = max(delta, abs(updated - value[s]))
            value[s] = updated
        if not np.all(np.isfinite(value)) or np.max(np.abs(value)) > DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                "Gauss-Seidel iterates diverged; the chain has recurrent "
                "reward-accruing states (see Section 3.1 conditions)"
            )
        if delta < tol:
            return value
        if (iteration + 1) % STAGNATION_WINDOW == 0:
            norm = float(np.max(np.abs(value)))
            _check_stagnation(
                delta, checkpoint_residual, norm > checkpoint_norm, "Gauss-Seidel"
            )
            checkpoint_residual = delta
            checkpoint_norm = norm
    raise NotConvergedError(
        f"Gauss-Seidel did not reach tol={tol} in {max_iterations} iterations",
        iterations=max_iterations,
        residual=delta,
    )


def jacobi(
    chain: np.ndarray | sp.spmatrix,
    reward: np.ndarray,
    discount: float = 1.0,
    tol: float = 1e-10,
    max_iterations: int = 200_000,
) -> np.ndarray:
    """Solve ``v = r + discount * P v`` by Jacobi (simultaneous) iteration.

    Kept as an independently-implemented cross-check for
    :func:`gauss_seidel`; the test suite asserts the two agree.  Sparse
    chains are used as-is (the update is a single mat-vec per sweep).
    """
    if not sp.issparse(chain):
        chain = np.asarray(chain, dtype=float)
    reward = np.asarray(reward, dtype=float)
    value = np.zeros_like(reward)
    checkpoint_residual = np.inf
    checkpoint_norm = 0.0
    for iteration in range(max_iterations):
        updated = reward + discount * (chain @ value)
        if not np.all(np.isfinite(updated)) or np.max(np.abs(updated)) > DIVERGENCE_THRESHOLD:
            raise DivergenceError("Jacobi iterates diverged")
        residual = float(np.max(np.abs(updated - value)))
        if residual < tol:
            return updated
        value = updated
        if (iteration + 1) % STAGNATION_WINDOW == 0:
            norm = float(np.max(np.abs(value)))
            _check_stagnation(
                residual, checkpoint_residual, norm > checkpoint_norm, "Jacobi"
            )
            checkpoint_residual = residual
            checkpoint_norm = norm
    raise NotConvergedError(
        f"Jacobi did not reach tol={tol} in {max_iterations} iterations",
        iterations=max_iterations,
        residual=residual,
    )


def solve_direct(
    chain: np.ndarray | sp.spmatrix,
    reward: np.ndarray,
    discount: float = 1.0,
    transient_states: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``(I - discount * P) v = r`` with a direct sparse solve.

    For an undiscounted chain, ``I - P`` is singular whenever the chain has a
    recurrent class, so the caller must restrict the solve to the transient
    states (whose sub-matrix is non-singular) and pin recurrent states to
    zero — exactly the structure the paper's model modifications guarantee
    (recurrent states are zero-reward absorbing states).  Pass
    ``transient_states`` as a boolean mask to do that; with ``None`` the full
    system is solved (valid for ``discount < 1``).  The block is solved by
    :func:`solve_transient_block`.
    """
    return _solve_transient(chain, reward, discount, transient_states)[0]


def _transient_system(
    chain,
    reward,
    discount: float,
    transient_states: np.ndarray | None,
) -> tuple[sp.csc_matrix | None, np.ndarray, np.ndarray]:
    """Build ``(I - discount * P)`` restricted to the transient block.

    Returns ``(matrix, rhs, mask)`` in CSC form ready for a factorisation;
    ``matrix`` is None when the mask selects no states (nothing to solve).
    Accepts dense or scipy.sparse ``chain``.
    """
    reward = np.asarray(reward, dtype=float)
    n = reward.shape[0]
    sparse_chain = sp.csr_matrix(chain) if not sp.issparse(chain) else chain.tocsr()
    mask = (
        np.ones(n, dtype=bool)
        if transient_states is None
        else np.asarray(transient_states, dtype=bool)
    )
    if not mask.any():
        return None, reward[mask], mask
    indices = np.flatnonzero(mask)
    block = sparse_chain[indices][:, indices]
    matrix = (
        sp.eye(indices.size, format="csc") - discount * block.tocsc()
    )
    return matrix, reward[indices], mask


def _triangular_order(matrix: sp.spmatrix) -> np.ndarray | None:
    """Each state's position in an order that makes ``matrix``
    lower-triangular, or None when no strong-component order does.

    :func:`scipy.sparse.csgraph.connected_components` numbers the strong
    components of the stored entries sinks first, so when every component
    is one state its labels order each state after its successors.  The
    order is used only if it checks out: no ordered entry above the
    diagonal and no zero on it.
    """
    count, labels = csgraph.connected_components(
        matrix, directed=True, connection="strong"
    )
    if count < matrix.shape[0]:
        return None  # a cycle among the states
    coo = matrix.tocoo()
    if np.any(labels[coo.row] < labels[coo.col]) or np.any(matrix.diagonal() == 0):
        return None
    return labels


def solve_transient_block(matrix, rhs: np.ndarray) -> tuple[np.ndarray, str]:
    """Solve ``matrix @ x = rhs`` for a transient block of ``I - beta P``.

    Ordered by strong component (:func:`_triangular_order`), the block of
    a chain whose transient states form no cycle is lower-triangular, and
    one :func:`scipy.sparse.linalg.spsolve_triangular` solves it in time
    and memory linear in its stored entries.  Any other block is
    factorised by SuperLU (:func:`scipy.sparse.linalg.spsolve`), which
    warns :class:`~scipy.sparse.linalg.MatrixRankWarning` on a singular
    one.  ``matrix`` may be dense or any scipy.sparse format.

    Returns ``(x, factorisation)``, the kind being ``"triangular"`` or
    ``"lu"``, and counts ``solver.factorisation.<kind>`` in the active
    telemetry.
    """
    matrix = sp.csc_matrix(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    labels = _triangular_order(matrix)
    factorisation = "lu" if labels is None else "triangular"
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count(f"solver.factorisation.{factorisation}")
    if labels is None:
        return spla.spsolve(matrix, rhs), factorisation
    lower = matrix.tocsr()
    if np.array_equal(labels, np.arange(labels.size)):
        # Already in order, as the tiered family's blocks are.
        return spla.spsolve_triangular(lower, rhs, lower=True), factorisation
    order = np.argsort(labels)
    solution = spla.spsolve_triangular(lower[order][:, order], rhs[order], lower=True)
    return solution[labels], factorisation


def solve_sparse(
    chain,
    reward: np.ndarray,
    discount: float = 1.0,
    transient_states: np.ndarray | None = None,
    tol: float = 1e-10,
    maxiter: int = LGMRES_MAXITER,
) -> np.ndarray:
    """The sparse backend: a sparse direct solve with an iterative fallback.

    Solves ``(I - discount * P) v = r`` on the transient block (recurrent
    states pinned to zero, as in :func:`solve_direct`) via
    :func:`solve_transient_block`.  If the factorisation reports a
    singular/ill-conditioned matrix or produces non-finite values, the
    solve is retried with LGMRES; an iterative failure raises
    :class:`~repro.exceptions.NotConvergedError` rather than returning a
    silently wrong vector.

    Accepts ``chain`` as a dense array or any scipy.sparse matrix; a
    caller that holds its chain sparsely (e.g. the uniform-action chain
    of a sparse model, :meth:`repro.mdp.model.MDP.uniform_chain`) never
    materialises a dense ``n x n`` array anywhere on this path.
    """
    return _solve_transient(
        chain, reward, discount, transient_states, fallback=(tol, maxiter)
    )[0]


def _solve_transient(
    chain,
    reward,
    discount: float,
    transient_states: np.ndarray | None,
    fallback: tuple[float, int] | None = None,
) -> tuple[np.ndarray, str | None]:
    """The direct solve, or with ``fallback = (tol, maxiter)`` the sparse
    backend's; returns the value vector and the factorisation that ran
    (None when the mask selects no state)."""
    matrix, rhs, mask = _transient_system(
        chain, reward, discount, transient_states
    )
    value = np.zeros(np.asarray(reward).shape[0])
    if matrix is None:
        return value, None
    if fallback is None:
        value[mask], factorisation = solve_transient_block(matrix, rhs)
        return value, factorisation
    solution = None
    factorisation = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            candidate, factorisation = solve_transient_block(matrix, rhs)
            if np.all(np.isfinite(candidate)):
                solution = candidate
        except (RuntimeError, spla.MatrixRankWarning):
            solution = None
    if solution is None:
        tol, maxiter = fallback
        solution, info = spla.lgmres(
            matrix, rhs, rtol=tol, atol=tol, maxiter=maxiter
        )
        if info != 0 or not np.all(np.isfinite(solution)):
            raise NotConvergedError(
                "sparse RA-Bound solve failed: the direct factorisation was "
                "singular and LGMRES did not converge "
                f"(info={info}); is the transient mask correct?",
                iterations=maxiter,
                residual=float(
                    np.max(np.abs(matrix @ solution - rhs))
                    if np.all(np.isfinite(solution))
                    else np.inf
                ),
            )
    value[mask] = solution
    return value, factorisation


def solve_markov_reward(
    chain: np.ndarray | sp.spmatrix,
    reward: np.ndarray,
    discount: float = 1.0,
    method: str = "gauss-seidel",
    omega: float = 1.05,
    tol: float = 1e-10,
    transient_states: np.ndarray | None = None,
) -> np.ndarray:
    """Front door for expected-accumulated-reward solves.

    ``method`` selects between ``"gauss-seidel"`` (the paper's choice, with
    mild over-relaxation by default), ``"jacobi"``, ``"direct"``,
    ``"sparse"`` (solve the transient block of ``I - beta P`` with an
    LGMRES fallback), and ``"auto"`` (:func:`select_method`'s size/density
    heuristic between the sparse backend and Gauss-Seidel).  The
    ``solver_dispatch`` event names the factorisation of a direct or
    sparse solve (``"triangular"`` or ``"lu"``; None for the iterations).
    """
    requested = method
    if method == "auto":
        method = select_method(chain)
    solvers = {
        "gauss-seidel": lambda: (
            gauss_seidel(chain, reward, discount=discount, omega=omega, tol=tol),
            None,
        ),
        "jacobi": lambda: (
            jacobi(chain, reward, discount=discount, tol=tol),
            None,
        ),
        "direct": lambda: _solve_transient(
            chain, reward, discount, transient_states
        ),
        "sparse": lambda: _solve_transient(
            chain, reward, discount, transient_states, fallback=(tol, LGMRES_MAXITER)
        ),
    }
    if method not in solvers:
        raise ValueError(f"unknown method {method!r}")
    n_states = int(np.asarray(reward).shape[0])
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count(f"solver.dispatch.{method}")
    with span(
        "solver.solve", category="solver", method=method, n_states=n_states
    ) as solve:
        value, factorisation = solvers[method]()
    if telemetry is not None:
        telemetry.event(
            "solver_dispatch",
            requested=requested,
            method=method,
            n_states=n_states,
            factorisation=factorisation,
            seconds=round(solve.seconds, 6),
        )
    return value
