"""The random-action bound (RA-Bound), Section 3.1.

The RA-Bound replaces the maximisation of the MDP Bellman equation (Eq. 1)
with a uniform average over actions (Eq. 5), which turns the MDP into a
Markov reward chain — the chain of the uniformly-random policy — whose
expected accumulated reward ``V_m^-(s)`` can be found with a linear solve on
the *original* state space.  The POMDP lower bound is then the hyperplane
``V_p^-(pi) = sum_s pi(s) V_m^-(s)`` (Lemma 3.1 / Theorem 3.1).

For undiscounted models the chain solve is finite iff every action
originating in a recurrent state of the chain has zero reward; the recovery
augmentations of :mod:`repro.recovery` (absorbing ``S_phi`` with recovery
notification, terminate state ``s_T`` without) establish exactly that.  This
module checks the structure before solving so that a violated precondition
surfaces as a :class:`~repro.exceptions.DivergenceError` with an explanation
instead of a hung iteration.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DivergenceError
from repro.linalg.ops import reward_column
from repro.mdp.classify import classify_chain
from repro.mdp.linear_solvers import select_method, solve_markov_reward
from repro.mdp.model import MDP
from repro.pomdp.model import POMDP

#: Rewards smaller than this in magnitude count as zero for the
#: finiteness precondition.
REWARD_EPSILON = 1e-12


def _as_mdp(model: MDP | POMDP) -> MDP:
    return model.to_mdp() if isinstance(model, POMDP) else model


def check_ra_finiteness(model: MDP | POMDP) -> None:
    """Verify Eq. 5 has a finite solution; raise DivergenceError otherwise.

    Necessary and sufficient condition (Section 3.1): the rewards of all
    actions that originate in the recurrent states of the uniform-random
    chain are zero.
    """
    mdp = _as_mdp(model)
    if mdp.discount < 1.0:
        return  # discounting alone guarantees finiteness
    chain, _ = mdp.uniform_chain()
    _check_recurrent_rewards(mdp, classify_chain(chain))


def _check_recurrent_rewards(mdp: MDP, classification) -> None:
    """The Eq. 5 finiteness check against a classified uniform chain."""
    recurrent = np.flatnonzero(classification.recurrent)
    # One dense reward column per recurrent state (there are only a handful
    # in a recovery model), vectorised over actions — the previous
    # per-(state, action) scalar loop was quadratic in disguise and
    # infeasible at 150k actions.
    offending: list[tuple[int, int, float]] = []
    for s in recurrent:
        column = reward_column(mdp.rewards, int(s))
        bad = np.flatnonzero(np.abs(column) > REWARD_EPSILON)
        offending.extend((int(s), int(a), float(column[a])) for a in bad)
    if offending:
        state, action, value = offending[0]
        raise DivergenceError(
            "RA-Bound is infinite: recurrent state "
            f"{mdp.state_labels[state]!r} accrues reward "
            f"{value:.3g} under action "
            f"{mdp.action_labels[action]!r} (and {len(offending) - 1} more "
            "violations); apply the recovery-model modifications of "
            "Section 3.1 first"
        )


def ra_bound_vector(
    model: MDP | POMDP,
    method: str = "auto",
    omega: float = 1.05,
    tol: float = 1e-10,
) -> np.ndarray:
    """Compute ``V_m^-``, the per-state RA-Bound values (Eq. 5).

    Args:
        model: an MDP, or a POMDP whose underlying MDP is used (the bound
            never looks at the observation function — that is why it is
            cheap, and also why it may be loose, motivating the refinement
            of Section 4.1).
        method: linear solver — ``"auto"`` (default: the sparse backend for
            large, sparse chains, Gauss-Seidel otherwise; see
            :func:`repro.mdp.linear_solvers.select_method`),
            ``"gauss-seidel"`` (with SOR factor ``omega``, the paper's
            choice), ``"jacobi"``, ``"direct"``, or ``"sparse"``.
        omega: SOR relaxation factor for Gauss-Seidel.
        tol: solver tolerance.

    Returns:
        The vector ``V_m^-(s)`` for every state.

    The uniform chain is built once and, when undiscounted, decomposed
    once: the same classification serves the finiteness check and the
    transient block of the direct/sparse solve.
    """
    mdp = _as_mdp(model)
    chain, reward = mdp.uniform_chain()
    transient = None
    if mdp.discount >= 1.0:
        classification = classify_chain(chain)
        _check_recurrent_rewards(mdp, classification)
        # Undiscounted: I - P is singular on the recurrent classes; the
        # direct and sparse solvers pin them to zero (they accrue nothing,
        # as just checked) and factorise only the transient block.
        transient = classification.transient
    if method == "auto":
        method = select_method(chain)
    return solve_markov_reward(
        chain,
        reward,
        discount=mdp.discount,
        method=method,
        omega=omega,
        tol=tol,
        transient_states=transient,
    )


def ra_bound(model: MDP | POMDP, belief: np.ndarray, **kwargs) -> float:
    """The RA-Bound at a single belief: ``sum_s pi(s) V_m^-(s)``.

    Convenience wrapper; controllers should compute :func:`ra_bound_vector`
    once (off-line, per Section 4.3) and seed a
    :class:`repro.bounds.vector_set.BoundVectorSet` with it.
    """
    vector = ra_bound_vector(model, **kwargs)
    return float(np.asarray(belief, dtype=float) @ vector)
