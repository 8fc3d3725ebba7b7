"""Upper bounds on the POMDP value function.

The paper's experiments use only "a trivial upper bound for the reward"
(zero, valid under Condition 2) when reporting the bound gap in Figure 5(a),
and list informed upper bounds as future work "to facilitate branch and
bound".  This module provides that trivial bound plus the two standard
informed upper bounds:

* **QMDP** (Littman et al.): ``V^+(pi) = max_a sum_s pi(s) Q_m(s, a)`` using
  the *fully observable* optimal Q-values — an upper bound because full
  observability can only help.
* **FIB** (fast informed bound, Hauskrecht [7]): a tighter per-action vector
  recursion that accounts for one step of observation information.

Both are computed on the underlying MDP state space, like the RA-Bound,
and both need the dense backend.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DivergenceError, ModelError, NotConvergedError
from repro.mdp.model import MDP
from repro.mdp.value_iteration import DIVERGENCE_THRESHOLD, value_iteration
from repro.pomdp.model import POMDP


def _require_dense(model: MDP | POMDP, bound: str) -> None:
    if model.backend.is_sparse:
        raise ModelError(
            f"the {bound} upper bound requires the dense backend (it sweeps "
            "the full transition tensor); convert the model with "
            "repro.recovery.convert_backend(model, 'dense')"
        )


class TrivialUpperBound:
    """The constant-zero upper bound, valid under Condition 2.

    Implements the leaf-value protocol so it can sit at the leaves of an
    optimistic lookahead tree (useful for branch-and-bound experiments).
    """

    def __init__(self, n_states: int):
        self.n_states = n_states

    def value(self, belief: np.ndarray) -> float:
        """Always zero: accumulated non-positive rewards never exceed 0."""
        return 0.0

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        return np.zeros(np.atleast_2d(beliefs).shape[0])


class QMDPBound:
    """QMDP upper bound built from the optimal MDP Q-values."""

    def __init__(self, model: MDP | POMDP, tol: float = 1e-10):
        _require_dense(model, "QMDP")
        mdp = model.to_mdp() if isinstance(model, POMDP) else model
        solution = value_iteration(mdp, tol=tol)
        self.q_values = mdp.rewards + mdp.discount * (
            mdp.transitions @ solution.value
        )  # (|A|, |S|)
        self.mdp_value = solution.value

    def value(self, belief: np.ndarray) -> float:
        """``max_a pi . Q_m(., a)`` at ``belief``."""
        return float(np.max(self.q_values @ belief))

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        return np.max(self.q_values @ np.atleast_2d(beliefs).T, axis=0)


def fib_vectors(
    model: POMDP, tol: float = 1e-9, max_iterations: int = 100_000
) -> np.ndarray:
    """Fast-informed-bound per-action vectors ``alpha^a`` (Hauskrecht [7]).

    Recursion: ``alpha^a(s) = r(s,a) +
    beta * sum_o max_{a'} sum_s' p(s'|s,a) q(o|s',a) alpha^{a'}(s')``.

    Converges geometrically for discounted models; for undiscounted recovery
    models it converges when the model has been augmented per Section 3.1
    (the terminate action pins every state's value above the termination
    reward), and divergence is detected and raised otherwise.
    """
    _require_dense(model, "FIB")
    vectors = np.zeros((model.n_actions, model.n_states))
    for iteration in range(max_iterations):
        updated = np.empty_like(vectors)
        for action in range(model.n_actions):
            total = np.zeros(model.n_states)
            for observation in range(model.n_observations):
                weight = (
                    model.transitions[action]
                    * model.observations[action][None, :, observation]
                )  # (s, s')
                total += np.max(vectors @ weight.T, axis=0)
            updated[action] = model.rewards[action] + model.discount * total
        residual = float(np.max(np.abs(updated - vectors)))
        vectors = updated
        if np.max(np.abs(vectors)) > DIVERGENCE_THRESHOLD:
            raise DivergenceError("FIB recursion diverged for this model")
        if residual < tol:
            return vectors
    raise NotConvergedError(
        f"FIB did not reach tol={tol} in {max_iterations} iterations",
        iterations=max_iterations,
        residual=residual,
    )


class FIBBound:
    """Fast informed upper bound: ``V^+(pi) = max_a pi . alpha^a``."""

    def __init__(self, model: POMDP, tol: float = 1e-9):
        self.vectors = fib_vectors(model, tol=tol)

    def value(self, belief: np.ndarray) -> float:
        """The FIB value at ``belief``."""
        return float(np.max(self.vectors @ belief))

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        return np.max(self.vectors @ np.atleast_2d(beliefs).T, axis=0)
