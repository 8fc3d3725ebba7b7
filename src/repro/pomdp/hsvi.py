"""Heuristic search value iteration (HSVI) for discounted POMDPs.

The natural consumer of a *pair* of bounds: HSVI maintains a piecewise-
linear lower bound (the same hyperplane sets the recovery controller uses)
and a sawtooth upper bound, and repeatedly simulates the trajectory along
which the gap between them is largest, backing both bounds up on the way
back.  It terminates when the gap at the initial belief is below a target
``epsilon`` — giving an *anytime, certified* approximation, which is the
promise behind the paper's future-work line about upper bounds and
branch-and-bound.

Discounted models only: the depth of the explored trajectory is bounded by
``log(epsilon / gap) / log(discount)``, which is infinite at discount 1
(and epsilon-optimality itself is undecidable there, Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.incremental import refine_at
from repro.bounds.sawtooth import SawtoothUpperBound
from repro.bounds.vector_set import BoundVectorSet
from repro.bounds.ra_bound import ra_bound_vector
from repro.exceptions import ModelError, NotConvergedError
from repro.pomdp.model import POMDP


@dataclass(frozen=True)
class HSVISolution:
    """Certified bound pair produced by HSVI.

    Attributes:
        lower: hyperplane lower bound (usable as a controller leaf).
        upper: sawtooth upper bound.
        gap: final upper-lower gap at the initial belief (<= epsilon on
            success).
        trials: explored trajectories.
        initial_belief: where the certificate holds.
    """

    lower: BoundVectorSet
    upper: SawtoothUpperBound
    gap: float
    trials: int
    initial_belief: np.ndarray

    def value(self, belief: np.ndarray) -> float:
        """Midpoint estimate at ``belief``."""
        return 0.5 * (self.lower.value(belief) + self.upper.value(belief))


def _best_upper_action(upper: SawtoothUpperBound, belief):
    """Successors of the action maximising the upper backup (IE-MAX)."""
    backups, successors = upper.action_backups(belief)
    return successors[int(np.argmax(backups))]


def solve_hsvi(
    pomdp: POMDP,
    initial_belief: np.ndarray | None = None,
    epsilon: float = 1e-2,
    max_trials: int = 2_000,
    max_depth: int = 200,
) -> HSVISolution:
    """Run HSVI until the bound gap at ``initial_belief`` is <= ``epsilon``.

    Args:
        pomdp: a discounted model (``discount < 1`` enforced).
        initial_belief: certificate belief; uniform when None.
        epsilon: target gap.
        max_trials: trajectory budget before
            :class:`~repro.exceptions.NotConvergedError`.
        max_depth: per-trajectory depth cap.
    """
    if pomdp.discount >= 1.0:
        raise ModelError(
            "HSVI requires discount < 1; undiscounted recovery models use "
            "the RA-Bound machinery instead"
        )
    if initial_belief is None:
        initial_belief = np.full(pomdp.n_states, 1.0 / pomdp.n_states)
    initial_belief = np.asarray(initial_belief, dtype=float)

    lower = BoundVectorSet(ra_bound_vector(pomdp))
    upper = SawtoothUpperBound(pomdp)

    def gap_at(belief: np.ndarray) -> float:
        return upper.value(belief) - float(np.max(lower.vectors @ belief))

    for trial in range(1, max_trials + 1):
        if gap_at(initial_belief) <= epsilon:
            return HSVISolution(
                lower=lower,
                upper=upper,
                gap=gap_at(initial_belief),
                trials=trial - 1,
                initial_belief=initial_belief,
            )
        # Forward pass: follow the upper bound's greedy action toward the
        # observation whose excess gap is largest.
        path = [initial_belief]
        belief = initial_belief
        for depth in range(1, max_depth + 1):
            target = epsilon / (pomdp.discount**depth)
            gamma, posteriors = _best_upper_action(upper, belief)
            excesses = np.array(
                [
                    probability * (gap_at(child) - target)
                    for probability, child in zip(gamma, posteriors)
                ]
            )
            best = int(np.argmax(excesses))
            if excesses[best] <= 0:
                break
            belief = posteriors[best]
            path.append(belief)
        # Backward pass: back both bounds up along the trajectory.
        for belief in reversed(path):
            refine_at(pomdp, lower, belief)
            upper.refine_at(belief)

    gap = gap_at(initial_belief)
    if gap <= epsilon:
        return HSVISolution(
            lower=lower,
            upper=upper,
            gap=gap,
            trials=max_trials,
            initial_belief=initial_belief,
        )
    raise NotConvergedError(
        f"HSVI gap {gap:.4g} > epsilon {epsilon} after {max_trials} trials",
        iterations=max_trials,
        residual=gap,
    )
