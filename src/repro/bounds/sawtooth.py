"""Sawtooth (point-set) upper bound on the POMDP value function.

The paper's conclusion lists "generation of upper bounds in addition to the
lower bounds to facilitate branch and bound techniques" as future work; this
module provides the standard representation for that job.  A sawtooth bound
stores

* corner values ``u_c(s)`` — a valid upper bound at each point belief
  (initialised from QMDP, or the trivial zero bound under Condition 2); and
* a set of interior points ``(b_i, u_i)`` with ``u_i`` a valid upper bound
  at ``b_i``.

The bound at an arbitrary belief ``pi`` is the sawtooth interpolation

    U(pi) = min_i  [ pi . u_c  +  (u_i - b_i . u_c) * min_s pi(s) / b_i(s) ]

(minimum over interior points, floored at the corner interpolation alone),
which is the tightest upper bound consistent with convexity of the value
function and the stored points.  Refinement mirrors the lower bound's
incremental update: a one-step Bellman backup of the current upper bound at
a chosen belief yields a new (smaller) valid upper value there.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.upper import QMDPBound
from repro.exceptions import ModelError
from repro.pomdp.belief import GAMMA_EPSILON
from repro.pomdp.model import POMDP

#: Minimum support ratio treated as zero in the interpolation.
SUPPORT_EPSILON = 1e-12


def reachable_successors(
    pomdp: POMDP, belief: np.ndarray, action: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 3 probabilities and Eq. 4 posteriors of the reachable observations.

    A direct dense product: the joint-factor cache behind
    :func:`repro.pomdp.belief.next_beliefs` rounds the low bits differently,
    which would move the sawtooth and branch-and-bound values.
    """
    predicted = belief @ pomdp.transitions[action]
    joint = predicted[:, None] * pomdp.observations[action]
    gamma = joint.sum(axis=0)
    reachable = gamma > GAMMA_EPSILON
    return gamma[reachable], (joint[:, reachable] / gamma[reachable]).T


class SawtoothUpperBound:
    """Point-set upper bound with sawtooth interpolation.

    Implements the :class:`repro.pomdp.tree.LeafValue` protocol, so it can
    sit at the leaves of an *optimistic* lookahead or drive branch-and-bound
    pruning together with a :class:`~repro.bounds.vector_set.BoundVectorSet`
    lower bound.

    Args:
        pomdp: the model the bound is for.
        corner_values: per-state upper bounds at the point beliefs; when
            None they are initialised from QMDP (valid because full
            observability only helps).
        max_points: optional cap on stored interior points (oldest point
            evicted first).
    """

    def __init__(
        self,
        pomdp: POMDP,
        corner_values: np.ndarray | None = None,
        max_points: int | None = None,
    ):
        self.pomdp = pomdp
        if corner_values is None:
            corner_values = QMDPBound(pomdp).mdp_value
        corner_values = np.asarray(corner_values, dtype=float)
        if corner_values.shape != (pomdp.n_states,):
            raise ModelError(
                f"corner_values must have shape ({pomdp.n_states},), got "
                f"{corner_values.shape}"
            )
        self.corner_values = corner_values
        self.points: list[tuple[np.ndarray, float]] = []
        self.max_points = max_points

    def __len__(self) -> int:
        return len(self.points)

    def value(self, belief: np.ndarray) -> float:
        """Sawtooth-interpolated upper bound at ``belief``."""
        belief = np.asarray(belief, dtype=float)
        corner = float(belief @ self.corner_values)
        best = corner
        for point, point_value in self.points:
            gap = point_value - float(point @ self.corner_values)
            if gap >= 0:
                continue  # the point is no tighter than the corners
            support = point > SUPPORT_EPSILON
            if np.any(belief[~support] > SUPPORT_EPSILON):
                # pi is not absolutely continuous w.r.t. b_i along the
                # sawtooth: the interpolation coefficient is min over the
                # support, which is 0 here -> no improvement from this point.
                continue
            ratio = float(np.min(belief[support] / point[support]))
            best = min(best, corner + gap * ratio)
        return best

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value` (loops over points, not beliefs)."""
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        corner = beliefs @ self.corner_values
        best = corner.copy()
        for point, point_value in self.points:
            gap = point_value - float(point @ self.corner_values)
            if gap >= 0:
                continue
            support = point > SUPPORT_EPSILON
            feasible = ~np.any(beliefs[:, ~support] > SUPPORT_EPSILON, axis=1)
            if not feasible.any():
                continue
            ratios = np.min(
                beliefs[np.ix_(feasible, support)] / point[support], axis=1
            )
            candidate = corner[feasible] + gap * ratios
            best[feasible] = np.minimum(best[feasible], candidate)
        return best

    def backup(self, belief: np.ndarray) -> float:
        """One Bellman backup of this bound at ``belief`` (Eq. 2 with U).

        Returns the backed-up value; valid as an upper value at ``belief``
        because the operator ``L_p`` is monotone and the current bound is
        valid.
        """
        belief = np.asarray(belief, dtype=float)
        best = -np.inf
        for action in range(self.pomdp.n_actions):
            gamma, posteriors = reachable_successors(self.pomdp, belief, action)
            future = self.value_batch(posteriors)
            total = float(belief @ self.pomdp.rewards[action])
            total += self.pomdp.discount * float(gamma @ future)
            best = max(best, total)
        return best

    def refine_at(self, belief: np.ndarray) -> float:
        """Back up at ``belief`` and store the point; returns the decrease.

        Mirrors :func:`repro.bounds.incremental.refine_at` on the lower
        side.  Points that do not tighten the bound are discarded.
        """
        belief = np.asarray(belief, dtype=float)
        before = self.value(belief)
        backed_up = self.backup(belief)
        if backed_up >= before - SUPPORT_EPSILON:
            return 0.0
        if self.max_points is not None and len(self.points) >= self.max_points:
            self.points.pop(0)
        self.points.append((belief.copy(), backed_up))
        return before - backed_up
