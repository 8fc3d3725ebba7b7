"""Sawtooth (point-set) upper bound on the POMDP value function.

The paper's conclusion lists "generation of upper bounds in addition to the
lower bounds to facilitate branch and bound techniques" as future work; this
module provides the standard representation for that job.  A sawtooth bound
stores

* corner values ``u_c(s)`` — a valid upper bound at each point belief
  (initialised from QMDP, or the trivial zero bound under Condition 2); and
* a set of interior points ``(b_i, u_i)`` with ``u_i`` a valid upper bound
  at ``b_i``: ``points``, ``point_values`` and ``gaps`` (``u_i - b_i . u_c``).

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
from repro.pomdp.tree import WORKING_SET_BYTES

#: Minimum support ratio treated as zero in the interpolation.
SUPPORT_EPSILON = 1e-12

#: ``(gamma, posteriors)`` of every action at one belief, by action index.
Successors = list[tuple[np.ndarray, np.ndarray]]


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
        if max_points is not None and max_points < 1:
            raise ValueError(f"max_points must be None or >= 1, got {max_points}")
        self.corner_values = corner_values
        self.points = np.empty((0, pomdp.n_states))
        self.point_values = np.empty(0)
        self.gaps = np.empty(0)
        self.max_points = max_points

    def __len__(self) -> int:
        return len(self.point_values)

    def add_point(self, belief: np.ndarray, value: float) -> None:
        """Store the point ``(belief, value)`` and its gap.

        The one insertion behind :meth:`refine_at` and the campaign join: an
        exact duplicate is skipped, and at ``max_points`` the oldest point goes.
        """
        point = np.array(belief, dtype=float)
        value = float(value)
        if np.any((self.point_values == value) & (self.points == point).all(axis=1)):
            return
        gap = value - float(point @ self.corner_values)
        first = int(self.max_points is not None and len(self) >= self.max_points)
        self.points = np.vstack([self.points[first:], point])
        self.point_values = np.append(self.point_values[first:], value)
        self.gaps = np.append(self.gaps[first:], gap)

    def value(self, belief: np.ndarray) -> float:
        """Sawtooth-interpolated upper bound at ``belief``."""
        return float(self.value_batch(belief)[0])

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Sawtooth interpolation at each row of ``beliefs``.

        Points go in chunks whose ``(rows, points, |S|)`` block fits
        :data:`WORKING_SET_BYTES`.  One product of support indicators masks
        the (row, point) pairs where the point can tighten the row (gap < 0,
        no row mass outside its support), and only their ratios are taken.
        A row's corner value is its own dot product and a minimum ignores
        order, so every row equals the scalar interpolation bit for bit.
        """
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        corner = np.matmul(beliefs[:, None, :], self.corner_values[:, None])[:, 0, 0]
        best = corner.copy()
        mass = (beliefs > SUPPORT_EPSILON).astype(float)
        step = max(1, WORKING_SET_BYTES // max(beliefs.nbytes, 1))
        for start in range(0, len(self), step):
            points = self.points[start : start + step]
            gaps = self.gaps[start : start + step]
            outside = points <= SUPPORT_EPSILON
            rows, columns = np.nonzero((mass @ outside.T == 0) & (gaps < 0))
            quotients = beliefs[rows] / np.where(outside, 1.0, points)[columns]
            quotients[outside[columns]] = np.inf
            candidates = corner[rows] + gaps[columns] * quotients.min(axis=1)
            np.minimum.at(best, rows, candidates)
        return best

    def action_backups(self, belief: np.ndarray) -> tuple[np.ndarray, Successors]:
        """Each action's ``pi . r_a + beta * gamma . U(posteriors)`` and the
        :func:`reachable_successors` it used (Eq. 2 with U, before the max).

        Each is an upper bound on the action's value at any lookahead depth,
        as ``L_p`` is monotone and the bound valid.  One :meth:`value_batch`.
        """
        pomdp = self.pomdp
        successors = [
            reachable_successors(pomdp, belief, a) for a in range(pomdp.n_actions)
        ]
        futures = np.split(
            self.value_batch(np.vstack([posteriors for _, posteriors in successors])),
            np.cumsum([len(gamma) for gamma, _ in successors])[:-1],
        )
        backups = [
            float(belief @ pomdp.rewards[a]) + pomdp.discount * float(gamma @ future)
            for a, ((gamma, _), future) in enumerate(zip(successors, futures))
        ]
        return np.array(backups), successors

    def backup(self, belief: np.ndarray) -> float:
        """One Bellman backup of this bound at ``belief`` (Eq. 2 with U).

        Valid as an upper value at ``belief`` (see :meth:`action_backups`).
        """
        return float(np.max(self.action_backups(belief)[0]))

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
        self.add_point(belief, backed_up)
        return before - backed_up
