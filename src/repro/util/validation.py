"""Numeric validation helpers for stochastic models and integer settings.

The model classes (:class:`repro.mdp.MDP`, :class:`repro.pomdp.POMDP`) call
these at construction time, so every solver and controller downstream can
assume well-formed inputs instead of re-checking them.
:func:`int_setting` resolves the integer limits a caller or the
environment may override (cache budget, span ring capacity),
:func:`check_termination_probability` checks the threshold of the
policies that stop on recovered probability, and :func:`positive_int` and
:func:`non_negative_int` are the argparse types of the command-line counts.
"""

from __future__ import annotations

import argparse
import operator
import os

import numpy as np

from repro.exceptions import ModelError

#: Absolute tolerance below zero before an entry counts as negative.
NEGATIVITY_ATOL = 1e-9

#: Absolute tolerance on row/vector sums before they count as non-stochastic.
SUM_ATOL = 1e-6

#: Backwards-compatible alias for :data:`NEGATIVITY_ATOL` (the historical
#: name conflated the two tolerances; the static analyzer and the model
#: classes now share the named pair above so they can never disagree on
#: what "stochastic" means).
PROBABILITY_ATOL = NEGATIVITY_ATOL


def check_distribution(vector: np.ndarray, name: str = "distribution") -> np.ndarray:
    """Validate that ``vector`` is a probability distribution.

    Returns the validated array (as ``float64``) so calls can be inlined into
    constructors.  Raises :class:`~repro.exceptions.ModelError` on negative
    entries or a sum away from one.
    """
    array = np.asarray(vector, dtype=float)
    if array.ndim != 1:
        raise ModelError(f"{name} must be one-dimensional, got shape {array.shape}")
    if np.any(array < -NEGATIVITY_ATOL):
        raise ModelError(f"{name} has negative entries: min={array.min():.3g}")
    total = array.sum()
    if not np.isclose(total, 1.0, atol=SUM_ATOL):
        raise ModelError(f"{name} must sum to 1, got {total:.9f}")
    return np.clip(array, 0.0, None)


def check_stochastic_matrix(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that every row of ``matrix`` is a probability distribution."""
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise ModelError(f"{name} must be two-dimensional, got shape {array.shape}")
    if np.any(array < -NEGATIVITY_ATOL):
        raise ModelError(f"{name} has negative entries: min={array.min():.3g}")
    row_sums = array.sum(axis=1)
    bad = np.flatnonzero(~np.isclose(row_sums, 1.0, atol=SUM_ATOL))
    if bad.size:
        raise ModelError(
            f"{name} rows {bad.tolist()} do not sum to 1 "
            f"(sums {row_sums[bad].tolist()})"
        )
    return np.clip(array, 0.0, None)


def check_nonpositive(array: np.ndarray, name: str = "rewards") -> np.ndarray:
    """Validate Condition 2: every entry of ``array`` is ``<= 0``."""
    values = np.asarray(array, dtype=float)
    if np.any(values > NEGATIVITY_ATOL):
        raise ModelError(
            f"{name} must be non-positive (Condition 2), max={values.max():.3g}"
        )
    return np.minimum(values, 0.0)


def check_termination_probability(value: float) -> float:
    """Validate a recovered-probability termination threshold.

    Returns ``value`` so calls can be inlined into constructors.  Raises
    :class:`ValueError` unless it lies in ``(0, 1]``: at 0 a policy quits on
    every belief, and above 1 it never quits.
    """
    if not 0.0 < value <= 1.0:
        raise ValueError(f"termination_probability must be in (0, 1], got {value}")
    return value


def normalize(vector: np.ndarray) -> np.ndarray:
    """Normalise a non-negative vector into a distribution.

    Raises :class:`~repro.exceptions.ModelError` when the vector sums to zero,
    because that means the caller conditioned on an impossible event.
    """
    array = np.asarray(vector, dtype=float)
    total = array.sum()
    if total <= 0.0:
        raise ModelError("cannot normalise a vector with non-positive mass")
    return array / total


def int_setting(
    value: int | None, name: str, env_var: str, default: int, minimum: int
) -> int:
    """An integer setting: ``value`` when given, else the ``env_var``
    environment variable, else ``default``.

    Raises:
        ValueError: the chosen value is not an integer >= ``minimum``; the
            message names ``name`` or ``env_var``, whichever supplied it.
    """
    if value is not None:
        source, raw = name, value
    else:
        raw = os.environ.get(env_var)
        if raw is None:
            return default
        source = env_var
    try:
        setting = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        setting = minimum - 1
    if setting < minimum:
        raise ValueError(f"{source} must be an integer >= {minimum}, got {raw!r}")
    return setting


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (anything else is a usage error)."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (anything else is a usage error)."""
    return _int_at_least(text, 0)


def _int_at_least(text: str, minimum: int) -> int:
    if not text.isdecimal() or int(text) < minimum:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {minimum}, got {text!r}"
        )
    return int(text)
