"""Static soundness certificates for persisted bound sets (R3xx).

A :class:`~repro.bounds.vector_set.BoundVectorSet` is only useful as a
*lower* bound: Property 1 of the paper needs every stored hyperplane ``b``
to satisfy ``pi . b <= V*(pi)`` on the whole belief simplex.  The
refinement path guarantees this by construction (the RA-Bound seed by
Eq. 5, each added vector by the Eq. 7 backup), but a *persisted* set
re-loaded from disk carries no such guarantee — the file may be stale
(written against an older model), truncated, or bit-corrupted, and a
silently unsound bound makes the controller's action choices wrong with
no error anywhere.

:func:`certify_bound_set` checks, statically and without running the
solver, a set of *necessary* consistency conditions every sound
refinement-produced set satisfies:

``R301`` — the set must fit the model: matching state dimension and only
finite entries.

``R302`` — every vector must lie below the fully-observable Bellman
backup of the set's upper envelope.  Writing ``u = max_B b`` (pointwise),
each Eq. 7 vector obeys ``b <= max_a [ r_a + beta * T_a u ]`` within
:data:`~repro.bounds.incremental.BACKUP_TIE_EPSILON`: the observation
term of Eq. 7 selects one vector per observation symbol, and replacing
each selection with the envelope ``u`` only increases the right-hand
side (the ``q(o | s', a)`` weights sum to 1).  The RA-Bound seed is the
uniform-policy value, which is below the optimal backup of anything
above it — in particular of ``u >= v_RA``.  Random corruption of any
entry breaks the inequality at that coordinate with overwhelming
probability, which is exactly the staleness/corruption detection this
certificate exists for.

``R303`` — vectors must be non-positive where the model pins the value
to zero: at the terminate state ``s_T`` (``V*(e_sT) = 0``) and, under
recovery notification, on the absorbing null set ``S_phi``.

The conditions are necessary, not sufficient — ``V*`` itself satisfies
all three — so a passing certificate means "consistent with this model",
not "proven below ``V*``".  For the load-path use case (reject stale or
corrupted files) necessity is the right direction: every set the shipped
refinement path produces passes, and mismatched or damaged sets fail.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.view import ModelView
from repro.bounds.incremental import BACKUP_TIE_EPSILON
from repro.linalg.ops import bellman_backup_envelope

#: At most this many offending coordinates are spelled out per vector.
_COORD_CAP = 8


def _compatibility_diagnostics(
    view: ModelView, vectors: np.ndarray
) -> list[Diagnostic]:
    """R301: the set must structurally fit the model."""
    findings = []
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        return [
            Diagnostic(
                code="R301",
                message=(
                    f"bound set must be a non-empty (k, |S|) stack, got "
                    f"shape {vectors.shape}"
                ),
                fix_hint="re-solve and re-save the bound set",
            )
        ]
    if vectors.shape[1] != view.n_states:
        findings.append(
            Diagnostic(
                code="R301",
                message=(
                    f"bound vectors have {vectors.shape[1]} components but "
                    f"the model has {view.n_states} states"
                ),
                fix_hint=(
                    "the set was saved against a different model; re-solve "
                    "against this one"
                ),
            )
        )
    bad = ~np.isfinite(vectors)
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=1))
        for i in rows[:_COORD_CAP]:
            findings.append(
                Diagnostic(
                    code="R301",
                    message=(
                        f"bound vector {i} contains "
                        f"{int(bad[i].sum())} non-finite component(s)"
                    ),
                    location=f"vector[{i}]",
                    fix_hint="the archive is corrupted; re-solve and re-save",
                )
            )
    return findings


def _backup_diagnostics(view: ModelView, vectors: np.ndarray) -> list[Diagnostic]:
    """R302: every vector below the Bellman backup of the upper envelope."""
    envelope_input = vectors.max(axis=0)
    backed = bellman_backup_envelope(
        view.transitions, view.rewards, envelope_input, view.discount
    )
    findings = []
    excess = vectors - backed[np.newaxis, :]
    violating_rows = np.flatnonzero(
        (excess > BACKUP_TIE_EPSILON).any(axis=1)
    )
    for i in violating_rows:
        where = np.flatnonzero(excess[i] > BACKUP_TIE_EPSILON)
        worst = int(where[np.argmax(excess[i][where])])
        findings.append(
            Diagnostic(
                code="R302",
                message=(
                    f"bound vector {i} exceeds the Bellman backup of the "
                    f"set's envelope at {where.size} state(s); worst at "
                    f"{view.state_labels[worst]!r}: "
                    f"{vectors[i, worst]:.9g} > {backed[worst]:.9g} "
                    f"(margin {excess[i, worst]:.3g} > "
                    f"{BACKUP_TIE_EPSILON:g})"
                ),
                location=f"vector[{i}]",
                states=tuple(
                    view.state_labels[int(s)] for s in where[:_COORD_CAP]
                ),
                fix_hint=(
                    "no Eq. 7 refinement produces such a vector; the set is "
                    "stale or corrupted — re-solve against this model"
                ),
            )
        )
    return findings


def _zero_state_diagnostics(view: ModelView, vectors: np.ndarray) -> list[Diagnostic]:
    """R303: non-positive at s_T and (when notified) on S_phi."""
    pinned: list[tuple[int, str]] = []
    if view.terminate_state is not None and 0 <= view.terminate_state < view.n_states:
        pinned.append((view.terminate_state, "terminate state"))
    if view.recovery_notification and view.null_states is not None:
        pinned.extend(
            (int(s), "absorbing null state")
            for s in np.flatnonzero(view.null_states)
        )
    findings = []
    for i, vector in enumerate(vectors):
        offending = [
            (s, why)
            for s, why in pinned
            if vector[s] > BACKUP_TIE_EPSILON
        ]
        if not offending:
            continue
        s, why = offending[0]
        findings.append(
            Diagnostic(
                code="R303",
                message=(
                    f"bound vector {i} is positive at the {why} "
                    f"{view.state_labels[s]!r} ({vector[s]:.9g} > 0) where "
                    "V* = 0"
                    + (
                        f" (and {len(offending) - 1} more pinned state(s))"
                        if len(offending) > 1
                        else ""
                    )
                ),
                location=f"vector[{i}]",
                states=tuple(
                    view.state_labels[s] for s, _ in offending[:_COORD_CAP]
                ),
                fix_hint=(
                    "a lower bound on non-positive values cannot be "
                    "positive; the set is stale or corrupted"
                ),
            )
        )
    return findings


def certify_bound_set(model, bound_set, title: str | None = None) -> AnalysisReport:
    """Certify that ``bound_set`` is consistent with ``model`` as a lower bound.

    Args:
        model: an MDP/POMDP/RecoveryModel or a prepared
            :class:`~repro.analysis.view.ModelView` (both backends work: a
            dense model is converted to the view's sparse containers, and
            the transition tensor is never densified).
        bound_set: a :class:`~repro.bounds.vector_set.BoundVectorSet` or a
            raw ``(k, |S|)`` array of hyperplanes.
        title: report heading; derived from the set size when omitted.

    Returns:
        An :class:`~repro.analysis.diagnostics.AnalysisReport` whose R3xx
        findings are errors (``exit_code == 2``, ``raise_if_errors`` raises
        :class:`~repro.exceptions.AnalysisError`); a passing certificate
        carries a single ``R204`` summary.
    """
    view = model if isinstance(model, ModelView) else ModelView.from_model(model)
    vectors = np.asarray(getattr(bound_set, "vectors", bound_set), dtype=float)
    vectors = np.atleast_2d(vectors)
    findings = _compatibility_diagnostics(view, vectors)
    if not findings:
        findings.extend(_backup_diagnostics(view, vectors))
        findings.extend(_zero_state_diagnostics(view, vectors))
    certified = not findings
    findings.append(
        Diagnostic(
            code="R204",
            message=(
                f"certificate over {vectors.shape[0]} bound vector(s), "
                f"{view.n_states} states: "
                + (
                    "all Bellman-backup and zero-state conditions hold "
                    f"(tolerance {BACKUP_TIE_EPSILON:g})"
                    if certified
                    else "FAILED — see R3xx errors"
                )
            ),
        )
    )
    if title is None:
        title = (
            f"bound-set certificate ({vectors.shape[0]} vector(s), "
            f"{view.n_states} states)"
        )
    return AnalysisReport(findings=tuple(findings), title=title)
