"""The static analyzer's checking passes.

Each pass inspects a :class:`~repro.analysis.view.ModelView` and returns a
list of :class:`~repro.analysis.diagnostics.Diagnostic` findings; none of
them raises on model problems, so a single :func:`analyze` run reports
*every* violation instead of failing fast on the first.  The error-level
passes mirror the preconditions the paper's soundness results rest on:

* ``R001``/``R002`` — stochasticity, shared tolerances with
  :mod:`repro.util.validation` so the analyzer and the model constructors
  can never disagree on what "stochastic" means;
* ``R003``/``R004`` — Condition 1 (``S_phi`` reachable from every state);
* ``R005`` — Condition 2 (non-positive single-step rewards);
* ``R006``/``R007`` — the Figure 2(a) absorbing-null rewiring;
* ``R008`` — the Figure 2(b) terminate pair, including the
  ``r(s, a_T) = rbar(s) * t_op`` termination rewards;
* ``R009`` — the Eq. 5 finiteness precondition of the RA-Bound (no
  rewarded recurrent state in the uniformly-random chain).

Each pass has one implementation, on the sparse containers the
:class:`~repro.analysis.view.ModelView` holds; a dense input was converted
losslessly when the view was built.  The passes work directly on the CSR
containers (row hashing for duplicate detection, ``csgraph`` SCC labels for
the decomposition, a sparse linear solve for absorption times) and never
materialise a dense ``|S| x |S|`` matrix, so the full R0xx/R1xx suite runs
on the 300,002-state tiered instance.  Three rules follow from the one
representation and hold for every model:

* R102/R103 compare actions exactly (content hashes, then an exact check);
* the R203 size cutoffs below apply to every model;
* R201's transition density is the containers' stored-entry count.

The few size cutoffs are genuine super-linear scans; each reports an
``R203`` naming the pass, the threshold constant and its value, and every
one can be overridden with ``analyze(..., force=True)`` (``--force`` on
the CLI).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.view import ModelView
from repro.linalg.containers import SparseTransitions, StructuredRewards
from repro.linalg.ops import reward_column, reward_row
from repro.mdp.classify import (
    expected_absorption_time,
    reachable_set,
    scc_summary,
)
from repro.util.validation import NEGATIVITY_ATOL, SUM_ATOL

#: Rewards smaller than this in magnitude count as zero (matches
#: :data:`repro.bounds.ra_bound.REWARD_EPSILON`).
REWARD_EPSILON = 1e-12

#: Observation probabilities below this count as "cannot be emitted".
SUPPORT_EPSILON = 1e-12

#: Expected absorption time (in steps of the uniformly-random chain) past
#: which the RA-Bound, while finite, is flagged as pathologically loose.
SLOW_ABSORPTION_STEPS = 10_000.0

#: Models beyond this many states skip the R105 transient-state
#: linear solve (the one remaining pass whose cost is a sparse
#: factorisation, ~O(|S|^1.5) on chain-like supports).  Far above the
#: 300,002-state acceptance instance, which solves in well under a second.
SPARSE_SOLVE_SKIP_STATES = 2_000_000

#: Budget of within-group pairwise comparisons for the hash-grouped
#: duplicate-action pass.  Hashing keeps healthy models near zero pairs;
#: only an adversarial model with thousands of content-identical actions
#: can exceed this.
DUPLICATE_PAIR_BUDGET = 250_000

#: Per-state O(|A|) scans (null-rewiring, RA-finiteness reward columns)
#: examine at most this many states before noting the cutoff; healthy
#: recovery models have a handful of null/recurrent states.
PER_STATE_SCAN_CUTOFF = 4_096

#: At most this many labels are spelled out inside a message.
MESSAGE_LABEL_CAP = 8

#: At most this many state labels are attached to a finding's ``states``
#: tuple, so a 300k-state pathology cannot balloon a report.
STATE_TUPLE_CAP = 32

#: At most this many R001 (and R002) findings, one per action that reads a
#: bad row: a bad shared base row of the 150,002-action tiered model would
#: otherwise produce one finding per action.
ROW_FINDING_CAP = 32


def _size_skip(
    pass_name: str,
    threshold_name: str,
    threshold: float,
    measured: float,
    why: str,
) -> list[Diagnostic]:
    """A parameterised R203: which pass, which cutoff, and how to override."""
    return [
        Diagnostic(
            code="R203",
            message=(
                f"{pass_name} pass hit its size cutoff: {why} "
                f"({measured:g} exceeds {threshold_name}={threshold:g})"
            ),
            fix_hint=(
                "re-run with analyze(force=True) (CLI: --force) to run the "
                "pass anyway, or reduce the instance"
            ),
        )
    ]


def _labels_fragment(labels, indices) -> str:
    """Render up to :data:`MESSAGE_LABEL_CAP` labels, noting the overflow."""
    shown = [labels[int(i)] for i in indices[:MESSAGE_LABEL_CAP]]
    overflow = len(indices) - len(shown)
    if overflow > 0:
        return f"{shown} (+{overflow} more)"
    return f"{shown}"


def _states_tuple(labels, indices) -> tuple[str, ...]:
    return tuple(labels[int(i)] for i in indices[:STATE_TUPLE_CAP])


def _bad_csr_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a CSR matrix that are not distributions, and their sums."""
    negative = np.zeros(matrix.shape[0], dtype=bool)
    if matrix.nnz:
        bad_entries = matrix.data < -NEGATIVITY_ATOL
        if bad_entries.any():
            row_nnz = np.diff(matrix.indptr)
            entry_row = np.repeat(np.arange(matrix.shape[0]), row_nnz)
            negative[entry_row[bad_entries]] = True
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    bad = np.flatnonzero(negative | ~np.isclose(sums, 1.0, atol=SUM_ATOL))
    return bad, sums[bad]


def _capped(actions: np.ndarray) -> tuple[np.ndarray, int]:
    """The first :data:`ROW_FINDING_CAP` actions, and how many were cut."""
    return actions[:ROW_FINDING_CAP], max(actions.size - ROW_FINDING_CAP, 0)


def _row_finding(
    view: ModelView,
    code: str,
    tensor: str,
    action: int,
    states: np.ndarray,
    sums: np.ndarray,
    fix_hint: str,
) -> Diagnostic:
    order = np.argsort(states, kind="stable")
    states, sums = states[order], sums[order]
    return Diagnostic(
        code=code,
        message=(
            f"{tensor}[{view.action_labels[action]!r}] rows for states "
            f"{_labels_fragment(view.state_labels, states)} are not "
            "distributions (sums "
            f"{np.round(sums[:MESSAGE_LABEL_CAP], 6).tolist()})"
        ),
        states=_states_tuple(view.state_labels, states),
        actions=(view.action_labels[action],),
        fix_hint=fix_hint,
    )


def _note_cap(findings: list[Diagnostic], cut: int) -> None:
    """Say in the last finding's message that the list was capped."""
    if cut:
        last = findings[-1]
        findings[-1] = replace(
            last,
            message=(
                f"{last.message}; {last.code} capped at {ROW_FINDING_CAP} "
                f"findings, {cut} more action(s) read bad rows"
            ),
        )


def _transition_row_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R001, one finding per action that reads a bad transition row.

    An action reads its own override rows and the base rows it does not
    override; a bad base row is reported under every action that reads it.
    """
    transitions = view.transitions
    bad_base, base_sums = _bad_csr_rows(transitions.base)
    bad_rows, row_sums = _bad_csr_rows(transitions.rows)
    hides_bad_base = np.isin(transitions.row_state, bad_base)
    hidden = np.bincount(
        transitions.row_action[hides_bad_base], minlength=view.n_actions
    )
    reads_bad = hidden < bad_base.size
    reads_bad[transitions.row_action[bad_rows]] = True
    actions, cut = _capped(np.flatnonzero(reads_bad))
    findings = []
    for action in actions:
        block = transitions._override_slice(int(action))
        kept = ~np.isin(bad_base, transitions.row_state[block])
        lo, hi = np.searchsorted(bad_rows, [block.start, block.stop])
        findings.append(
            _row_finding(
                view,
                "R001",
                "transitions",
                int(action),
                np.concatenate(
                    [bad_base[kept], transitions.row_state[bad_rows[lo:hi]]]
                ),
                np.concatenate([base_sums[kept], row_sums[lo:hi]]),
                "make each row non-negative and sum to 1 (tolerance "
                f"{SUM_ATOL:g}); unlisted builder transitions default to "
                "self-loops",
            )
        )
    _note_cap(findings, cut)
    return findings


def _observation_row_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R002, one finding per action whose observation matrix has bad rows.

    An action reads its override matrix if it has one, the base otherwise.
    """
    observations = view.observations
    bad = {None: _bad_csr_rows(observations.base)}
    reads_bad = np.full(view.n_actions, bad[None][0].size > 0)
    for action, matrix in observations.overrides.items():
        bad[action] = _bad_csr_rows(matrix)
        reads_bad[action] = bad[action][0].size > 0
    actions, cut = _capped(np.flatnonzero(reads_bad))
    findings = []
    for action in actions:
        states, sums = bad.get(int(action), bad[None])
        findings.append(
            _row_finding(
                view,
                "R002",
                "observations",
                int(action),
                states,
                sums,
                "each state's observation row q(.|s, a) must be a "
                "distribution over the observation symbols",
            )
        )
    _note_cap(findings, cut)
    return findings


def stochasticity_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R001/R002: every transition and observation row must be a distribution.

    Each finding names one action and every state whose row that action
    reads is not a distribution; at most :data:`ROW_FINDING_CAP` findings
    per code, the last one saying so when the list was capped.
    """
    findings = _transition_row_diagnostics(view)
    if view.observations is not None:
        findings.extend(_observation_row_diagnostics(view))
    return findings


def _terminate_state(view: ModelView) -> int | None:
    """``s_T`` when it indexes a state; an out-of-range one is R008's to report."""
    s_t = view.terminate_state
    return s_t if s_t is not None and 0 <= s_t < view.n_states else None


def _exempt_mask(view: ModelView, exempt_states: np.ndarray | None) -> np.ndarray:
    exempt = np.zeros(view.n_states, dtype=bool)
    if exempt_states is not None:
        exempt |= np.asarray(exempt_states, dtype=bool)
    s_t = _terminate_state(view)
    if s_t is not None:
        exempt[s_t] = True
    return exempt


def condition_1_diagnostics(
    view: ModelView, exempt_states: np.ndarray | None = None
) -> list[Diagnostic]:
    """R003/R004: Condition 1 — ``S_phi`` reachable from every state.

    ``exempt_states`` are excluded from the requirement; the terminate
    state ``s_T`` (absorbing by design) is always exempt.
    """
    if view.null_states is None:
        return []
    mask = view.null_states
    if not mask.any():
        return [
            Diagnostic(
                code="R003",
                message="the null-fault set S_phi is empty",
                fix_hint="declare at least one state with null=True",
            )
        ]
    union = view.union_graph()
    # Reachability *to* S_phi == reachability *from* S_phi in the reverse graph.
    can_recover = reachable_set(union.T, mask) | _exempt_mask(view, exempt_states)
    stuck = np.flatnonzero(~can_recover)
    if not stuck.size:
        return []
    return [
        Diagnostic(
            code="R004",
            message=(
                f"state {view.state_labels[int(stuck[0])]!r} cannot reach "
                f"any null-fault state under any action sequence "
                f"({stuck.size} such states: "
                f"{_labels_fragment(view.state_labels, stuck)})"
            ),
            states=_states_tuple(view.state_labels, stuck),
            fix_hint=(
                "add a recovery action whose transitions lead these states "
                "(possibly through intermediates) into S_phi"
            ),
        )
    ]


def _structured_positive_candidates(rewards: StructuredRewards) -> np.ndarray:
    """Actions that *might* have a positive reward entry (superset).

    The rank-one part's per-action maximum is closed-form; override entries
    flag their own actions.  Actions outside this set cannot violate
    Condition 2, so the exact per-row check below runs on candidates only —
    O(candidates * |S|) instead of O(|A| * |S|).
    """
    rate_extreme = np.where(
        rewards.time_scale >= 0.0, rewards.rate.max(), rewards.rate.min()
    )
    base_max = rewards.time_scale * rate_extreme - rewards.fixed
    candidates = base_max > NEGATIVITY_ATOL
    if rewards.override.nnz:
        positive_entries = rewards.override.data > NEGATIVITY_ATOL
        if positive_entries.any():
            row_nnz = np.diff(rewards.override.indptr)
            entry_row = np.repeat(np.arange(rewards.n_actions), row_nnz)
            candidates[entry_row[positive_entries]] = True
    return np.flatnonzero(candidates)


def condition_2_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R005: Condition 2 — all single-step rewards non-positive."""
    findings = []
    for a in _structured_positive_candidates(view.rewards):
        row = reward_row(view.rewards, a)
        positive = np.flatnonzero(row > NEGATIVITY_ATOL)
        if not positive.size:
            continue
        worst = int(positive[np.argmax(row[positive])])
        findings.append(
            Diagnostic(
                code="R005",
                message=(
                    f"r({view.state_labels[worst]!r}, "
                    f"{view.action_labels[a]!r}) = "
                    f"{row[worst]:.3g} > 0"
                    + (
                        f" (and {positive.size - 1} more states under this "
                        "action)"
                        if positive.size > 1
                        else ""
                    )
                ),
                states=_states_tuple(view.state_labels, positive),
                actions=(view.action_labels[a],),
                fix_hint=(
                    "rewards are negated costs; express gains as smaller "
                    "costs so every r(s, a) <= 0"
                ),
            )
        )
    return findings


class _SelfLoopIndex:
    """Per-state effective self-loop lookup over a sparse container.

    One upfront vectorised pass (override diag sampling + a stable sort by
    state) makes each subsequent per-state query O(log R + overrides at
    that state) instead of a full scan of the override list.
    """

    def __init__(self, transitions: SparseTransitions):
        self._transitions = transitions
        self._base_diag = np.asarray(transitions.base.diagonal()).ravel()
        self._order = np.argsort(transitions.row_state, kind="stable")
        self._sorted_states = transitions.row_state[self._order]
        self._loops = transitions.override_self_loops()

    def values(self, state: int) -> np.ndarray:
        """``T_a[s, s]`` for every action ``a``."""
        values = np.full(
            self._transitions.n_actions, float(self._base_diag[state])
        )
        lo, hi = np.searchsorted(self._sorted_states, [state, state + 1])
        hits = self._order[lo:hi]
        if hits.size:
            values[self._transitions.row_action[hits]] = self._loops[hits]
        return values


def null_rewiring_diagnostics(
    view: ModelView, *, force: bool = False
) -> list[Diagnostic]:
    """R006/R007: the Figure 2(a) rewiring for notified systems.

    With recovery notification every null state must be absorbing under
    every action (R006) and accrue zero reward there (R007); otherwise the
    undiscounted value in ``S_phi`` is not 0 and Eq. 5 loses its finite
    solution.
    """
    if not view.recovery_notification or view.null_states is None:
        return []
    nulls = np.flatnonzero(view.null_states)
    findings: list[Diagnostic] = []
    if nulls.size > PER_STATE_SCAN_CUTOFF and not force:
        findings.extend(
            _size_skip(
                "null-rewiring (R006/R007)",
                "PER_STATE_SCAN_CUTOFF",
                PER_STATE_SCAN_CUTOFF,
                nulls.size,
                f"only the first {PER_STATE_SCAN_CUTOFF} of {nulls.size} "
                "null states were checked",
            )
        )
        nulls = nulls[:PER_STATE_SCAN_CUTOFF]
    loop_index = _SelfLoopIndex(view.transitions)
    for s in nulls:
        self_loops = loop_index.values(int(s))
        leaky = np.flatnonzero(np.abs(self_loops - 1.0) > SUM_ATOL)
        if leaky.size:
            findings.append(
                Diagnostic(
                    code="R006",
                    message=(
                        f"null state {view.state_labels[s]!r} is not "
                        "absorbing under actions "
                        f"{_labels_fragment(view.action_labels, leaky)}"
                    ),
                    states=(view.state_labels[s],),
                    actions=_states_tuple(view.action_labels, leaky),
                    fix_hint=(
                        "apply make_null_absorbing (Figure 2(a)) so every "
                        "action self-loops in S_phi"
                    ),
                )
            )
        rewarded = np.flatnonzero(
            np.abs(reward_column(view.rewards, int(s))) > REWARD_EPSILON
        )
        if rewarded.size:
            findings.append(
                Diagnostic(
                    code="R007",
                    message=(
                        f"absorbing null state {view.state_labels[s]!r} "
                        "accrues reward under actions "
                        f"{_labels_fragment(view.action_labels, rewarded)}"
                    ),
                    states=(view.state_labels[s],),
                    actions=_states_tuple(view.action_labels, rewarded),
                    fix_hint=(
                        "zero the rewards of every action in S_phi; a "
                        "recovered system must cost nothing to sit in"
                    ),
                )
            )
    return findings


def terminate_wiring_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R008: the Figure 2(b) terminate pair ``(s_T, a_T)``.

    Checks that ``a_T`` routes every state to ``s_T``, that ``s_T`` is
    absorbing and free under every action, and — when ``rbar`` and
    ``t_op`` are known — that the termination rewards equal
    ``r(s, a_T) = rbar(s) * t_op`` (0 on ``S_phi``).
    """
    s_t, a_t = view.terminate_state, view.terminate_action
    if s_t is None or a_t is None:
        return []
    findings = []
    if not (0 <= s_t < view.n_states) or not (0 <= a_t < view.n_actions):
        return [
            Diagnostic(
                code="R008",
                message=(
                    f"terminate indices s_T={s_t}, a_T={a_t} are out of "
                    f"range for |S|={view.n_states}, |A|={view.n_actions}"
                ),
                fix_hint="augment with with_termination_action (Figure 2(b))",
            )
        ]
    terminate_column = view.transitions.action_column(a_t, s_t)
    missed = np.flatnonzero(np.abs(terminate_column - 1.0) > SUM_ATOL)
    if missed.size:
        findings.append(
            Diagnostic(
                code="R008",
                message=(
                    "a_T does not move states "
                    f"{_labels_fragment(view.state_labels, missed)} to s_T "
                    "with probability 1"
                ),
                states=_states_tuple(view.state_labels, missed),
                actions=(view.action_labels[a_t],),
                fix_hint="a_T must deterministically end the episode in s_T",
            )
        )
    terminate_loops = view.transitions.self_loop_values(s_t)
    leaky = np.flatnonzero(np.abs(terminate_loops - 1.0) > SUM_ATOL)
    if leaky.size:
        findings.append(
            Diagnostic(
                code="R008",
                message=(
                    "s_T is not absorbing under actions "
                    f"{_labels_fragment(view.action_labels, leaky)}"
                ),
                states=(view.state_labels[s_t],),
                actions=_states_tuple(view.action_labels, leaky),
                fix_hint="every action must self-loop in s_T",
            )
        )
    rewarded = np.flatnonzero(
        np.abs(reward_column(view.rewards, s_t)) > REWARD_EPSILON
    )
    if rewarded.size:
        findings.append(
            Diagnostic(
                code="R008",
                message=(
                    "s_T accrues reward under actions "
                    f"{_labels_fragment(view.action_labels, rewarded)}"
                ),
                states=(view.state_labels[s_t],),
                actions=_states_tuple(view.action_labels, rewarded),
                fix_hint="the terminated system must be free: r(s_T, .) = 0",
            )
        )
    if view.rate_rewards is not None and view.operator_response_time is not None:
        expected = view.rate_rewards * view.operator_response_time
        if view.null_states is not None:
            expected = np.where(view.null_states, 0.0, expected)
        expected[s_t] = 0.0
        actual = reward_row(view.rewards, a_t)
        wrong = np.flatnonzero(
            ~np.isclose(actual, expected, rtol=1e-9, atol=1e-9)
        )
        wrong = wrong[wrong != s_t]
        if wrong.size:
            first = int(wrong[0])
            findings.append(
                Diagnostic(
                    code="R008",
                    message=(
                        f"termination reward r({view.state_labels[first]!r}, "
                        f"a_T) = {actual[first]:.6g} but rbar * t_op = "
                        f"{expected[first]:.6g} ({wrong.size} state(s) "
                        "mis-wired)"
                    ),
                    states=_states_tuple(view.state_labels, wrong),
                    actions=(view.action_labels[a_t],),
                    fix_hint=(
                        "terminating leaves the fault cost running until the "
                        "operator responds: set r(s, a_T) = rbar(s) * t_op"
                    ),
                )
            )
    return findings


def ra_finiteness_diagnostics(
    view: ModelView, *, force: bool = False
) -> list[Diagnostic]:
    """R009: Eq. 5 finiteness — no rewarded recurrent state in the uniform chain."""
    if view.discount < 1.0:
        return []
    recurrent = np.flatnonzero(view.mean_chain_classes().recurrent)
    findings: list[Diagnostic] = []
    if recurrent.size > PER_STATE_SCAN_CUTOFF and not force:
        findings.extend(
            _size_skip(
                "RA-finiteness (R009)",
                "PER_STATE_SCAN_CUTOFF",
                PER_STATE_SCAN_CUTOFF,
                recurrent.size,
                f"only the first {PER_STATE_SCAN_CUTOFF} of {recurrent.size} "
                "recurrent states were checked for rewards",
            )
        )
        recurrent = recurrent[:PER_STATE_SCAN_CUTOFF]
    for s in recurrent:
        rewarded = np.flatnonzero(
            np.abs(reward_column(view.rewards, int(s))) > REWARD_EPSILON
        )
        if rewarded.size:
            findings.append(
                Diagnostic(
                    code="R009",
                    message=(
                        f"recurrent state {view.state_labels[s]!r} of the "
                        f"uniformly-random chain accrues reward under actions "
                        f"{_labels_fragment(view.action_labels, rewarded)}; "
                        "the RA-Bound (Eq. 5) diverges"
                    ),
                    states=(view.state_labels[s],),
                    actions=_states_tuple(view.action_labels, rewarded),
                    fix_hint=(
                        "apply the Figure 2 recovery augmentation (absorbing "
                        "S_phi or the terminate pair) before solving"
                    ),
                )
            )
    return findings


def _default_initial_belief(view: ModelView) -> np.ndarray | None:
    if view.initial_belief is not None:
        return view.initial_belief
    if view.null_states is None:
        return None
    faults = ~view.null_states
    s_t = _terminate_state(view)
    if s_t is not None:
        faults[s_t] = False
    if not faults.any():
        return None
    belief = np.zeros(view.n_states)
    belief[faults] = 1.0 / faults.sum()
    return belief


def unreachable_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R101: states unreachable from the initial belief support."""
    belief = _default_initial_belief(view)
    if belief is None:
        return []
    support = belief > 0.0
    reached = reachable_set(view.union_graph(), support)
    unreachable = np.flatnonzero(~reached)
    if not unreachable.size:
        return []
    return [
        Diagnostic(
            code="R101",
            message=(
                f"states {_labels_fragment(view.state_labels, unreachable)} "
                "can never be entered from the initial belief under any "
                "action sequence"
            ),
            states=_states_tuple(view.state_labels, unreachable),
            fix_hint=(
                "dead states cost belief-update and lookahead time; drop "
                "them or include them in the initial fault distribution"
            ),
        )
    ]


def _csr_equal(left, right) -> bool:
    """Exact equality of two sparse matrices (canonical or not)."""
    if left is right:
        return True
    if left.shape != right.shape:
        return False
    return (left - right).count_nonzero() == 0


def _observation_classes(view: ModelView) -> np.ndarray:
    """Content-equality class per action of the observation containers.

    Class 0 is the shared base; override matrices get classes 1+ with
    content-identical overrides mapped to the same class (there are only
    ever a handful of overrides, so the pairwise content check is cheap).
    """
    classes = np.zeros(view.n_actions, dtype=np.int64)
    if view.observations is None:
        return classes
    observations = view.observations
    representatives: list = []
    for action, matrix in sorted(observations.overrides.items()):
        if _csr_equal(matrix, observations.base):
            continue
        for class_id, representative in enumerate(representatives):
            if _csr_equal(matrix, representative):
                classes[action] = class_id + 1
                break
        else:
            representatives.append(matrix)
            classes[action] = len(representatives)
    return classes


def _transition_signatures(
    transitions: SparseTransitions,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-action effective-content signature ``(states, row hashes)``.

    Only non-noop override rows participate: an override row identical to
    its base row does not change the action's effective matrix, so two
    actions are content-equal iff their non-noop ``(state, row)`` sets
    coincide (hashes first, exact comparison within candidate groups).
    """
    hashes, noop = transitions.override_row_hashes()
    pointers = transitions._action_ptr
    signatures = []
    for action in range(transitions.n_actions):
        start, stop = int(pointers[action]), int(pointers[action + 1])
        keep = ~noop[start:stop]
        signatures.append(
            (
                tuple(transitions.row_state[start:stop][keep].tolist()),
                tuple(hashes[start:stop][keep].tolist()),
            )
        )
    return signatures


def _actions_transitions_equal(
    transitions: SparseTransitions, a: int, b: int
) -> bool:
    """Exact effective-matrix equality of two actions (collision guard)."""
    _, noop = transitions.override_row_hashes()
    block_a, block_b = (
        transitions._override_slice(a),
        transitions._override_slice(b),
    )
    keep_a = np.arange(block_a.start, block_a.stop)[~noop[block_a]]
    keep_b = np.arange(block_b.start, block_b.stop)[~noop[block_b]]
    if keep_a.size != keep_b.size:
        return False
    if not np.array_equal(
        transitions.row_state[keep_a], transitions.row_state[keep_b]
    ):
        return False
    if not keep_a.size:
        return True
    return _csr_equal(transitions.rows[keep_a], transitions.rows[keep_b])


def duplicate_action_diagnostics(
    view: ModelView, *, force: bool = False
) -> list[Diagnostic]:
    """R102/R103: duplicate and row-wise dominated actions.

    Two actions are duplicates when their transition rows, observation
    rows, and rewards all coincide; an action is dominated when it matches
    another action's dynamics and information exactly but costs at least as
    much everywhere (and strictly more somewhere) — no policy ever needs it.

    Actions are grouped by (observation class, non-noop transition
    signature) from override-content hashes
    (:meth:`~repro.linalg.containers.SparseTransitions.override_row_hashes`),
    so the 150k-action tiered instance needs no pairwise sweep; only
    within-group pairs are compared.  Transition and observation equality
    is exact — row hashing cannot see "almost equal" — which is the right
    notion for machine-generated models, where duplicates are structural,
    not numeric.
    """
    transitions = view.transitions
    observation_classes = _observation_classes(view)
    signatures = _transition_signatures(transitions)
    groups: dict[tuple, list[int]] = {}
    for action in range(view.n_actions):
        key = (int(observation_classes[action]), *signatures[action])
        groups.setdefault(key, []).append(action)
    total_pairs = sum(
        len(members) * (len(members) - 1) // 2 for members in groups.values()
    )
    if total_pairs > DUPLICATE_PAIR_BUDGET and not force:
        return _size_skip(
            "duplicate-action (R102/R103)",
            "DUPLICATE_PAIR_BUDGET",
            DUPLICATE_PAIR_BUDGET,
            total_pairs,
            f"{total_pairs} content-collision pairs to compare",
        )
    pairs = sorted(
        (a, b)
        for members in groups.values()
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    )
    findings = []
    for a, b in pairs:
        if not _actions_transitions_equal(transitions, a, b):
            continue  # hash collision — contents differ
        difference = reward_row(view.rewards, a) - reward_row(view.rewards, b)
        if np.allclose(difference, 0.0, atol=REWARD_EPSILON):
            findings.append(
                Diagnostic(
                    code="R102",
                    message=(
                        f"actions {view.action_labels[a]!r} and "
                        f"{view.action_labels[b]!r} have identical "
                        "transitions, observations, and rewards"
                    ),
                    actions=(view.action_labels[a], view.action_labels[b]),
                    fix_hint="remove one; duplicates only slow the solver",
                )
            )
        elif np.all(difference <= REWARD_EPSILON):
            findings.append(_dominated(view, dominated=a, dominating=b))
        elif np.all(difference >= -REWARD_EPSILON):
            findings.append(_dominated(view, dominated=b, dominating=a))
    return findings


def _dominated(view: ModelView, dominated: int, dominating: int) -> Diagnostic:
    return Diagnostic(
        code="R103",
        message=(
            f"action {view.action_labels[dominated]!r} matches "
            f"{view.action_labels[dominating]!r} in dynamics and "
            "observations but costs more in some state"
        ),
        actions=(
            view.action_labels[dominated],
            view.action_labels[dominating],
        ),
        fix_hint="no policy needs the dominated action; remove it",
    )


def dead_observation_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R104: observation symbols with zero emission probability everywhere."""
    if view.observations is None:
        return []
    emittable = view.observations.max_per_observation() > SUPPORT_EPSILON
    dead = np.flatnonzero(~emittable)
    if not dead.size:
        return []
    labels = [view.observation_labels[o] for o in dead]
    return [
        Diagnostic(
            code="R104",
            message=(
                f"{dead.size} observation symbol(s) can never be emitted "
                f"by any state under any action: {labels[:8]}"
                + (" ..." if dead.size > 8 else "")
            ),
            fix_hint=(
                "dead symbols inflate every belief update by |O|; drop them "
                "from the observation alphabet"
            ),
        )
    ]


def slow_absorption_diagnostics(
    view: ModelView,
    slow_absorption_steps: float = SLOW_ABSORPTION_STEPS,
    *,
    force: bool = False,
) -> list[Diagnostic]:
    """R105: transient states whose random-policy absorption is very slow.

    The RA-Bound charges each transient state roughly its expected
    absorption time worth of average cost; a state that takes
    ``slow_absorption_steps`` expected steps to absorb makes the bound
    finite (Eq. 5 still converges) but extremely loose there.  The pass
    runs the sparse transient-state solve
    (:func:`repro.mdp.classify.expected_absorption_time`) against the
    chain's cached recurrent set, so it covers the 300k-state instance;
    only beyond :data:`SPARSE_SOLVE_SKIP_STATES` does it note a cutoff.
    """
    if view.discount < 1.0:
        return []
    if view.n_states > SPARSE_SOLVE_SKIP_STATES and not force:
        return _size_skip(
            "slow-absorption (R105)",
            "SPARSE_SOLVE_SKIP_STATES",
            SPARSE_SOLVE_SKIP_STATES,
            view.n_states,
            "the transient-state solve factorises an "
            f"{view.n_states} x {view.n_states} sparse system",
        )
    times = expected_absorption_time(
        view.mean_chain(), targets=view.mean_chain_classes().recurrent
    )
    slow = np.flatnonzero(np.isfinite(times) & (times > slow_absorption_steps))
    if not slow.size:
        return []
    worst = int(slow[np.argmax(times[slow])])
    return [
        Diagnostic(
            code="R105",
            message=(
                f"states {_labels_fragment(view.state_labels, slow)} take "
                f"more than {slow_absorption_steps:g} expected random-policy "
                f"steps to absorb (worst: {view.state_labels[worst]!r} at "
                f"{times[worst]:.3g}); the RA-Bound will be very loose there"
            ),
            states=_states_tuple(view.state_labels, slow),
            fix_hint=(
                "raise repair probabilities or add a more direct recovery "
                "action; consider seeding refinement at these states' beliefs"
            ),
        )
    ]


def stats_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R201: descriptive model statistics.

    The transition density counts the entries the containers store, summed
    over the actions' effective matrices.
    """
    density = float(
        view.transitions.effective_nnz()
        / max(view.n_actions * view.n_states**2, 1)
    )
    parts = [
        f"|S|={view.n_states}",
        f"|A|={view.n_actions}",
        f"|O|={view.n_observations}" if view.observations is not None else "|O|=0",
        f"discount={view.discount:g}",
        f"transition density={density:.3f}",
    ]
    if view.null_states is not None:
        parts.append(f"|S_phi|={int(view.null_states.sum())}")
    if view.recovery_notification is not None:
        parts.append(
            "recovery notification (Figure 2(a))"
            if view.recovery_notification
            else "terminate pair (Figure 2(b))"
        )
    return [Diagnostic(code="R201", message=", ".join(parts))]


def scc_diagnostics(view: ModelView) -> list[Diagnostic]:
    """R202: SCC decomposition of the union graph and the uniform chain.

    The union graph goes through the vectorised label/size summary
    (:func:`repro.mdp.classify.scc_summary`), so no per-component Python
    set is materialised for it — the pass runs on the 300k-state union
    graph in one ``csgraph`` sweep.  The chain's classification is the
    view's cached one (:meth:`~repro.analysis.view.ModelView.mean_chain_classes`),
    whose sets cover only its few recurrent classes.
    """
    union_summary = scc_summary(view.union_graph())
    chain = view.mean_chain_classes()
    sizes = sorted(union_summary.sizes.tolist(), reverse=True)
    return [
        Diagnostic(
            code="R202",
            message=(
                f"union graph has {union_summary.count} SCC(s) "
                f"(sizes {sizes[:8]}{' ...' if len(sizes) > 8 else ''}); "
                f"uniform-random chain has "
                f"{len(chain.recurrent_classes)} recurrent class(es) "
                f"over {int(chain.recurrent.sum())} state(s), "
                f"{int(chain.absorbing.sum())} absorbing"
            ),
        )
    ]


#: The full pipeline, in report order (errors, warnings, info).
_PASSES = (
    stochasticity_diagnostics,
    condition_1_diagnostics,
    condition_2_diagnostics,
    null_rewiring_diagnostics,
    terminate_wiring_diagnostics,
    ra_finiteness_diagnostics,
    unreachable_diagnostics,
    duplicate_action_diagnostics,
    dead_observation_diagnostics,
    slow_absorption_diagnostics,
    stats_diagnostics,
    scc_diagnostics,
)

#: Passes that accept ``force=`` to override their R203 size cutoffs.
_FORCEABLE = (
    null_rewiring_diagnostics,
    ra_finiteness_diagnostics,
    duplicate_action_diagnostics,
    slow_absorption_diagnostics,
)


def analyze(model, title: str | None = None, force: bool = False) -> AnalysisReport:
    """Run every pass over ``model`` and return the aggregated report.

    Args:
        model: an :class:`~repro.mdp.MDP`, :class:`~repro.pomdp.POMDP`,
            :class:`~repro.recovery.RecoveryModel`, or a prepared
            :class:`~repro.analysis.view.ModelView`.
        title: report heading; derived from the model shape when omitted.
        force: run passes past their R203 size cutoffs (may be slow on
            adversarially large instances).
    """
    view = model if isinstance(model, ModelView) else ModelView.from_model(model)
    findings: list[Diagnostic] = []
    for check in _PASSES:
        if check in _FORCEABLE:
            findings.extend(check(view, force=force))
        else:
            findings.extend(check(view))
    if title is None:
        kind = "recovery model" if view.null_states is not None else (
            "POMDP" if view.observations is not None else "MDP"
        )
        title = (
            f"{kind} ({view.n_states} states, {view.n_actions} actions"
            + (
                f", {view.n_observations} observations"
                if view.observations is not None
                else ""
            )
            + ")"
        )
    return AnalysisReport(findings=tuple(findings), title=title)
