"""The analyzer on its one representation: conversion, attribution, R203.

Every analyzer pass has one implementation, on the sparse containers; a
dense input is converted losslessly (``sparsify_*``) when its
:class:`~repro.analysis.ModelView` is built.  These tests pin what that
design promises:

* **lossless conversion** — the same model analyzed from the dense arrays
  and from ``sparsify_*`` conversions yields the same diagnostic set
  (compared as ``(code, states, actions)`` triples);
* **row attribution** — R001/R002 name, per action, exactly the states
  whose rows that action reads and that are not distributions, whether
  the row is the action's own or a shared base row;
* **R203 semantics** — the genuine size cutoffs report which pass hit
  them, the threshold constant and value, and are overridable with
  ``analyze(..., force=True)``; they apply to every model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.passes as passes
from repro.analysis import ModelView, analyze
from repro.linalg.backends import (
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)


def _dense_view(transitions, observations, rewards, **extra) -> ModelView:
    return ModelView(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        **extra,
    )


def _sparse_view(transitions, observations, rewards, **extra) -> ModelView:
    return ModelView(
        transitions=sparsify_transitions(transitions),
        observations=(
            None if observations is None else sparsify_observations(observations)
        ),
        rewards=sparsify_rewards(rewards),
        **extra,
    )


def _triples(report):
    return sorted(
        (d.code, d.states, d.actions)
        for d in report.findings
        if d.code not in ("R201",)  # stats text differs (density formatting)
    )


@st.composite
def stochastic_models(draw):
    """Random *valid-stochastic* models, with optional recovery metadata.

    Rows are normalized Dirichlet draws, so R001/R002 never fire and the
    lossless ``sparsify_*`` conversions represent the exact same model on
    both backends.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_states = draw(st.integers(min_value=2, max_value=6))
    n_actions = draw(st.integers(min_value=1, max_value=4))
    n_observations = draw(st.integers(min_value=1, max_value=3))
    with_nulls = draw(st.booleans())
    duplicate_action = draw(st.booleans()) and n_actions >= 2
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    observations = rng.dirichlet(
        np.ones(n_observations), size=(n_actions, n_states)
    )
    rewards = -rng.uniform(0.1, 2.0, size=(n_actions, n_states))
    if duplicate_action:
        # Exact structural duplicate: both backends must report it.
        transitions[1] = transitions[0]
        observations[1] = observations[0]
        rewards[1] = rewards[0]
    extra = {}
    if with_nulls:
        null_states = np.zeros(n_states, dtype=bool)
        null_states[0] = True
        extra = dict(
            null_states=null_states,
            rate_rewards=np.append(0.0, -np.ones(n_states - 1)),
            recovery_notification=False,
        )
    return transitions, observations, rewards, extra


class TestDenseSparseParity:
    """A dense view and a view of its ``sparsify_*`` twin analyze alike."""

    @settings(max_examples=60, deadline=None)
    @given(stochastic_models())
    def test_same_diagnostic_triples(self, drawn):
        transitions, observations, rewards, extra = drawn
        dense = analyze(_dense_view(transitions, observations, rewards, **extra))
        sparse = analyze(
            _sparse_view(transitions, observations, rewards, **extra)
        )
        assert _triples(dense) == _triples(sparse)
        assert dense.exit_code == sparse.exit_code

    def test_parity_on_broken_stochasticity(self):
        """Non-distribution rows fire R001 on both backends."""
        transitions = np.zeros((2, 3, 3))
        transitions[0] = np.eye(3)
        transitions[1] = np.eye(3)
        transitions[1, 2] = [0.5, 0.0, 0.0]  # sums to 0.5
        rewards = -np.ones((2, 3))
        dense = analyze(_dense_view(transitions, None, rewards))
        sparse = analyze(
            ModelView(
                transitions=sparsify_transitions(transitions),
                rewards=sparsify_rewards(rewards),
            )
        )
        assert any(d.code == "R001" for d in dense.findings)
        assert any(d.code == "R001" for d in sparse.findings)
        # Both name the offending (state, action) pair.
        dense_hits = {
            (d.states, d.actions) for d in dense.findings if d.code == "R001"
        }
        sparse_hits = {
            (d.states, d.actions) for d in sparse.findings if d.code == "R001"
        }
        assert (("s2",), ("a1",)) in dense_hits
        assert (("s2",), ("a1",)) in sparse_hits


@st.composite
def broken_models(draw):
    """Random dense models with some transition and observation rows broken:
    scaled off 1, or given a negative entry."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_states = draw(st.integers(min_value=2, max_value=6))
    n_actions = draw(st.integers(min_value=1, max_value=4))
    n_observations = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    observations = rng.dirichlet(
        np.ones(n_observations), size=(n_actions, n_states)
    )
    if draw(st.booleans()):
        # Shared rows: every action starts from action 0's matrices, so a
        # broken row of action 0 is read by every action that keeps it.
        transitions[:] = transitions[0]
        observations[:] = observations[0]
    for tensor in (transitions, observations):
        broken = rng.random(tensor.shape[:2]) < draw(st.sampled_from([0.1, 0.3]))
        tensor[broken] *= 0.5
        negative = rng.random(tensor.shape[:2]) < 0.1
        tensor[negative, 0] = -0.25
    rewards = -rng.uniform(0.1, 2.0, size=(n_actions, n_states))
    return transitions, observations, rewards


def _brute_force_row_findings(code, tensor):
    """``(code, states, actions)`` per action, checking each row by itself."""
    from repro.util.validation import NEGATIVITY_ATOL, SUM_ATOL

    triples = []
    for a in range(tensor.shape[0]):
        bad = tuple(
            f"s{s}"
            for s in range(tensor.shape[1])
            if (tensor[a, s] < -NEGATIVITY_ATOL).any()
            or not np.isclose(tensor[a, s].sum(), 1.0, atol=SUM_ATOL)
        )
        if bad:
            triples.append((code, bad, (f"a{a}",)))
    return triples


class TestStochasticityAttribution:
    @settings(max_examples=100, deadline=None)
    @given(broken_models())
    def test_row_findings_match_per_row_reference(self, drawn):
        transitions, observations, rewards = drawn
        report = analyze(_dense_view(transitions, observations, rewards))
        found = [
            (d.code, d.states, d.actions)
            for d in report.findings
            if d.code in ("R001", "R002")
        ]
        assert found == _brute_force_row_findings(
            "R001", transitions
        ) + _brute_force_row_findings("R002", observations)


class TestUnionGraph:
    @settings(max_examples=60, deadline=None)
    @given(broken_models())
    def test_support_is_that_of_the_max_over_actions(self, drawn):
        """Broken rows included: another action's negative entry must not
        cancel an edge (reachability and SCCs read only the support)."""
        from repro.mdp.classify import EDGE_EPSILON

        transitions, observations, rewards = drawn
        view = _dense_view(transitions, observations, rewards)
        support = view.union_graph().toarray() > EDGE_EPSILON
        np.testing.assert_array_equal(
            support, transitions.max(axis=0) > EDGE_EPSILON
        )


def _duplicate_model():
    """3 actions: a0 == a2 exactly, a1 dominates a copy of itself (a0)."""
    rng = np.random.default_rng(7)
    transitions = rng.dirichlet(np.ones(4), size=(3, 4))
    transitions[2] = transitions[0]
    observations = rng.dirichlet(np.ones(2), size=(3, 4))
    observations[2] = observations[0]
    rewards = -rng.uniform(0.5, 1.5, size=(3, 4))
    rewards[2] = rewards[0]
    return transitions, observations, rewards


class TestSparseDuplicates:
    def test_exact_duplicate_found_without_pairwise_sweep(self):
        transitions, observations, rewards, = _duplicate_model()
        report = analyze(_sparse_view(transitions, observations, rewards))
        dups = [d for d in report.findings if d.code == "R102"]
        assert len(dups) == 1
        assert dups[0].actions == ("a0", "a2")

    def test_dominated_action_found(self):
        transitions, observations, rewards = _duplicate_model()
        rewards = rewards.copy()
        rewards[2] = rewards[0] - 0.5  # a2 costs strictly more everywhere
        report = analyze(_sparse_view(transitions, observations, rewards))
        dominated = [d for d in report.findings if d.code == "R103"]
        assert len(dominated) == 1
        assert dominated[0].actions == ("a2", "a0")  # (dominated, dominating)

    def test_different_observations_block_duplicate(self):
        transitions, observations, rewards = _duplicate_model()
        observations = observations.copy()
        observations[2] = np.roll(observations[2], 1, axis=1)
        report = analyze(_sparse_view(transitions, observations, rewards))
        assert not any(d.code in ("R102", "R103") for d in report.findings)


class TestR203Semantics:
    def test_duplicate_budget_cutoff_names_pass_and_threshold(self, monkeypatch):
        monkeypatch.setattr(passes, "DUPLICATE_PAIR_BUDGET", 0)
        transitions, observations, rewards = _duplicate_model()
        view = _sparse_view(transitions, observations, rewards)
        report = analyze(view)
        skips = [d for d in report.findings if d.code == "R203"]
        assert len(skips) == 1
        assert "duplicate-action (R102/R103)" in skips[0].message
        assert "DUPLICATE_PAIR_BUDGET=0" in skips[0].message
        assert "--force" in skips[0].fix_hint
        # The gated pass's findings are absent...
        assert not any(d.code == "R102" for d in report.findings)

    def test_force_overrides_duplicate_budget(self, monkeypatch):
        monkeypatch.setattr(passes, "DUPLICATE_PAIR_BUDGET", 0)
        transitions, observations, rewards = _duplicate_model()
        view = _sparse_view(transitions, observations, rewards)
        report = analyze(view, force=True)
        assert not any(d.code == "R203" for d in report.findings)
        assert any(d.code == "R102" for d in report.findings)

    def test_solve_cutoff_gates_r105_only(self, monkeypatch):
        monkeypatch.setattr(passes, "SPARSE_SOLVE_SKIP_STATES", 1)
        transitions, observations, rewards = _duplicate_model()
        view = _sparse_view(transitions, observations, rewards)
        report = analyze(view)
        skips = [d for d in report.findings if d.code == "R203"]
        assert len(skips) == 1
        assert "slow-absorption (R105)" in skips[0].message
        assert "SPARSE_SOLVE_SKIP_STATES=1" in skips[0].message
        forced = analyze(view, force=True)
        assert not any(d.code == "R203" for d in forced.findings)


class TestTieredSparseInstance:
    """The acceptance instance at test scale: full pass set, zero R203."""

    @pytest.fixture(scope="class")
    def tiered_report(self):
        from repro.systems.tiered import build_tiered_system

        system = build_tiered_system(replicas=(200, 200, 200), backend="sparse")
        return analyze(system.model)

    def test_no_size_skips(self, tiered_report):
        assert not any(d.code == "R203" for d in tiered_report.findings)

    def test_no_errors(self, tiered_report):
        assert not tiered_report.has_errors

    def test_scc_and_stats_present(self, tiered_report):
        codes = {d.code for d in tiered_report.findings}
        assert "R201" in codes and "R202" in codes
