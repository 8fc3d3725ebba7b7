"""Step-by-step recovery traces — watching the controller think.

Injects one fault of each zombie type into the EMN system and prints the
full decision trace of the bounded controller: the action taken at each
step, the monitor outputs it observed, how its confidence that the system
has recovered evolved, and what each step cost.  This is the debugging
view a production operator would use to audit an automated recovery.

Also demonstrates the branch-and-bound extension (the paper's future work):
the same episodes driven by upper+lower bounds, with pruning statistics.

Run:  python examples/traced_recovery.py
"""

from repro import BranchAndBoundPolicyEngine, BoundedPolicyEngine, bootstrap_bounds
from repro import build_emn_system
from repro.obs.telemetry import Telemetry, activated
from repro.sim import RecoveryEnvironment, trace_episode

SEED = 42


def main() -> None:
    system = build_emn_system()
    pomdp = system.model.pomdp
    bound_set, _ = bootstrap_bounds(
        system.model, iterations=10, depth=2, variant="average", seed=0
    )

    for fault_label in ("zombie(DB)", "zombie(S1)", "zombie(HG)"):
        session = BoundedPolicyEngine(
            system.model, depth=1, bound_set=bound_set,
            refine_min_improvement=1.0,
        ).session()
        environment = RecoveryEnvironment(
            system.model, seed=SEED, monitor_tail=5.0
        )
        trace = trace_episode(
            session, environment, pomdp.state_index(fault_label)
        )
        print(trace.render())
        print()

    # The branch-and-bound extension prunes provably suboptimal actions
    # using the sawtooth upper bound before expanding their subtrees; it
    # counts its expansions and prunes in the active telemetry registry.
    session = BranchAndBoundPolicyEngine(
        system.model, depth=2, refine_min_improvement=1.0
    ).session()
    environment = RecoveryEnvironment(system.model, seed=SEED, monitor_tail=5.0)
    telemetry = Telemetry()
    with activated(telemetry):
        trace = trace_episode(
            session, environment, pomdp.state_index("zombie(S2)")
        )
    print(trace.render())
    pruned = telemetry.counters["controller.pruned_actions"]
    total = telemetry.counters["controller.expanded_actions"] + pruned
    print(
        f"\nBranch-and-bound at depth 2: pruned "
        f"{pruned}/{total} action expansions "
        f"({100 * pruned / total:.0f}%)."
    )


if __name__ == "__main__":
    main()
