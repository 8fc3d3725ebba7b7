"""Controller shoot-out on the EMN system — a miniature of Table 1.

Compares the paper's four controller families over the same sequence of
injected zombie faults: the Bayes most-likely baseline, the heuristic
lookahead controller of [8], the bounded controller (this paper), and the
omniscient oracle.

Run:  python examples/compare_controllers.py [injections]
"""

import sys

from repro import (
    BoundedPolicyEngine,
    HeuristicPolicyEngine,
    MostLikelyPolicyEngine,
    OraclePolicyEngine,
    bootstrap_bounds,
    build_emn_system,
    run_campaign,
)
from repro.systems import FaultKind
from repro.util import render_table

SEED = 7


def main(injections: int = 100) -> None:
    system = build_emn_system()
    zombies = system.fault_states(FaultKind.ZOMBIE)

    bound_set, _ = bootstrap_bounds(
        system.model, iterations=10, depth=2, variant="average", seed=0
    )
    controllers = [
        MostLikelyPolicyEngine(system.model),
        HeuristicPolicyEngine(system.model, depth=1),
        HeuristicPolicyEngine(system.model, depth=2),
        BoundedPolicyEngine(
            system.model, depth=1, bound_set=bound_set,
            refine_min_improvement=1.0,
        ),
        OraclePolicyEngine(system.model),
    ]

    rows = []
    for controller in controllers:
        result = run_campaign(
            controller,
            fault_states=zombies,
            injections=injections,
            seed=SEED,
            monitor_tail=5.0,
        )
        rows.append(result.summary.as_row(controller.name))

    print(
        render_table(
            ["Algorithm", "Cost", "Recovery (s)", "Residual (s)",
             "Algo (ms)", "Actions", "Monitor calls"],
            rows,
            title=(
                f"Per-fault averages over {injections} zombie injections "
                "(cf. Table 1 of the paper)"
            ),
        )
    )
    print()
    print("Expected orderings (Section 5): oracle < bounded < heuristics < "
          "most-likely on cost; bounded needs no termination-probability "
          "parameter and recovers fastest among the diagnosing controllers.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
