"""Regenerate ``pins.json``: the expected campaign fingerprint per seed.

Usage, from the repository root::

    python3 perfbench/make_pins.py --seconds 15

Pins define correct output for ``table1_bounded``.  Regenerate them only
for a change that is meant to alter campaign behaviour (and say so), for
the run length ``BENCHMARK.json`` sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.sim.metrics import campaign_fingerprint

    from perfbench import campaign

    injections = campaign.injections_for(args.seconds)
    pins = campaign.load_pins() if campaign.PINS_PATH.exists() else {}
    table = pins.setdefault(str(injections), {})
    for seed in campaign.CAMPAIGN_SEEDS:
        system, controller = campaign.setup()
        result = campaign.campaign(system, controller, injections, seed)
        table[str(seed)] = campaign_fingerprint(result.episodes)
        print(f"{injections} injections, seed {seed}: {table[str(seed)]}", flush=True)
    campaign.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
