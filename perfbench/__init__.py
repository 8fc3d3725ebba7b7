"""The repository benchmark: Table 1 campaigns and policy-daemon workloads.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md`` in
this directory for why each workload exists and what each metric means.
"""
