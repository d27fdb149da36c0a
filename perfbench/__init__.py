"""Repository benchmark: two workloads over the public ``repro`` entry points.

Run one measurement with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and the layer table.
"""
