"""End-to-end benchmark of the repro stack with a traced per-layer breakdown.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``.  See ``perfbench/NOTES.md`` for the
workloads, the metrics and the layer -> metric map.
"""
