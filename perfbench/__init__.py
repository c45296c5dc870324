"""The repository benchmark: four workloads over train → register → serve →
update, with per-layer attribution from a separate traced run.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md`` for the
workloads, the metric definitions and the layer → end-to-end map.
"""
