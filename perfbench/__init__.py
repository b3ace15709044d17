"""The repository benchmark: online serving and journaled fleet rollouts.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the public serving API and
prints one JSON result line; ``BENCHMARK.json`` at the repository root
names the workloads and metrics.  See :mod:`perfbench.run` for the
metric definitions.
"""
