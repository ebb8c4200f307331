"""The repository's performance benchmark: one harness, four workloads.

``python -m benchmarks.perf run`` measures the evaluation stack end to end
(throughput, CPU per record, set-up time, peak memory) on inputs generated
from a seed, checks every record against a reference digest, and with
``--trace`` breaks one extra repeat down by layer.
``python -m benchmarks.perf compare`` applies the paired-run rule to two
result files.  ``README.md`` next to this file documents every metric and
workload.
"""
