"""Analytical Spark-execution simulator: the cluster substrate.

Models stage-based execution of a subQ DAG under all 19 knobs — the
stages of each topological level sharing the cores (a level takes
``max(task-seconds / cores, slowest task)``), per-task overhead, spill,
shuffle compression/fetch, broadcast, skew — plus the AQE runtime loop with parametric-rule re-optimization.
"""
