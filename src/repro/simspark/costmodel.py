"""Stage-level cost model: how one query stage behaves under a configuration.

The model captures the mechanisms Spark's knobs actually control:

* **file splits** — Spark's ``maxSplitBytes = min(s8, max(s9, bytes/k4))``
  formula ties scan parallelism to ``θp`` (s8, s9) *and* ``θc`` (k4);
* **shuffle partitioning** — initial count from ``s5``, AQE coalescing
  toward the advisory size ``s1`` bounded by ``s11`` (θs), small-partition
  rebalance via ``s10`` (θs);
* **join algorithm** — BHJ/SHJ/SMJ by the ``s3``/``s4`` thresholds against
  the *estimated* build size at compile time and the *actual* size under
  AQE; AQE may demote SMJ→SHJ/BHJ, never the reverse (paper §5.2);
* **memory pressure** — spill when per-task (or, for broadcast builds,
  per-executor) memory demand exceeds ``k1``/``k2``/``k8``-derived budgets;
* **shuffle machinery** — compression (``k7``), fetch batching (``k5``),
  sort-vs-bypass merge (``k6``);
* **skew** — max-task inflation from the exchange's partition-size skew,
  mitigated by AQE skew splitting (``s6``/``s7``) and rebalance (``s10``).

Every stage runs under AQE, as in the paper (§5.2). Each Spark decision
has one formula here, which the simulator, the model features
(``repro.model.features``) and the runtime plugin share.

Latencies are seconds, sizes bytes. All functions are pure and numpy-only
so the MOO solver can call them tens of thousands of times per second.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import GB, MB

SMJ, SHJ, BHJ = "SMJ", "SHJ", "BHJ"

# Memory of an in-memory hash table relative to the build-side bytes it holds
HASH_TABLE_FACTOR = 1.8


@dataclass(frozen=True)
class CostParams:
    """Calibration coefficients of the execution model (per-byte seconds)."""

    task_overhead_s: float = 0.12        # scheduling + deserialization per task
    stage_overhead_s: float = 0.25       # stage submit/teardown
    startup_base_s: float = 1.5          # Spark context / executor launch
    startup_per_exec_s: float = 0.12
    cpu_scan: float = 1.0e-8             # ~100 MB/s/core scan+decode
    cpu_filter: float = 2.0e-9
    cpu_project: float = 1.5e-9
    cpu_agg: float = 6.0e-9
    cpu_sort: float = 1.0e-8             # x log2(rows/partition)/16
    cpu_hash_build: float = 8.0e-9
    cpu_hash_probe: float = 4.0e-9
    cpu_merge: float = 3.0e-9
    cpu_compress: float = 2.5e-9
    cpu_decompress: float = 1.5e-9
    disk_write: float = 5.0e-9           # ~200 MB/s effective
    disk_read: float = 4.0e-9
    net_broadcast: float = 1.0e-9        # ~1 GB/s broadcast fan-out
    fetch_wave_s: float = 0.03           # latency per maxSizeInFlight round
    compress_ratio: float = 0.45         # compressed shuffle volume
    spill_rw: float = 1.0e-8             # write+read back spilled bytes
    mem_safety: float = 0.6              # usable fraction of execution memory
    price_core_h: float = 0.05           # $ per core-hour
    price_mem_gb_h: float = 0.006        # $ per GB-hour
    price_driver_h: float = 0.30         # driver + cluster occupancy $/hour
    price_io_gb: float = 2.0e-4          # $ per GB moved


DEFAULT_COSTS = CostParams()


def resource_rate_h(k1, k2, k3):
    """$ per hour the cluster is held: executor cores and memory (θc's
    k1·k3 cores, k2·k3 bytes) plus the driver. Scalars or arrays."""
    costs = DEFAULT_COSTS
    return (k1 * k3 * costs.price_core_h + k2 / GB * k3 * costs.price_mem_gb_h
            + costs.price_driver_h)


@dataclass
class StageMetrics:
    """Everything the simulator/trace-generator needs about one stage run."""

    n_tasks: int
    task_sec_total: float     # sum of task latencies (analytical numerator)
    avg_task_s: float
    max_task_s: float
    cpu_sec: float
    io_bytes: float           # all bytes moved: read + shuffle + spill + bcast
    shuffle_write_bytes: float
    spill_bytes: float
    broadcast_bytes: float
    join_alg: str = ""


def scan_partitions_vec(bytes_in, s8, s9, k4):
    """Vectorized FilePartition split count (s8/s9/k4 interplay)."""
    bytes_in = np.maximum(bytes_in, 1.0)
    max_split = np.minimum(s8, np.maximum(s9, bytes_in / np.maximum(k4, 1.0)))
    return np.maximum(1, np.ceil(bytes_in / np.maximum(max_split, 1.0)))


def initial_partitions(s5):
    """Shuffle partitions a stage is planned with, before AQE coalesces:
    ``s5`` rounded, at least 1. Scalar or array."""
    return np.maximum(1, np.rint(s5))


def shuffle_partitions_vec(input_bytes, s1, s5, s10, s11, skew):
    """Vectorized post-shuffle partition count and effective skew.

    AQE coalesces contiguous partitions of the ``initial_partitions``
    toward ``s1`` (never below ``s11``-sized chunks), and the stage-level
    rebalance rule (``s10``) merges partitions smaller than
    ``s10 * advisory``, trimming both task count and skew.
    """
    input_bytes = np.maximum(input_bytes, 1.0)
    p0 = initial_partitions(s5)
    target = np.maximum(s1, s11)
    p = np.clip(np.ceil(input_bytes / target), 1, p0)
    frac_small = np.minimum(1.0, skew * 0.5)  # skewed exchanges emit tiny parts
    p = np.maximum(1, np.round(p * (1.0 - 0.35 * s10 * frac_small)))
    skew_eff = skew * (1.0 - 0.4 * s10)
    return p, skew_eff


def skew_limited_max(mean_bytes: float, skew: float, conf: dict) -> tuple[float, float]:
    """Max-partition bytes after AQE skew splitting (s6/s7).

    Returns (max_partition_bytes, extra_partition_factor).
    """
    raw_max = mean_bytes * (1.0 + 3.0 * skew)
    threshold = max(conf["s6"], conf["s7"] * mean_bytes)
    if raw_max > threshold:
        # split skewed partitions down to the threshold
        extra = min(4.0, raw_max / max(threshold, 1.0))
        return threshold, extra
    return raw_max, 1.0


def choose_join_algorithm(build_bytes: float, probe_bytes: float, conf: dict, *,
                          rows_build: float, runtime: bool,
                          compile_alg: str | None = None) -> str:
    """Pick BHJ/SHJ/SMJ by the θp thresholds.

    At compile time (``runtime=False``) the inputs are CBO estimates. At
    runtime AQE re-decides with actual sizes but may only *demote* an SMJ
    to SHJ/BHJ — a compile-time BHJ/SHJ is kept (Spark cannot convert back).
    A runtime BHJ also needs the build side's share of non-empty
    partitions (rows per partition, capped at 1) to reach ``s2``.
    """
    if runtime and compile_alg in (BHJ, SHJ):
        return compile_alg
    p = int(initial_partitions(conf["s5"]))
    if build_bytes <= conf["s4"]:
        if not runtime or min(1.0, rows_build / p) >= conf["s2"]:
            return BHJ
        return SHJ if build_bytes / p <= conf["s3"] else SMJ
    if build_bytes / p <= conf["s3"]:
        return SHJ
    return SMJ


def exec_mem(conf: dict) -> float:
    """Usable execution memory of one executor: k2·k8 times ``mem_safety``."""
    return conf["k2"] * conf["k8"] * DEFAULT_COSTS.mem_safety


def stage_cost(
    *,
    kind: str,                       # 'scan' | 'shuffle'
    op_work: list[tuple[str, float, float]],  # (op_type, in_bytes, in_rows) pipeline
    input_bytes: float,
    input_rows: float,
    output_bytes: float,
    writes_shuffle: bool,
    skew: float,
    conf: dict,
    join_alg: str = "",
    build_bytes: float = 0.0,
    probe_bytes: float = 0.0,
) -> StageMetrics:
    """Cost one stage under configuration ``conf``; pure function of stats."""
    costs = DEFAULT_COSTS
    input_bytes = max(input_bytes, 1.0)
    input_rows = max(input_rows, 1.0)
    output_bytes = max(output_bytes, 0.0)
    compress = conf["k7"] >= 0.5

    if kind == "scan":
        p = int(scan_partitions_vec(input_bytes, conf["s8"], conf["s9"], conf["k4"]))
        skew_eff = skew
        read_sec = input_bytes * costs.disk_read
        fetch_sec = 0.0
        read_bytes = input_bytes
    else:
        p, skew_eff = shuffle_partitions_vec(input_bytes, conf["s1"], conf["s5"],
                                             conf["s10"], conf["s11"], skew)
        p, skew_eff = int(p), float(skew_eff)
        shuffled = input_bytes - (build_bytes if join_alg == BHJ else 0.0)
        shuffled = max(shuffled, 0.0)
        vol = shuffled * (costs.compress_ratio if compress else 1.0)
        read_sec = vol * costs.disk_read
        if compress:
            read_sec += shuffled * costs.cpu_decompress
        # fetch rounds limited by reducer.maxSizeInFlight (k5)
        per_task = shuffled / p
        fetch_sec = p * (per_task / max(conf["k5"], MB)) * costs.fetch_wave_s
        read_bytes = vol

    # --- pipeline CPU ------------------------------------------------------
    cpu = 0.0
    for op_type, b, r in op_work:
        b = max(b, 1.0)
        r = max(r, 1.0)
        if op_type == "scan":
            cpu += b * costs.cpu_scan
        elif op_type == "filter":
            cpu += b * costs.cpu_filter
        elif op_type == "project":
            cpu += b * costs.cpu_project
        elif op_type == "agg":
            cpu += b * costs.cpu_agg
        elif op_type == "sort":
            cpu += b * costs.cpu_sort * np.log2(r / p + 2.0) / 16.0
        elif op_type in ("limit", "union"):
            cpu += b * 2.0e-10

    broadcast_bytes = 0.0
    k3 = max(conf["k3"], 1.0)
    mem_exec = exec_mem(conf)
    mem_task = mem_exec / max(conf["k1"], 1.0)
    mem_need = input_bytes / p * 0.5  # pipeline working set

    if join_alg:
        bb = max(build_bytes, 1.0)
        pb = max(probe_bytes, 1.0)
        if join_alg == SMJ:
            rows_pp = input_rows / p + 2.0
            cpu += (bb + pb) * costs.cpu_sort * np.log2(rows_pp) / 16.0
            cpu += (bb + pb) * costs.cpu_merge
            mem_need = max(mem_need, (bb + pb) / p * 1.2)
        elif join_alg == SHJ:
            cpu += bb * costs.cpu_hash_build + pb * costs.cpu_hash_probe
            mem_need = max(mem_need, bb / p * HASH_TABLE_FACTOR)
        else:  # BHJ: every executor materializes the build side
            cpu += bb * costs.cpu_hash_build * k3 + pb * costs.cpu_hash_probe
            broadcast_bytes = bb * (k3 + 1.0)  # collect to driver + fan out
            # broadcast memory pressure is per-executor, not per-task
            if bb * HASH_TABLE_FACTOR > mem_exec:
                mem_need = max(mem_need, mem_task * (bb * HASH_TABLE_FACTOR / mem_exec))

    # --- spill -------------------------------------------------------------
    spill_bytes = 0.0
    if mem_need > mem_task:
        over = min(mem_need / mem_task - 1.0, 3.0)
        spill_bytes = over * input_bytes
    spill_sec = spill_bytes * costs.spill_rw

    # --- shuffle write of this stage's output ------------------------------
    write_sec = 0.0
    shuffle_write = 0.0
    if writes_shuffle:
        shuffle_write = output_bytes * (costs.compress_ratio if compress else 1.0)
        write_sec = shuffle_write * costs.disk_write
        if compress:
            write_sec += output_bytes * costs.cpu_compress
        p_out = int(initial_partitions(conf["s5"]))
        if p_out > conf["k6"]:
            # sort-based shuffle with merge pass
            write_sec += output_bytes * 2.0e-9 * np.log2(p_out) / 10.0
        else:
            write_sec += p_out * 1.0e-4  # bypass merge: file-handle overhead

    bcast_sec = broadcast_bytes * costs.net_broadcast

    total = (
        p * costs.task_overhead_s
        + cpu + read_sec + fetch_sec + write_sec + spill_sec + bcast_sec
    )
    avg_task = total / p
    mean_bytes = input_bytes / p
    max_bytes, extra = skew_limited_max(mean_bytes, skew_eff, conf)
    p_final = int(round(p * extra)) if extra > 1.0 else p
    max_task = avg_task * (max_bytes / mean_bytes)
    max_task = max(max_task, costs.task_overhead_s)

    io_bytes = read_bytes + shuffle_write + spill_bytes * 2.0 + broadcast_bytes
    return StageMetrics(
        n_tasks=p_final,
        task_sec_total=float(total),
        avg_task_s=float(avg_task),
        max_task_s=float(max_task),
        cpu_sec=float(cpu),
        io_bytes=float(io_bytes),
        shuffle_write_bytes=float(shuffle_write),
        spill_bytes=float(spill_bytes),
        broadcast_bytes=float(broadcast_bytes),
        join_alg=join_alg,
    )
