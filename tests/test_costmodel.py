"""Unit tests for the stage cost model (the Spark-cluster substrate)."""
import numpy as np
import pytest

from repro.params import GB, MB, default_conf
from repro.simspark import costmodel as cm


@pytest.fixture
def conf():
    return default_conf()


# --- partitioning -----------------------------------------------------------

def _scan_p(bytes_in, conf):
    return cm.scan_partitions_vec(bytes_in, conf["s8"], conf["s9"], conf["k4"])


def _shuffle_p(bytes_in, conf, skew):
    return cm.shuffle_partitions_vec(bytes_in, conf["s1"], conf["s5"], conf["s10"],
                                     conf["s11"], skew)


def test_scan_partitions_spark_formula(conf):
    # maxSplitBytes = min(s8, max(s9, bytes/k4))
    conf.update(s8=128 * MB, s9=4 * MB, k4=32)
    assert _scan_p(64 * GB, conf) == np.ceil(64 * GB / (128 * MB))
    # small input: openCost floor keeps split size at s9
    assert _scan_p(16 * MB, conf) == 4


def test_scan_partitions_monotone_in_bytes(conf):
    ps = _scan_p(np.array([1 * GB, 4 * GB, 16 * GB]), conf)
    assert np.all(np.diff(ps) >= 0)


def test_shuffle_partitions_aqe_coalesces(conf):
    conf.update(s5=2000, s1=128 * MB, s11=1 * MB, s10=0.0)
    p, _ = _shuffle_p(1 * GB, conf, 0.0)
    assert p == 8  # 1GB / 128MB


def test_shuffle_partitions_capped_by_s5(conf):
    conf.update(s5=10, s1=1 * MB, s11=1 * MB)
    p, _ = _shuffle_p(100 * GB, conf, 0.0)
    assert p == 10


def test_rebalance_reduces_skew(conf):
    conf.update(s5=500, s1=64 * MB, s11=1 * MB)
    conf["s10"] = 0.8
    _, sk_hi = _shuffle_p(10 * GB, conf, 1.0)
    conf["s10"] = 0.1
    _, sk_lo = _shuffle_p(10 * GB, conf, 1.0)
    assert sk_hi < sk_lo


def test_skew_split_caps_max_partition(conf):
    conf.update(s6=64 * MB, s7=2.0)
    mx, extra = cm.skew_limited_max(32 * MB, 3.0, conf)
    assert mx == pytest.approx(max(64 * MB, 2.0 * 32 * MB))
    assert extra > 1.0
    mx2, extra2 = cm.skew_limited_max(32 * MB, 0.1, conf)
    assert extra2 == 1.0


# --- join algorithm selection -------------------------------------------------

def test_join_bhj_under_threshold(conf):
    conf["s4"] = 100 * MB
    alg = cm.choose_join_algorithm(50 * MB, 10 * GB, conf, rows_build=1e6,
                                   runtime=False)
    assert alg == cm.BHJ


def test_join_shj_local_map_threshold(conf):
    conf.update(s4=1, s3=100 * MB, s5=100)
    alg = cm.choose_join_algorithm(1 * GB, 10 * GB, conf, rows_build=1e6,
                                   runtime=False)
    assert alg == cm.SHJ  # 1GB/100 parts = 10MB/map <= s3


def test_join_smj_fallback(conf):
    conf.update(s4=1, s3=1, s5=100)
    alg = cm.choose_join_algorithm(10 * GB, 10 * GB, conf, rows_build=1e8,
                                   runtime=False)
    assert alg == cm.SMJ


def test_runtime_cannot_promote_bhj_back(conf):
    """AQE can demote SMJ→BHJ/SHJ but never converts BHJ/SHJ back (§5.2)."""
    conf.update(s4=1, s3=1, s5=100)
    assert cm.choose_join_algorithm(10 * GB, 10 * GB, conf, rows_build=1e8,
                                    runtime=True, compile_alg=cm.BHJ) == cm.BHJ
    assert cm.choose_join_algorithm(10 * GB, 10 * GB, conf, rows_build=1e8,
                                    runtime=True, compile_alg=cm.SHJ) == cm.SHJ


def test_runtime_demotes_smj_with_actual_stats(conf):
    conf.update(s4=100 * MB, s5=100)
    alg = cm.choose_join_algorithm(10 * MB, 10 * GB, conf, rows_build=1e6,
                                   runtime=True, compile_alg=cm.SMJ)
    assert alg == cm.BHJ


def test_runtime_bhj_gated_by_nonempty_ratio(conf):
    conf.update(s4=100 * MB, s2=0.5, s5=1000, s3=1)
    # only 100 rows over 1000 partitions -> nonempty ratio 0.1 < s2
    alg = cm.choose_join_algorithm(10 * MB, 10 * GB, conf, rows_build=100,
                                   runtime=True, compile_alg=cm.SMJ)
    assert alg != cm.BHJ


# --- stage cost ----------------------------------------------------------------

def _cost(conf, **kw):
    base = dict(kind="shuffle",
                op_work=[("agg", 10 * GB, 1e8)],
                input_bytes=10 * GB, input_rows=1e8, output_bytes=1 * GB,
                writes_shuffle=True, skew=0.3, conf=conf)
    base.update(kw)
    return cm.stage_cost(**base)


def test_stage_metrics_positive(conf):
    m = _cost(conf)
    assert m.n_tasks >= 1
    assert m.task_sec_total > 0
    assert m.avg_task_s > 0
    assert m.max_task_s >= m.avg_task_s * 0.99
    assert m.io_bytes > 0


def test_compression_reduces_io_bytes(conf):
    conf_on = dict(conf, k7=1.0)
    conf_off = dict(conf, k7=0.0)
    assert _cost(conf_on).io_bytes < _cost(conf_off).io_bytes


def test_spill_when_memory_short(conf):
    small_mem = dict(conf, k2=4 * GB, k8=0.4, k1=5, s5=16, s1=2 * GB, s11=2 * GB)
    big_mem = dict(conf, k2=32 * GB, k8=0.9, k1=1, s5=16, s1=2 * GB, s11=2 * GB)
    assert _cost(small_mem).spill_bytes > _cost(big_mem).spill_bytes


def test_bhj_broadcast_cost_scales_with_executors(conf):
    a = _cost(dict(conf, k3=2), join_alg=cm.BHJ, build_bytes=1 * GB,
              probe_bytes=9 * GB)
    b = _cost(dict(conf, k3=16), join_alg=cm.BHJ, build_bytes=1 * GB,
              probe_bytes=9 * GB)
    assert b.broadcast_bytes > a.broadcast_bytes


def test_bhj_huge_build_penalized_vs_smj(conf):
    """Broadcasting a build side that dwarfs executor memory must be worse
    than SMJ — the Fig. 3(b) MO-WS failure mode."""
    conf = dict(conf, k2=4 * GB, k8=0.6, k3=4)
    bhj = _cost(conf, join_alg=cm.BHJ, build_bytes=8 * GB, probe_bytes=2 * GB)
    smj = _cost(conf, join_alg=cm.SMJ, build_bytes=8 * GB, probe_bytes=2 * GB)
    assert bhj.task_sec_total > smj.task_sec_total


def test_bhj_small_build_beats_smj(conf):
    bhj = _cost(conf, join_alg=cm.BHJ, build_bytes=8 * MB, probe_bytes=10 * GB)
    smj = _cost(conf, join_alg=cm.SMJ, build_bytes=8 * MB, probe_bytes=10 * GB)
    assert bhj.task_sec_total < smj.task_sec_total


def test_bhj_skips_shuffle_read(conf):
    bhj = _cost(conf, join_alg=cm.BHJ, build_bytes=5 * GB, probe_bytes=5 * GB)
    smj = _cost(conf, join_alg=cm.SMJ, build_bytes=5 * GB, probe_bytes=5 * GB)
    # BHJ reads only the probe side from the exchange
    assert bhj.io_bytes != smj.io_bytes


def test_scan_stage_uses_file_splits(conf):
    m = cm.stage_cost(kind="scan", op_work=[("scan", 64 * GB, 5e8)],
                      input_bytes=64 * GB, input_rows=5e8, output_bytes=64 * GB,
                      writes_shuffle=True, skew=0.05, conf=conf)
    assert m.n_tasks == _scan_p(64 * GB, conf)


def test_more_partition_overhead(conf):
    few = _cost(dict(conf, s5=32, s1=2 * GB, s11=2 * GB))
    many = _cost(dict(conf, s5=2048, s1=1 * MB, s11=1 * MB))
    assert many.n_tasks > few.n_tasks


def test_sort_stage_costs_more_than_project(conf):
    srt = _cost(conf, op_work=[("sort", 10 * GB, 1e8)])
    prj = _cost(conf, op_work=[("project", 10 * GB, 1e8)])
    assert srt.cpu_sec > prj.cpu_sec


def test_bypass_merge_threshold_effect(conf):
    over = _cost(dict(conf, k6=50, s5=500))   # sort-based shuffle w/ merge
    under = _cost(dict(conf, k6=1000, s5=500))  # bypass
    assert over.task_sec_total != under.task_sec_total


def test_vectorized_matches_scalar(conf):
    """One array call of the partition formulas gives, element for element,
    the counts of one scalar call per input size, and the scalar counts are
    the task counts of the simulator's skew-0 stage."""
    B = np.array([16 * MB, 1 * GB, 10 * GB, 100 * GB])
    scan_conf = conf
    shuf_conf = dict(conf, s10=0.2)
    vec = _scan_p(B, scan_conf)
    pv, sv = _shuffle_p(B, shuf_conf, 0.5)
    for i, b in enumerate(B):
        assert _scan_p(float(b), scan_conf) == vec[i]
        ps, ss = _shuffle_p(float(b), shuf_conf, 0.5)
        assert ps == pv[i] and ss == sv
        for kind, c, p in (("scan", scan_conf, vec[i]),
                           ("shuffle", shuf_conf, _shuffle_p(float(b), shuf_conf, 0.0)[0])):
            m = _cost(c, kind=kind, input_bytes=float(b), skew=0.0)
            assert m.n_tasks == p, (kind, b)
