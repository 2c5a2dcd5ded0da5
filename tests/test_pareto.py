"""Unit tests for Pareto utilities (dominance, hypervolume, WUN)."""
import numpy as np
import pytest

from repro.moo.pareto import (hypervolume_2d, normalize, pareto_indices, pareto_mask,
                              weighted_picks, wun_select)
from tests.conftest import dominates


def brute_force_pareto(F: np.ndarray) -> set[int]:
    keep = set()
    for i in range(len(F)):
        if not any(dominates(F[j], F[i]) for j in range(len(F)) if j != i):
            keep.add(i)
    return keep


def tie_aware_pareto(F: np.ndarray) -> list[int]:
    """Non-dominated rows, of equal rows only the first: the rule
    ``pareto_indices`` keeps."""
    return [i for i in range(len(F))
            if not any(dominates(F[j], F[i]) for j in range(len(F)))
            and not any(np.array_equal(F[j], F[i]) for j in range(i))]


def test_dominates_basic():
    assert dominates([1, 1], [2, 2])
    assert dominates([1, 2], [1, 3])
    assert not dominates([1, 3], [3, 1])
    assert not dominates([1, 1], [1, 1])  # equal points do not dominate


def test_pareto_simple():
    F = np.array([[1, 5], [2, 2], [5, 1], [4, 4], [6, 6]])
    idx = pareto_indices(F)
    assert set(idx) == {0, 1, 2}


def test_pareto_empty():
    assert len(pareto_indices(np.zeros((0, 2)))) == 0


def test_pareto_single():
    assert list(pareto_indices(np.array([[3.0, 4.0]]))) == [0]


def test_pareto_duplicates_kept():
    F = np.array([[1, 1], [1, 1], [2, 2]])
    idx = set(pareto_indices(F))
    assert 2 not in idx
    assert len(idx) >= 1


@pytest.mark.parametrize("seed", range(10))
def test_pareto_matches_brute_force_2d(seed):
    rng = np.random.default_rng(seed)
    F = rng.random((60, 2))
    assert set(pareto_indices(F)) == brute_force_pareto(F)


def _sweep_reference(F):
    """The 2-D sweep as a loop: after sorting by f1 then f2, keep a row iff
    its f2 beats every f2 before it."""
    best, keep = np.inf, []
    for i in np.lexsort((F[:, 1], F[:, 0])):
        if F[i, 1] < best:
            keep.append(i)
            best = F[i, 1]
    return np.array(sorted(keep), dtype=np.int64)


@pytest.mark.parametrize("seed", range(20))
def test_pareto_2d_with_ties(seed):
    """On a coarse grid (many equal f1, f2 and whole rows) the vectorized
    sweep equals the loop, keeps the same points as the brute force, and
    keeps only the first of equal rows."""
    rng = np.random.default_rng(seed + 200)
    F = rng.integers(0, 5, (int(rng.integers(1, 120)), 2)).astype(np.float64)
    idx = pareto_indices(F)
    np.testing.assert_array_equal(idx, _sweep_reference(F))
    assert idx.dtype == np.int64
    assert {tuple(F[i]) for i in idx} == {tuple(F[i]) for i in brute_force_pareto(F)}
    for i in idx:
        assert i == np.flatnonzero((F == F[i]).all(axis=1))[0]


def test_pareto_rejects_1d():
    with pytest.raises(ValueError):
        pareto_indices(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # only (latency, cost) pairs
        pareto_indices(np.zeros((4, 3)))


def test_hypervolume_single_point():
    hv = hypervolume_2d(np.array([[0.5, 0.5]]), np.array([1.0, 1.0]))
    assert hv == pytest.approx(0.25)


def test_hypervolume_staircase():
    F = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    ref = np.array([1.0, 1.0])
    # sum of the staircase strips
    expected = (1 - 0.2) * (1 - 0.8) + (1 - 0.5) * (0.8 - 0.5) + (1 - 0.8) * (0.5 - 0.2)
    assert hypervolume_2d(F, ref) == pytest.approx(expected)


def test_hypervolume_dominated_points_ignored():
    F1 = np.array([[0.2, 0.2]])
    F2 = np.array([[0.2, 0.2], [0.5, 0.5], [0.9, 0.3]])
    ref = np.array([1.0, 1.0])
    assert hypervolume_2d(F1, ref) == pytest.approx(hypervolume_2d(F2, ref))


def test_hypervolume_point_outside_ref():
    assert hypervolume_2d(np.array([[2.0, 2.0]]), np.array([1.0, 1.0])) == 0.0


def test_hypervolume_empty():
    assert hypervolume_2d(np.zeros((0, 2)), np.array([1, 1])) == 0.0


def test_hypervolume_monotone_in_points():
    rng = np.random.default_rng(3)
    F = rng.random((20, 2))
    ref = np.array([1.0, 1.0])
    h1 = hypervolume_2d(F[:5], ref)
    h2 = hypervolume_2d(F, ref)
    assert h2 >= h1 - 1e-12


def test_normalize_roundtrip():
    F = np.array([[10.0, 1.0], [20.0, 3.0]])
    Fn, lo, hi = normalize(F)
    assert Fn.min() == 0.0 and Fn.max() == 1.0
    np.testing.assert_allclose(lo, [10, 1])
    np.testing.assert_allclose(hi, [20, 3])


def test_normalize_degenerate_dim():
    F = np.array([[5.0, 1.0], [5.0, 2.0]])
    Fn, _, _ = normalize(F)
    assert np.all(np.isfinite(Fn))


@pytest.mark.parametrize("seed", range(5))
def test_weighted_picks_matches_per_weight_loop(seed):
    rng = np.random.default_rng(seed)
    F = rng.random((50, 2)) * [100.0, 0.5]
    W = [(w, 1 - w) for w in np.linspace(0, 1, 11)]
    Fn = (F - F.min(axis=0)) / (F.max(axis=0) - F.min(axis=0))
    ref = [int(np.argmin([w[0] * a + w[1] * b for a, b in Fn])) for w in W]
    assert weighted_picks(F, W).tolist() == ref


def test_weighted_picks_ties_and_constant_column():
    F = np.array([[2.0, 7.0], [1.0, 7.0], [1.0, 7.0], [3.0, 7.0]])
    # cost is constant: it normalizes to 0, so only latency decides; the
    # tie between rows 1 and 2 goes to the first
    assert weighted_picks(F, [(0.5, 0.5), (1.0, 0.0)]).tolist() == [1, 1]
    # weighting only the constant column ties every row
    assert weighted_picks(F, [(0.0, 1.0)]).tolist() == [0]


def test_wun_prefers_latency_with_latency_weight():
    F = np.array([[1.0, 100.0], [100.0, 1.0]])  # [latency, cost]
    assert wun_select(F, [0.9, 0.1]) == 0
    assert wun_select(F, [0.1, 0.9]) == 1


def test_wun_balanced_picks_knee():
    F = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
    # already normalized-ish; knee minimizes the weighted distance
    assert wun_select(F, [0.5, 0.5]) == 1


def test_wun_empty_raises():
    with pytest.raises(ValueError):
        wun_select(np.zeros((0, 2)), [0.5, 0.5])


def test_wun_single():
    assert wun_select(np.array([[3.0, 4.0]]), [0.9, 0.1]) == 0


@pytest.mark.parametrize("seed", range(4))
def test_pareto_mask_equals_pareto_indices_per_set(seed):
    """One sweep over a stack of sets keeps, in each set, the rows
    ``pareto_indices`` keeps for that set alone; on a coarse grid most
    rows tie with others on one or both objectives."""
    rng = np.random.default_rng(seed)
    F = rng.integers(0, 5, (3, 14, 40, 2)).astype(np.float64)
    mask = pareto_mask(F)
    assert mask.shape == (3, 14, 40) and mask.dtype == bool
    for i in np.ndindex(F.shape[:2]):
        assert np.flatnonzero(mask[i]).tolist() == pareto_indices(F[i]).tolist()
        assert pareto_indices(F[i]).tolist() == tie_aware_pareto(F[i])
