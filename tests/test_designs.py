from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reconstruct import designs
from reconstruct.designs import (
    chebyshev_knots,
    default_knot_count,
    equispaced_knots,
    knot_criterion,
    next_knot,
    replication_design,
    select_knots,
)
from reconstruct.errors import NoCandidatesLeft, NonFiniteInput
from reconstruct.interpolators import KnotSet


class TestChebyshev:
    def test_single(self):
        np.testing.assert_allclose(chebyshev_knots(1), [0.5], atol=1e-15)

    def test_two(self):
        np.testing.assert_allclose(
            chebyshev_knots(2),
            [0.5 - np.sqrt(2) / 4, 0.5 + np.sqrt(2) / 4],
            atol=1e-12,
        )

    def test_symmetry(self):
        a = chebyshev_knots(7)
        np.testing.assert_allclose(a + a[::-1], 1.0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_roots_of_chebyshev_polynomial(self, m):
        a = chebyshev_knots(m)
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        vals = np.polynomial.chebyshev.chebval(2 * a - 1, coeffs)
        assert np.max(np.abs(vals)) < 1e-10

    def test_open_interval(self):
        a = chebyshev_knots(9)
        assert a.min() > 0 and a.max() < 1 and np.all(np.diff(a) > 0)


class TestEquispaced:
    def test_two(self):
        np.testing.assert_allclose(equispaced_knots(2), [0.0, 1.0])

    def test_five(self):
        np.testing.assert_allclose(equispaced_knots(5), [0, 0.25, 0.5, 0.75, 1.0])

    def test_spacing(self):
        np.testing.assert_allclose(np.diff(equispaced_knots(7)), 1.0 / 6.0)

    def test_too_few(self):
        with pytest.raises(ValueError):
            equispaced_knots(1)


class TestCriterion:
    def test_pair_1d(self):
        assert knot_criterion(np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    def test_pair_2d(self):
        A = np.array([[0.0, 0.0], [1.0, 0.5]])
        assert knot_criterion(A) == pytest.approx(3.0)

    def test_three_1d(self):
        A = np.array([[0.0], [0.5], [1.0]])
        assert knot_criterion(A) == pytest.approx(2.0)

    def test_1d_array_is_m_scalar_knots(self):
        knots = [0.1, 0.5, 0.9]
        assert knot_criterion(np.array(knots)) == pytest.approx(2.5)
        assert knot_criterion(np.array(knots)) == knot_criterion(knots)
        assert knot_criterion(np.array([0, 1])) == pytest.approx(1.0)

    def test_coincident_coordinates_clamped(self):
        A = np.array([[0.3, 0.1], [0.3, 0.9]])
        val = knot_criterion(A)
        assert np.isfinite(val) and val > 1e11

    def test_row_permutation_invariant(self, rng):
        A = rng.random((6, 3))
        perm = rng.permutation(6)
        assert knot_criterion(A) == pytest.approx(knot_criterion(A[perm]))

    def test_coordinate_permutation_invariant(self, rng):
        A = rng.random((6, 3))
        assert knot_criterion(A) == pytest.approx(knot_criterion(A[:, [2, 0, 1]]))


def _select_knots_brute(X, m, trials, seed):
    """Every subset drawn by a sequential Floyd's algorithm, m uniforms per
    trial, and scored in full: the search select_knots must reproduce."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best_idx, best_score = None, np.inf
    for _ in range(trials):
        chosen = set()
        for s, u in enumerate(rng.random(m).tolist()):
            j = n - m + s
            t = int(u * (j + 1))
            chosen.add(j if t in chosen else t)
        idx = np.array(sorted(chosen), dtype=np.int64)
        score = knot_criterion(X[idx])
        if score < best_score:
            best_score, best_idx = score, idx
    return best_idx, best_score


class TestFloydSubsets:
    @pytest.mark.parametrize("n", [2, 3, 10, 97])
    @pytest.mark.parametrize("full", [False, True], ids=["m=2", "m=n"])
    def test_rows_are_distinct_indices_in_range(self, n, full):
        m = n if full else 2
        idx = designs._floyd_subsets(np.random.default_rng(n), n, m, 2000)
        assert idx.shape == (2000, m) and idx.dtype == np.int64
        assert idx.min() >= 0 and idx.max() < n
        srt = np.sort(idx, axis=1)
        assert np.all(srt[:, 1:] > srt[:, :-1])

    def test_every_subset_equally_likely(self):
        # 20 subsets of 3 from 6; 43.82 is the 0.999 quantile of chi-square(19)
        rows = 100_000
        idx = np.sort(designs._floyd_subsets(np.random.default_rng(17), 6, 3, rows), axis=1)
        _, counts = np.unique(idx, axis=0, return_counts=True)
        assert counts.size == 20
        expect = rows / 20
        assert np.sum((counts - expect) ** 2 / expect) < 43.82

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_generator_seed_advances_by_one_uniform_per_knot(self, rng, block):
        X = rng.random((30, 2))
        gen, twin = np.random.default_rng(5), np.random.default_rng(5)
        block_bytes = designs._SEARCH_BLOCK_BYTES if block is None else block * 8 * 6 * 2
        with mock.patch.object(designs, "_SEARCH_BLOCK_BYTES", block_bytes):
            select_knots(X, 6, trials=40, seed=gen)
        twin.random((40, 6))
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_largest_uniform_times_j_plus_one_floors_to_j(self):
        # floor(u (j + 1)) <= j for the largest double u < 1, up to j + 1 = 2^53
        j = np.concatenate([np.arange(100), 2 ** np.arange(1, 54) - 1, 2 ** np.arange(1, 53),
                            np.random.default_rng(3).integers(0, 2**53, 1000)])
        assert np.all(np.floor(np.nextafter(1.0, 0.0) * (j + 1).astype(float)) == j)

    @pytest.mark.parametrize("n", [2, 7, 9000, 2**52, 2**53 - 1])
    def test_largest_uniform_draws_the_top_indices(self, n):
        stub = mock.Mock()
        stub.random = lambda shape: np.full(shape, np.nextafter(1.0, 0.0))
        idx = designs._floyd_subsets(stub, n, 2, 3)
        np.testing.assert_array_equal(idx, [[n - 2, n - 1]] * 3)


class TestSelectKnots:
    def test_full_subset(self, rng):
        X = rng.random((5, 2))
        sel = select_knots(X, 5, trials=3, seed=0)
        np.testing.assert_array_equal(np.sort(sel.indices), np.arange(5))

    def test_single_trial(self, rng):
        X = rng.random((30, 2))
        sel = select_knots(X, 4, trials=1, seed=9)
        assert sel.indices.shape == (4,)
        assert sel.criterion == pytest.approx(knot_criterion(sel.knots))

    def test_rows_come_from_candidates(self, rng):
        X = rng.random((40, 3))
        sel = select_knots(X, 6, trials=50, seed=2)
        np.testing.assert_array_equal(sel.knots.points, X[sel.indices])

    def test_deterministic(self, rng):
        X = rng.random((60, 2))
        a = select_knots(X, 8, trials=200, seed=42)
        b = select_knots(X, 8, trials=200, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_numpy_integer_sizes(self, rng):
        X = rng.random((60, 2))
        a = select_knots(X, np.int64(8), trials=np.int64(50), seed=42)
        b = select_knots(X, 8, trials=50, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_more_trials_help(self):
        wins = 0
        for s in range(100):
            X = np.random.default_rng(1000 + s).random((100, 2))
            many = select_knots(X, 10, trials=2000, seed=s).criterion
            one = select_knots(X, 10, trials=1, seed=s).criterion
            wins += many <= one
            assert many <= one or np.isclose(many, one)
        assert wins >= 95

    def test_too_many(self, rng):
        with pytest.raises(ValueError):
            select_knots(rng.random((4, 1)), 5, trials=1, seed=0)

    def test_1d_array_is_n_scalar_candidates(self, rng):
        x = rng.random(50)
        sel = select_knots(x, 5, trials=40, seed=3)
        col = select_knots(x[:, None], 5, trials=40, seed=3)
        assert sel.knots.points.shape == (5, 1)
        np.testing.assert_array_equal(sel.indices, col.indices)
        assert sel.criterion == col.criterion == knot_criterion(x[sel.indices])

    def test_non_finite_candidates(self, rng):
        X = rng.random((40, 3))
        X[:7, 1] = np.nan
        X[0, 2] = np.inf
        with pytest.raises(NonFiniteInput, match="8 NaN or inf"):
            select_knots(X, 5, trials=10, seed=0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_knots_before_any_draw(self, rng, m):
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="at least two knots"):
            select_knots(rng.random((20, 2)), m, trials=10, seed=gen)
        assert gen.bit_generator.state == state

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        m_frac=st.floats(0.0, 1.0),
        trials=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([0, 2, 5]),
        block=st.sampled_from([1, 7, None]),
    )
    def test_matches_brute_force_search(self, n, d, m_frac, trials, seed, levels, block):
        X = np.random.default_rng(seed).random((n, d))
        if levels:  # repeated coordinate values, distinct rows: the clamp sets the bound
            X = np.unique(np.round(X * levels) / levels, axis=0)
            assume(X.shape[0] >= 2)
            n = X.shape[0]
        m = 2 + int(m_frac * (n - 2))
        block_bytes = designs._SEARCH_BLOCK_BYTES if block is None else block * 8 * m * d
        with mock.patch.object(designs, "_SEARCH_BLOCK_BYTES", block_bytes):
            sel = select_knots(X, m, trials=trials, seed=seed)
        idx, score = _select_knots_brute(X, m, trials, seed)
        assert sel.indices.dtype == idx.dtype
        np.testing.assert_array_equal(sel.indices, idx)
        assert sel.criterion == score

    def test_matches_brute_force_across_blocks(self):
        # 16 MB holds 625 subsets of 50 knots in 64 coordinates: three blocks
        X = np.random.default_rng(11).random((200, 64))
        sel = select_knots(X, 50, trials=1300, seed=4)
        idx, score = _select_knots_brute(X, 50, 1300, 4)
        np.testing.assert_array_equal(sel.indices, idx)
        assert sel.criterion == score

    def test_default_knot_count(self):
        assert default_knot_count(4) == 40


class TestNextKnot:
    def test_largest_squared_residual(self):
        X = np.array([[0.1], [0.5], [0.9]])
        A = KnotSet(np.array([[0.3]]))
        y = np.array([0.0, 5.0, -7.0])
        idx = next_knot(X, A, y, predictions=np.zeros(3))
        assert idx == 2  # 49 beats 25

    def test_tie_breaks_low_index(self):
        X = np.array([[0.1], [0.5], [0.9]])
        A = KnotSet(np.array([[0.3]]))
        idx = next_knot(X, A, np.zeros(3), predictions=np.zeros(3))
        assert idx == 0

    def test_single_candidate(self):
        X = np.array([[0.1], [0.5]])
        A = KnotSet(np.array([[0.1]]))
        idx = next_knot(X, A, np.array([1.0, 2.0]), predictions=np.zeros(2))
        assert idx == 1

    def test_exclusion_by_membership(self):
        X = np.array([[0.1], [0.5], [0.9]])
        A = KnotSet(np.array([[0.9]]))  # residual there is largest but used
        y = np.array([1.0, 2.0, 50.0])
        assert next_knot(X, A, y, predictions=np.zeros(3)) == 1

    def test_no_candidates_left(self):
        X = np.array([[0.1], [0.5]])
        A = KnotSet(X)
        with pytest.raises(NoCandidatesLeft):
            next_knot(X, A, np.ones(2), predictions=np.zeros(2))

    def test_explicit_indices(self):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([9.0, 1.0, 2.0])
        idx = next_knot(X, None, y, predictions=np.zeros(3), exclude_indices=[0])
        assert idx == 2


class TestReplicationDesign:
    def test_single_replication(self):
        d = replication_design(np.array([0.2, 0.8]), 1)
        np.testing.assert_allclose(d.design_points(), [0.2, 0.8])

    def test_seven_by_seven(self):
        d = replication_design(chebyshev_knots(7), 7)
        assert d.n == 49

    def test_ordering(self):
        d = replication_design(np.array([0.1, 0.5, 0.9]), 2)
        np.testing.assert_allclose(
            d.design_points(), [0.1, 0.1, 0.5, 0.5, 0.9, 0.9]
        )

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            replication_design(np.array([0.5]), 0)
