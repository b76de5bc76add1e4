"""Exhaustive reference search over a few free hours."""

import numpy as np
import pytest
from helpers import corner_optimum

from loadshift.exact import pinned_problem
from loadshift.gridsearch import ReducedProblem, grid_search
from loadshift.objective import build_problem, evaluate_batch
from loadshift.profiles import load_profile, price_profile


def make_problem(predicted, prices, w1=0.5, w2=0.5, **kwargs):
    return build_problem(
        load_profile(np.asarray(predicted, dtype=float)),
        price_profile(np.asarray(prices, dtype=float)),
        w1, w2, **kwargs,
    )


def flat_problem(w1=0.5, w2=0.5, **kwargs):
    return make_problem(np.full(24, 8.0), np.full(24, 10.0), w1, w2, **kwargs)


class TestReducedProblem:
    def test_free_hours_are_sorted_and_counted(self):
        reduced = ReducedProblem(flat_problem(), (19, 3), 11)
        assert reduced.free_hours == (3, 19)
        assert reduced.n_points == 121

    @pytest.mark.parametrize("hours", [(), (0, 1, 2, 3, 4), (5, 5), (-1,), (24,)])
    def test_bad_free_hours_rejected(self, hours):
        with pytest.raises(ValueError):
            ReducedProblem(flat_problem(), hours, 11)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            ReducedProblem(flat_problem(), (3,), 1)

    def test_pinned_schedule_clips_into_the_box(self):
        predicted = np.full(24, 8.0)
        predicted[18] = 20.0
        problem = make_problem(predicted, np.full(24, 10.0), peak_cap=15.0)
        schedule, _ = grid_search(ReducedProblem(problem, (3,), 5))
        assert schedule.values[18] == 15.0
        assert schedule.values[4] == 8.0


class TestPinnedProblem:
    def test_bounds_collapse_except_free_hours(self):
        base = flat_problem()
        pinned = pinned_problem(base, (4, 9))
        for h in range(24):
            if h in (4, 9):
                assert pinned.lower_bounds[h] == base.lower_bounds[h]
                assert pinned.upper_bounds[h] == base.upper_bounds[h]
            else:
                assert pinned.lower_bounds[h] == pinned.upper_bounds[h] == 8.0
        # normalizers carry over so objectives stay on the base scale
        assert pinned.e_cmax == base.e_cmax
        assert pinned.l_shmax == base.l_shmax


class TestGridSearch:
    def test_cost_only_picks_the_lower_endpoint(self):
        problem = flat_problem(1.0, 0.0)
        schedule, objective = grid_search(ReducedProblem(problem, (7,), 11))
        assert schedule.values[7] == problem.lower_bounds[7]
        assert objective == evaluate_batch(problem, schedule.values[None])[3, 0]

    def test_shift_only_recovers_the_predicted_value(self):
        # gamma 0.5/1.5 puts the predicted value mid-box; an odd
        # resolution makes it an exact grid point
        problem = flat_problem(0.0, 1.0)
        schedule, objective = grid_search(ReducedProblem(problem, (7,), 11))
        assert schedule.values[7] == 8.0
        assert objective == 0.0

    def test_two_hour_grid_matches_independent_enumeration(self):
        predicted = np.full(24, 8.0)
        predicted[18] = 12.0
        prices = np.full(24, 6.0)
        prices[18] = 14.0
        problem = make_problem(predicted, prices, 0.6, 0.4)
        reduced = ReducedProblem(problem, (6, 18), 11)
        schedule, objective = grid_search(reduced)

        # second opinion: plain nested loops, one-row evaluation, strict <
        grids = [
            np.linspace(problem.lower_bounds[h], problem.upper_bounds[h], 11)
            for h in (6, 18)
        ]
        best = np.inf
        best_point = None
        base = pinned_problem(problem, (6, 18)).lower_bounds
        for i in range(11):
            for j in range(11):
                candidate = base.copy()
                candidate[6] = grids[0][i]
                candidate[18] = grids[1][j]
                got = evaluate_batch(problem, candidate[None])[3, 0]
                if got < best:
                    best = got
                    best_point = candidate
        assert objective == best
        np.testing.assert_array_equal(schedule.values, best_point)

    def test_matches_corner_oracle_on_dyadic_bounds(self):
        # integer predicted loads keep every corner candidate exactly on
        # the grid, so the two oracles must agree to the last bit
        predicted = np.full(24, 8.0)
        predicted[[6, 12, 18]] = [12.0, 16.0, 24.0]
        prices = np.full(24, 5.0)
        prices[[6, 12, 18]] = [12.0, 3.0, 15.0]
        problem = make_problem(predicted, prices, 0.6, 0.4)
        reduced = ReducedProblem(problem, (6, 12, 18), 5)
        _, objective = grid_search(reduced)
        _, corner = corner_optimum(pinned_problem(problem, reduced.free_hours))
        assert objective == corner

    def test_no_sampled_point_beats_the_search(self):
        rng = np.random.default_rng(21)
        predicted = rng.uniform(50, 150, size=24)
        prices = rng.uniform(3, 12, size=24)
        problem = make_problem(predicted, prices, 0.5, 0.5)
        reduced = ReducedProblem(problem, (2, 11, 20), 31)
        _, objective = grid_search(reduced)

        grids = [
            np.linspace(problem.lower_bounds[h], problem.upper_bounds[h], 31)
            for h in (2, 11, 20)
        ]
        base = pinned_problem(problem, (2, 11, 20)).lower_bounds
        for _ in range(200):
            digits = rng.integers(0, 31, size=3)
            candidate = base.copy()
            for k, h in enumerate((2, 11, 20)):
                candidate[h] = grids[k][digits[k]]
            assert evaluate_batch(problem, candidate[None])[3, 0] >= objective

    def test_search_is_deterministic(self):
        problem = flat_problem(0.5, 0.5)
        reduced = ReducedProblem(problem, (1, 13), 21)
        a_schedule, a_objective = grid_search(reduced)
        b_schedule, b_objective = grid_search(reduced)
        assert a_objective == b_objective
        np.testing.assert_array_equal(a_schedule.values, b_schedule.values)

    def test_ties_break_toward_the_lexicographically_first_point(self):
        # zero weights score every non-excess point 0.0; the all-lower
        # combination is enumerated first and must survive the ties, also
        # those in later chunks (41^3 points are more than one)
        problem = flat_problem(0.0, 0.0)
        for hours, resolution in (((4, 9), 7), ((2, 9, 21), 41)):
            schedule, objective = grid_search(ReducedProblem(problem, hours, resolution))
            assert objective == 0.0
            for h in hours:
                assert schedule.values[h] == problem.lower_bounds[h]

    def test_chunked_enumeration_agrees_with_small_case(self):
        # 101^3 > one chunk, exercising the chunk boundary path
        problem = flat_problem(0.7, 0.3)
        reduced = ReducedProblem(problem, (3, 10, 17), 101)
        schedule, objective = grid_search(reduced)
        assert evaluate_batch(problem, schedule.values[None])[3, 0] == objective
        _, corner = corner_optimum(pinned_problem(problem, reduced.free_hours))
        assert objective == pytest.approx(corner, rel=1e-12)
