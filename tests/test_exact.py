"""The closed-form exact optimum, the pinned problem, and verify's oracle."""

import json

import numpy as np
import pytest
from helpers import corner_optimum, write_hourly_csv
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadshift import de, gridsearch, pso
from loadshift.cli import main
from loadshift.errors import LoadshiftError
from loadshift.exact import exact_optimum, pinned_problem
from loadshift.gridsearch import ReducedProblem, grid_search
from loadshift.objective import build_problem
from loadshift.profiles import DrProblem, load_profile, peak, price_profile

ULPS = 1e-12   # rounding slack: these objectives stay below 1e3, where an ulp is about 1e-13


@st.composite
def day_problem(draw, max_gamma_lo=1.0):
    """A random day, capped or not; zero weights and zero prices on up to
    half the hours make many hours tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    predicted = load_profile(rng.uniform(0.0, 200.0, size=24))
    prices = rng.uniform(0.5, 15.0, size=24)
    prices[draw(st.lists(st.integers(0, 23), max_size=12, unique=True))] = 0.0
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    gamma_lo = draw(st.floats(0.0, max_gamma_lo))
    gamma_hi = draw(st.floats(max(gamma_lo, 0.1), 2.0))
    # a cap between the highest lower bound and the highest upper bound
    cap = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    peak_cap = None if cap is None else (gamma_lo + cap * (gamma_hi - gamma_lo)) * peak(predicted)
    assume(peak_cap is None or peak_cap > 0)
    return build_problem(
        predicted, price_profile(prices), draw(weight), draw(weight),
        gamma_lo=gamma_lo, gamma_hi=gamma_hi, peak_cap=peak_cap,
        alpha=draw(st.sampled_from([0.5, 100.0])),
    )


def flat_problem(w1=0.5, w2=0.5, **kwargs):
    return build_problem(load_profile(np.full(24, 8.0)), price_profile(np.full(24, 10.0)), w1, w2, **kwargs)


class TestExactOptimum:
    @settings(max_examples=200, deadline=None)
    @given(problem=day_problem())
    def test_equals_the_corner_reference_bit_for_bit(self, problem):
        schedule, objective = exact_optimum(problem)
        ref_schedule, ref_objective = corner_optimum(problem)
        assert schedule.values.tobytes() == ref_schedule.tobytes()
        assert objective == ref_objective

    @settings(max_examples=60, deadline=None)
    @given(problem=day_problem(max_gamma_lo=1.5), hours=st.lists(st.integers(0, 23), min_size=1,
                                                                  max_size=3, unique=True),
           resolution=st.integers(2, 31), seed=st.integers(0, 2**32 - 1))
    def test_never_above_the_grid_or_an_optimizer(self, problem, hours, resolution, seed):
        # the others score batches of schedules, and a matrix product may round a
        # row of a batch apart from the same row alone, so ties may differ by ulps
        reduced = ReducedProblem(problem, tuple(hours), resolution)
        pinned = pinned_problem(problem, hours)
        bound = exact_optimum(pinned)[1] - ULPS
        assert grid_search(reduced)[1] >= bound
        assert pso.optimize(pinned, pso.PsoConfig(swarm_size=6, iterations=5, seed=seed)).objective >= bound
        assert de.optimize(pinned, de.DeConfig(population_size=6, iterations=5, seed=seed)).objective >= bound

    def test_cost_only_drops_every_hour_to_its_lower_bound(self):
        problem = flat_problem(1.0, 0.0, peak_cap=10.0)
        schedule, objective = exact_optimum(problem)
        np.testing.assert_array_equal(schedule.values, problem.lower_bounds)
        assert objective == pytest.approx(0.5 * 8.0 / 10.0)

    def test_shift_only_keeps_the_clamped_prediction(self):
        predicted = np.full(24, 8.0)
        predicted[5] = 30.0
        problem = build_problem(load_profile(predicted), price_profile(np.full(24, 10.0)), 0.0, 1.0,
                                peak_cap=20.0)
        schedule, _ = exact_optimum(problem)
        np.testing.assert_array_equal(schedule.values, np.minimum(predicted, 20.0))

    def test_lower_bounds_above_the_prediction_are_the_optimum(self):
        # every schedule in the box carries excess; the lower bounds carry the least
        problem = flat_problem(0.4, 0.6, gamma_lo=1.2, gamma_hi=1.5)
        schedule, objective = exact_optimum(problem)
        np.testing.assert_array_equal(schedule.values, problem.lower_bounds)
        _, grid = grid_search(ReducedProblem(problem, (3, 18), 11))
        assert objective == pytest.approx(grid, rel=0, abs=ULPS)

    def test_excess_above_the_lower_bounds_names_the_premise(self):
        # one lower bound above the prediction, the other hours free to stay
        # on it: the argmin overshoots the predicted total, yet lowering other
        # hours would cut the excess, so the closed form does not hold
        problem = flat_problem(0.0, 1.0)
        lower, upper = problem.lower_bounds.copy(), problem.upper_bounds.copy()
        lower[0], upper[0] = 12.0, 14.0
        skewed = DrProblem(problem.predicted, problem.prices, lower, upper, problem.w1, problem.w2,
                           problem.alpha, problem.e_cmax, problem.l_shmax)
        with pytest.raises(LoadshiftError, match="the closed form does not apply"):
            exact_optimum(skewed)


class TestPinnedProblem:
    @settings(max_examples=50, deadline=None)
    @given(problem=day_problem(), hours=st.lists(st.integers(0, 23), max_size=24, unique=True))
    def test_pins_every_other_hour_and_keeps_the_normalizers(self, problem, hours):
        pinned = pinned_problem(problem, hours)
        clipped = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
        for h in range(24):
            if h in hours:
                assert pinned.lower_bounds[h] == problem.lower_bounds[h]
                assert pinned.upper_bounds[h] == problem.upper_bounds[h]
            else:
                assert pinned.lower_bounds[h] == pinned.upper_bounds[h] == clipped[h]
        for name in ("predicted", "prices", "w1", "w2", "alpha", "e_cmax", "l_shmax", "predicted_total"):
            assert getattr(pinned, name) == getattr(problem, name)

    def test_grid_search_pins_the_same_problem(self):
        problem = flat_problem(peak_cap=10.0)
        ours = pinned_problem(problem, [3, 19])
        theirs = gridsearch.pinned_problem(ReducedProblem(problem, (19, 3), 5))
        np.testing.assert_array_equal(ours.lower_bounds, theirs.lower_bounds)
        np.testing.assert_array_equal(ours.upper_bounds, theirs.upper_bounds)
        assert (ours.w1, ours.w2, ours.alpha, ours.e_cmax, ours.l_shmax) == \
            (theirs.w1, theirs.w2, theirs.alpha, theirs.e_cmax, theirs.l_shmax)


class TestVerifyOracle:
    PREDICTED = np.random.default_rng(29).uniform(60, 140, size=24)
    PRICES = 5.0 + 6.0 * np.exp(-((np.arange(24) - 18.5) ** 2) / 8.0)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("verify_inputs")
        write_hourly_csv(root / "predicted.csv", "predicted_kwh", self.PREDICTED)
        write_hourly_csv(root / "prices.csv", "price_c_per_kwh", self.PRICES)
        return ["--predicted", str(root / "predicted.csv"), "--prices", str(root / "prices.csv"),
                "--w1", "0.9", "--w2", "0.1", "--peak-cap", "120", "--population", "8", "--iterations", "5",
                "--tolerance", "10"]

    def verify(self, inputs, out, *flags):
        assert main(["verify", *inputs, *flags, "--out", str(out)]) == 0
        return json.loads((out / "verify.json").read_text())

    def test_all_hours_free_is_the_full_problem(self, inputs, tmp_path):
        report = self.verify(inputs, tmp_path, "--free-hours", ",".join(map(str, range(24, 0, -1))))
        full = build_problem(load_profile(self.PREDICTED), price_profile(self.PRICES), 0.9, 0.1, peak_cap=120.0)
        schedule, objective = exact_optimum(full)
        assert report["free_hours"] == list(range(1, 25))
        assert report["checks"][0]["oracle_objective"] == objective
        assert report["oracle_schedule_kwh"] == schedule.values.tolist()

    def test_resolution_is_ignored(self, inputs, tmp_path):
        for resolution in ("1", "101"):
            self.verify(inputs, tmp_path / resolution, "--resolution", resolution)
        assert (tmp_path / "1" / "verify.json").read_bytes() == (tmp_path / "101" / "verify.json").read_bytes()
        assert "grid_resolution" not in json.loads((tmp_path / "1" / "verify.json").read_text())

    def test_four_free_hours_at_any_resolution_run(self, inputs, tmp_path):
        # 60^4 points: the grid oracle refused this, above its 10M-point cap
        report = self.verify(inputs, tmp_path, "--free-hours", "17,18,19,20", "--resolution", "60")
        assert report["free_hours"] == [17, 18, 19, 20]
