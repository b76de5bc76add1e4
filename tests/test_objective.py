"""Objective terms, normalization, and problem construction."""

import dataclasses

import numpy as np
import pytest
from helpers import plain_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.errors import InvalidBounds, ZeroPredictedTotal
from loadshift.objective import (
    ObjectiveBreakdown,
    build_problem,
    energy_cost,
    evaluate_batch,
)
from loadshift.profiles import load_profile, price_profile


def flat_load(value):
    return load_profile(np.full(24, float(value)))


def flat_price(value):
    return price_profile(np.full(24, float(value)))


class TestEnergyCost:
    def test_flat_day(self):
        # 2 kWh for 24 hours at 10 cents is 480 cents
        assert energy_cost(flat_load(2.0), flat_price(10.0)) == 480.0

    def test_zero_load_costs_nothing(self):
        assert energy_cost(flat_load(0.0), flat_price(37.5)) == 0.0

    def test_concentrated_hours(self):
        loads = np.zeros(24)
        loads[:3] = [1.0, 2.0, 3.0]
        assert energy_cost(load_profile(loads), flat_price(10.0)) == 60.0

    def test_price_weighting(self):
        prices = np.zeros(24)
        prices[5] = 8.0
        loads = np.zeros(24)
        loads[5] = 2.5
        loads[6] = 1000.0  # free hour, must not count
        assert energy_cost(load_profile(loads), price_profile(prices)) == 20.0


def breakdown(schedule, predicted):
    """``schedule`` scored as a one-row batch on a problem built from
    ``predicted``; its shift and violation terms depend on neither the
    prices nor the weights."""
    problem = build_problem(predicted, flat_price(10.0), 0.5, 0.5)
    return ObjectiveBreakdown(*evaluate_batch(problem, schedule.values[None])[:, 0])


class TestLoadShift:
    def test_identical_profiles(self):
        p = flat_load(7.0)
        assert breakdown(p, p).load_shift_kwh == 0.0

    def test_uniform_offset(self):
        assert breakdown(flat_load(11.0), flat_load(10.0)).load_shift_kwh == 24.0

    def test_mixed_signs_use_absolute_value(self):
        predicted = np.full(24, 10.0)
        schedule = predicted.copy()
        schedule[0] += 6.0
        schedule[1] -= 4.0
        assert breakdown(load_profile(schedule), load_profile(predicted)).load_shift_kwh == 10.0


class TestViolation:
    def test_equal_totals(self):
        assert breakdown(flat_load(10.0), flat_load(10.0)).violation == 0.0

    def test_ten_percent_excess(self):
        assert breakdown(flat_load(11.0), flat_load(10.0)).violation == pytest.approx(0.1, abs=1e-12)

    def test_deficit_is_free(self):
        # one-sided: scheduling less total energy carries no penalty
        assert breakdown(flat_load(9.0), flat_load(10.0)).violation == 0.0

    def test_zero_predicted_total_rejected(self):
        # the problem refuses a zero profile when it is built, so no
        # evaluation ever divides by a zero total
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        with pytest.raises(ZeroPredictedTotal):
            dataclasses.replace(problem, predicted=flat_load(0.0))
        with pytest.raises(ZeroPredictedTotal):
            build_problem(flat_load(0.0), flat_price(10.0), 0.5, 0.5)

    def test_redistribution_without_excess(self):
        predicted = np.full(24, 10.0)
        schedule = predicted.copy()
        schedule[0] += 5.0
        schedule[1] -= 5.0
        assert breakdown(load_profile(schedule), load_profile(predicted)).violation == 0.0


class TestBuildProblem:
    def test_default_bounds_and_normalizers(self):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        np.testing.assert_allclose(problem.lower_bounds, 5.0)
        np.testing.assert_allclose(problem.upper_bounds, 15.0)
        # e_cmax = 24 * 15 kWh * 10 c; l_shmax = 24 * max(5, 5)
        assert problem.e_cmax == 3600.0
        assert problem.l_shmax == 120.0

    def test_peak_cap_tightens_upper_bounds(self):
        predicted = np.full(24, 10.0)
        predicted[18] = 20.0
        problem = build_problem(
            load_profile(predicted), flat_price(10.0), 0.5, 0.5, peak_cap=18.0
        )
        expected = np.minimum(1.5 * predicted, 18.0)
        np.testing.assert_allclose(problem.upper_bounds, expected)
        assert problem.upper_bounds[18] == 18.0

    def test_pinned_box_uses_unit_shift_normalizer(self):
        problem = build_problem(
            flat_load(10.0), flat_price(10.0), 0.5, 0.5, gamma_lo=1.0, gamma_hi=1.0
        )
        np.testing.assert_array_equal(problem.lower_bounds, problem.upper_bounds)
        assert problem.l_shmax == 1.0
        cost, shift, _, objective = evaluate_batch(problem, np.full((1, 24), 10.0))[:, 0]
        assert shift == 0.0
        assert objective == pytest.approx(0.5 * cost / problem.e_cmax)

    def test_inverted_gamma_rejected(self):
        with pytest.raises(InvalidBounds):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5,
                          gamma_lo=1.2, gamma_hi=0.8)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidBounds):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5,
                          gamma_lo=-0.1, gamma_hi=1.5)

    def test_nonpositive_peak_cap_rejected(self):
        with pytest.raises(InvalidBounds):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5, peak_cap=0.0)

    def test_infinite_peak_cap_rejected(self):
        with pytest.raises(InvalidBounds, match="peak_cap must be finite, got inf"):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5, peak_cap=float("inf"))

    def test_peak_cap_below_lower_bound_rejected(self):
        # lower bound is 5 kWh everywhere; a 4 kWh cap empties the box
        with pytest.raises(InvalidBounds):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5, peak_cap=4.0)

    def test_swapped_profile_kinds_rejected(self):
        with pytest.raises(InvalidBounds):
            build_problem(flat_price(10.0), flat_load(10.0), 0.5, 0.5)

    @pytest.mark.parametrize("bounds", [
        {"gamma_lo": float("nan")}, {"gamma_hi": float("nan")}, {"peak_cap": float("nan")},
    ])
    def test_nan_bound_arguments_rejected(self, bounds):
        with pytest.raises(InvalidBounds, match="nan"):
            build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5, **bounds)

    def test_zero_prices_rejected(self):
        with pytest.raises(InvalidBounds, match="e_cmax"):
            build_problem(flat_load(10.0), flat_price(0.0), 0.5, 0.5)


class TestProblemChecks:
    """A DrProblem checks itself when it is built, however it is built."""

    @pytest.mark.parametrize("changes", [
        {"w1": -1.0},
        {"alpha": 0.0},
        {"e_cmax": 0.0},
        {"predicted": flat_price(10.0), "prices": flat_load(10.0)},
        {"lower_bounds": np.full(24, 16.0)},
        {"lower_bounds": np.full(24, -1.0)},
        {"upper_bounds": np.full(23, 15.0)},
        {"w2": float("nan")},
        {"w1": float("inf")},
        {"alpha": float("inf")},
        {"l_shmax": float("nan")},
        {"lower_bounds": np.full(24, float("nan"))},
        {"upper_bounds": np.full(24, float("inf"))},
    ], ids=["negative-w1", "zero-alpha", "zero-e_cmax", "swapped-kinds", "lower-above-upper",
            "negative-lower", "23-upper-bounds", "nan-w2", "infinite-w1", "infinite-alpha",
            "nan-l_shmax", "nan-lower", "infinite-upper"])
    def test_bad_field_is_invalid_bounds(self, changes):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        with pytest.raises(InvalidBounds):
            dataclasses.replace(problem, **changes)

    def test_errors_are_still_value_errors(self):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(problem, w2=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(problem, predicted=flat_load(0.0))


class TestEvaluate:
    def hand_problem(self):
        predicted = np.zeros(24)
        predicted[:2] = 10.0
        return build_problem(
            load_profile(predicted), flat_price(10.0), 0.5, 0.5,
            gamma_lo=0.0, gamma_hi=2.0, alpha=100.0,
        )

    def test_hand_worked_breakdown(self):
        # bounds [0, 20] on the two live hours, pinned at zero elsewhere:
        #   e_cmax  = (20 + 20) * 10c          = 400
        #   l_shmax = max(10, 10) * 2          = 20
        # schedule [12, 10, 0, ...]:
        #   cost      = 120 + 100              = 220
        #   shift     = |12 - 10|              = 2
        #   violation = 22/20 - 1              = 0.1
        #   objective = 0.5*220/400 + 0.5*2/20 + 100*0.1 = 10.325
        problem = self.hand_problem()
        assert problem.e_cmax == 400.0
        assert problem.l_shmax == 20.0

        schedule = np.zeros(24)
        schedule[:2] = [12.0, 10.0]
        cost, shift, violation, objective = evaluate_batch(problem, schedule[None])[:, 0]
        assert cost == 220.0
        assert shift == 2.0
        assert violation == pytest.approx(0.1, abs=1e-12)
        assert objective == pytest.approx(10.325, rel=1e-12)

    def test_predicted_schedule_scores_zero_under_shift_only(self):
        predicted = flat_load(10.0)
        problem = build_problem(predicted, flat_price(10.0), 0.0, 1.0)
        assert evaluate_batch(problem, predicted.values[None])[3, 0] == 0.0

    def test_cost_only_weighting_ignores_shift(self):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 1.0, 0.0)
        objective = evaluate_batch(problem, problem.lower_bounds[None])[3, 0]
        # all-lower schedule: cost = 5*10*24 = 1200, scaled by e_cmax = 3600
        assert objective == pytest.approx(1200.0 / 3600.0, rel=1e-12)

    def test_out_of_bounds_schedule_still_evaluates(self):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        _, _, violation, objective = evaluate_batch(problem, np.full((1, 24), 40.0))[:, 0]
        assert violation == pytest.approx(3.0, rel=1e-12)
        assert np.isfinite(objective)

    def test_batch_shape_validated(self):
        problem = build_problem(flat_load(10.0), flat_price(10.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            evaluate_batch(problem, np.zeros(24))
        with pytest.raises(ValueError):
            evaluate_batch(problem, np.zeros((3, 23)))


class TestOutBuffer:
    @pytest.fixture
    def problem_and_batch(self):
        rng = np.random.default_rng(31)
        predicted = load_profile(rng.uniform(50.0, 200.0, size=24))
        problem = build_problem(predicted, price_profile(rng.uniform(2.0, 15.0, size=24)),
                                0.8, 0.2, peak_cap=0.9 * float(predicted.values.max()))
        # some rows above the predicted total, so the penalty term is live
        return problem, rng.uniform(0.5 * problem.lower_bounds, 1.4 * problem.upper_bounds,
                                    size=(50, 24))

    def test_writes_the_allocating_calls_bits_into_the_buffer(self, problem_and_batch):
        problem, batch = problem_and_batch
        expected = evaluate_batch(problem, batch)
        buf = np.full((4, len(batch)), np.nan)
        assert evaluate_batch(problem, batch, out=buf) is buf
        assert buf.tobytes() == expected.tobytes()
        assert np.any(buf[2] > 0) and np.any(buf[2] == 0)

    def test_every_term_matches_the_plain_expression_bit_for_bit(self, problem_and_batch):
        problem, batch = problem_and_batch
        assert evaluate_batch(problem, batch).tobytes() == plain_terms(problem, batch).tobytes()
        assert evaluate_batch(problem, batch[:1]).tobytes() == plain_terms(problem, batch[:1]).tobytes()


@st.composite
def random_problem(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    predicted = load_profile(rng.uniform(50.0, 200.0, size=24))
    prices = price_profile(rng.uniform(2.0, 15.0, size=24))
    w1 = draw(st.floats(0.0, 1.0, allow_nan=False))
    return build_problem(predicted, prices, w1, 1.0 - w1), rng


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_problem(), st.integers(1, 100))
    def test_batch_matches_scalar_evaluation(self, built, n):
        # a row scores bit for bit as it does alone, in a batch of any size,
        # and its cost is energy_cost's
        problem, rng = built
        batch = rng.uniform(problem.lower_bounds, problem.upper_bounds, size=(n, 24))
        terms = evaluate_batch(problem, batch)
        for row, scores in zip(batch, terms.T):
            assert scores.tobytes() == evaluate_batch(problem, row[None])[:, 0].tobytes()
            assert scores[0] == energy_cost(load_profile(row), problem.prices)

    @settings(max_examples=50, deadline=None)
    @given(random_problem())
    def test_in_box_terms_are_normalized(self, built):
        problem, rng = built
        batch = rng.uniform(problem.lower_bounds, problem.upper_bounds, size=(16, 24))
        cost, shift, _, _ = evaluate_batch(problem, batch)
        assert np.all(cost <= problem.e_cmax * (1 + 1e-12))
        assert np.all(shift <= problem.l_shmax * (1 + 1e-12))

    @settings(max_examples=50, deadline=None)
    @given(random_problem())
    def test_violation_flags_exactly_the_excess_schedules(self, built):
        problem, rng = built
        batch = rng.uniform(0.5 * problem.lower_bounds, 1.4 * problem.upper_bounds,
                            size=(16, 24))
        _, _, viol, _ = evaluate_batch(problem, batch)
        total_predicted = np.sum(problem.predicted.values)
        over = batch.sum(axis=1) > total_predicted
        assert np.array_equal(viol > 0, over)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0, allow_nan=False))
    def test_violation_ratio_is_scale_invariant(self, seed, scale):
        rng = np.random.default_rng(seed)
        predicted = rng.uniform(10.0, 100.0, size=24)
        schedules = rng.uniform(10.0, 100.0, size=(4, 24))
        prices = price_profile(rng.uniform(2.0, 15.0, size=24))
        base = evaluate_batch(build_problem(load_profile(predicted), prices, 0.5, 0.5), schedules)[2]
        scaled = evaluate_batch(build_problem(load_profile(scale * predicted), prices, 0.5, 0.5),
                                scale * schedules)[2]
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(random_problem(), st.integers(0, 23))
    def test_cost_rises_with_any_hourly_increase(self, built, hour):
        problem, rng = built
        schedule = rng.uniform(problem.lower_bounds, problem.upper_bounds)
        bumped = schedule.copy()
        bumped[hour] += 1.0
        before = energy_cost(load_profile(schedule), problem.prices)
        after = energy_cost(load_profile(bumped), problem.prices)
        assert after > before
