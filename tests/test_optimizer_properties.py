"""Invariants both population optimizers keep on random capped problems,
and their results against the exact optimum on synthetic days."""

import tracemalloc

import numpy as np
import pytest
from helpers import corner_optimum, initial_positions
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift import common, de, pso
from loadshift.objective import build_problem, evaluate_batch
from loadshift.profiles import ProfileKind, load_profile, peak, price_profile

RUNS = {
    "pso": lambda problem, seed: pso.optimize(
        problem, pso.PsoConfig(swarm_size=10, iterations=15, seed=seed)),
    "de": lambda problem, seed: de.optimize(
        problem, de.DeConfig(population_size=10, iterations=15, seed=seed)),
}


@st.composite
def capped_problem(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    predicted = load_profile(rng.uniform(50.0, 200.0, size=24))
    prices = price_profile(rng.uniform(0.5, 15.0, size=24))
    w1 = draw(st.floats(0.0, 1.0))
    w2 = draw(st.floats(0.0, 1.0))
    # at least 0.5 of the peak, so no upper bound falls below its lower bound
    cap = draw(st.floats(0.5, 1.0)) * peak(predicted)
    return build_problem(predicted, prices, w1, w2, peak_cap=cap)


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=25, deadline=None)
@given(problem=capped_problem(), seed=st.integers(0, 2**32 - 1))
def test_result_invariants(name, problem, seed):
    # every batch scored lies in the box, kept or not: the initial
    # population and DE's trials included
    keep = common.Search.keep
    audited = []

    def keep_in_the_box(search, batch):
        assert np.all(batch >= problem.lower_bounds)
        assert np.all(batch <= problem.upper_bounds)
        audited.append(len(batch))
        keep(search, batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common.Search, "keep", keep_in_the_box)
        result = RUNS[name](problem, seed)
    assert audited == [10] * 16
    _, optimum = corner_optimum(problem)
    assert result.objective >= optimum - 1e-9
    schedule = result.best_schedule.values
    assert np.all(schedule >= problem.lower_bounds)
    assert np.all(schedule <= problem.upper_bounds)
    objectives = [t.objective for t in result.trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    # the result reports its last trace point, to the bit
    best = result.trace[-1]
    assert (result.objective, result.cost_cents, result.load_shift_kwh, result.violation) == (
        best.objective, best.cost_cents, best.load_shift_kwh, best.violation)

    again = RUNS[name](problem, seed)
    assert again.best_schedule.values.tobytes() == schedule.tobytes()
    assert again.trace == result.trace
    assert again.objective == result.objective


@settings(max_examples=50, deadline=None)
@given(problem=capped_problem(), seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60))
def test_initial_population_matches_the_plain_draw(problem, seed, size):
    # a cap below the peak makes member 0's clip bind
    search = common.Search(problem, seed, size)
    reference = initial_positions(problem, size, np.random.default_rng(seed))
    assert search.positions.tobytes() == reference.tobytes()


DEFAULT_RUNS = {
    "pso": lambda problem, seed: pso.optimize(problem, pso.PsoConfig(seed=seed)),
    "de": lambda problem, seed: de.optimize(problem, de.DeConfig(seed=seed)),
}


@pytest.fixture(scope="module")
def cost_heavy_days(synth30):
    """Three synthetic days at w1 = 0.8, uncapped and capped at 90% of the
    predicted peak, the actual load standing in for the forecast."""
    days = sorted({t.date() for t in synth30.timestamps})
    problems = []
    for day in (days[5], days[14], days[23]):
        predicted = synth30.day_profile(day)
        prices = synth30.day_profile(day, ProfileKind.PRICE)
        for cap in (None, 0.9 * peak(predicted)):
            problems.append(build_problem(predicted, prices, 0.8, 0.2, peak_cap=cap))
    return problems


@pytest.mark.parametrize("name", sorted(DEFAULT_RUNS))
def test_default_budget_improves_on_member_zero_and_respects_the_optimum(
        name, cost_heavy_days):
    for seed, problem in enumerate(cost_heavy_days):
        member_zero = np.clip(problem.predicted.values, problem.lower_bounds,
                              problem.upper_bounds)
        start = float(evaluate_batch(problem, member_zero[None, :])[3, 0])
        _, optimum = corner_optimum(problem)
        # the premise: the seeded member is not already optimal
        assert optimum < start
        result = DEFAULT_RUNS[name](problem, seed)
        assert result.objective < start
        assert result.objective >= optimum - 1e-9


LONG_RUNS = {
    "pso": lambda problem: pso.optimize(problem, pso.PsoConfig(swarm_size=64, iterations=2000)),
    "de": lambda problem: de.optimize(problem, de.DeConfig(population_size=64, iterations=2000)),
}


@pytest.mark.parametrize("name", sorted(LONG_RUNS))
def test_a_long_run_draws_its_uniforms_in_bounded_blocks(name):
    # all 2,000 iterations' uniforms at once would be 49 MB for PSO and
    # 30 MB for DE; blocks keep the run's peak within a few block caps
    rng = np.random.default_rng(3)
    problem = build_problem(load_profile(rng.uniform(50, 150, size=24)),
                            price_profile(rng.uniform(3, 12, size=24)), 0.8, 0.2)
    tracemalloc.start()
    try:
        LONG_RUNS[name](problem)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 8 * common.BLOCK_VALUES * 8
