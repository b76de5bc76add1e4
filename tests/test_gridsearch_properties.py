"""grid_search on random reduced problems, tie-heavy ones included, and the
memory its enumeration takes."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.exact import pinned_problem
from loadshift.gridsearch import ReducedProblem, grid_search
from loadshift.objective import build_problem, evaluate_batch
from loadshift.profiles import load_profile, peak, price_profile


@st.composite
def reduced_problem(draw):
    """1-4 free hours at 2-31 points, capped or not; zero prices on the free
    hours and zero weights make many grid points tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    predicted = load_profile(rng.uniform(50.0, 200.0, size=24))
    prices = rng.uniform(0.5, 15.0, size=24)
    hours = draw(st.lists(st.integers(0, 23), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        prices[hours] = 0.0
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    # lower bounds stay under any cap; the box never collapses to zero
    gamma_lo = draw(st.floats(0.0, 0.6))
    cap = draw(st.one_of(st.none(), st.floats(0.6, 1.0)))
    problem = build_problem(
        predicted, price_profile(prices), draw(weight), draw(weight),
        gamma_lo=gamma_lo, gamma_hi=draw(st.floats(max(gamma_lo, 0.5), 2.0)),
        peak_cap=None if cap is None else cap * peak(predicted),
        alpha=draw(st.sampled_from([0.5, 100.0])),
    )
    return ReducedProblem(problem, tuple(hours), draw(st.integers(2, 31)))


@settings(max_examples=80, deadline=None)
@given(reduced=reduced_problem())
def test_returns_an_evaluated_grid_point(reduced):
    schedule, objective = grid_search(reduced)
    assert objective == evaluate_batch(reduced.base, schedule.values[None])[3, 0]

    # a grid point, pinned hours untouched
    free = list(reduced.free_hours)
    pinned = np.delete(np.arange(24), free)
    np.testing.assert_array_equal(schedule.values[pinned],
                                  pinned_problem(reduced.base, free).lower_bounds[pinned])
    for h in free:
        grid = np.linspace(reduced.base.lower_bounds[h], reduced.base.upper_bounds[h], reduced.grid_resolution)
        assert schedule.values[h] in grid


def test_enumeration_memory_stays_bounded():
    # 56^4 = 9.8M points, scored 65,536 at a time
    rng = np.random.default_rng(4)
    problem = build_problem(
        load_profile(rng.uniform(50.0, 150.0, size=24)), price_profile(rng.uniform(3.0, 12.0, size=24)),
        0.6, 0.4,
    )
    reduced = ReducedProblem(problem, (0, 6, 12, 18), 56)
    tracemalloc.start()
    try:
        grid_search(reduced)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_bytes < 38.5 * 2**20
