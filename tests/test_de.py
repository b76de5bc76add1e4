"""Differential evolution: operators, invariants, convergence."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from helpers import corner_optimum, de_generation, initial_positions, plain_terms, search_box
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loadshift import common, de
from loadshift.errors import InvalidOptimizerConfig
from loadshift.objective import build_problem, evaluate_batch
from loadshift.profiles import load_profile, price_profile

LARGEST_BELOW_ONE = np.nextafter(1.0, 0.0)


def mutate(population, parents, beta, lower, upper):
    """``de.mutate`` on (3, n) rows of a, b and c indices, one column per
    donor, and a scalar or a column of factors, in a box of n donors."""
    parents = np.array(parents)
    n = parents.shape[1]
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n, 1))
    picked = np.empty((3, n, len(lower)))
    return de.mutate(population, parents, beta, picked, search_box(n, lower, upper))


def crossover(targets, donors, forced, mask, crossover_probability):
    """One generation's trials: the masks ``de.crossover_masks`` builds for
    a block of that one generation, copied over the donors as ``optimize``
    does.  Each row's forced component is given as an index: its uniform
    is the middle of that index's cell."""
    _, dims = np.shape(targets)
    uniforms = np.column_stack([(np.asarray(forced) + 0.5) / dims, np.asarray(mask, dtype=float)])
    keep_target = de.crossover_masks(uniforms[None], crossover_probability)
    trials = np.array(donors, dtype=float)
    np.copyto(trials, np.asarray(targets, dtype=float), where=keep_target[0])
    return trials


def make_problem(predicted, prices, w1=0.5, w2=0.5, **kwargs):
    return build_problem(
        load_profile(np.asarray(predicted, dtype=float)),
        price_profile(np.asarray(prices, dtype=float)),
        w1, w2, **kwargs,
    )


def flat_problem(w1=0.5, w2=0.5, **kwargs):
    return make_problem(np.full(24, 10.0), np.full(24, 10.0), w1, w2, **kwargs)


class TestConfig:
    def test_defaults(self):
        config = de.DeConfig()
        assert config.population_size == 50
        assert config.iterations == 100
        assert config.beta_range == (0.2, 0.8)
        assert config.crossover_probability == 0.7

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 3},
        {"iterations": 0},
        {"beta_range": (0.0, 0.5)},
        {"beta_range": (0.6, 0.5)},
        {"beta_range": (-0.2, 0.8)},
        {"crossover_probability": -0.01},
        {"crossover_probability": 1.01},
    ])
    def test_bad_values_rejected(self, kwargs):
        # beta_range and crossover_probability are class constants, not constructor arguments
        error = (InvalidOptimizerConfig if kwargs.keys() <= {"population_size", "iterations"}
                 else TypeError)
        with pytest.raises(error):
            de.DeConfig(**kwargs)


class TestMutate:
    def population(self):
        return np.array([
            [1.0, 1.0],
            [2.0, 0.0],
            [0.0, 0.0],
            [5.0, 5.0],
        ])

    def test_difference_scaling(self):
        # pop[1] + 0.5 * (pop[0] - pop[2]) = [2.5, 0.5]
        donor = mutate(self.population(), [[1], [0], [2]], 0.5,
                       np.full(2, -10.0), np.full(2, 10.0))
        np.testing.assert_array_equal(donor, [[2.5, 0.5]])

    def test_equal_parents_b_c_reduce_to_base(self):
        pop = self.population()
        pop[2] = pop[1]
        donor = mutate(pop, [[0], [1], [2]], 0.7, np.full(2, -10.0), np.full(2, 10.0))
        np.testing.assert_array_equal(donor, pop[[0]])

    def test_donor_is_clamped_into_the_box(self):
        donor = mutate(self.population(), [[3], [1], [2]], 1.0,
                       np.zeros(2), np.full(2, 6.0))
        np.testing.assert_array_equal(donor, [[6.0, 5.0]])

    def test_index_arrays_build_one_donor_per_row(self):
        donors = mutate(self.population(), [[1, 3], [0, 1], [2, 2]], [[0.5], [1.0]],
                        np.full(2, -10.0), np.full(2, 10.0))
        np.testing.assert_array_equal(donors, [[2.5, 0.5], [7.0, 5.0]])


class TestDrawParents:
    @staticmethod
    def distinct_and_not_the_target(parents):
        """Whether every member of every generation has three distinct
        parents, none of them itself."""
        generations, _, n = parents.shape
        members = np.broadcast_to(np.arange(n), (generations, 1, n))
        rows = np.concatenate([members, parents], axis=1).swapaxes(1, 2).reshape(-1, 4)
        return all(len(set(row)) == 4 for row in rows.tolist())

    @pytest.mark.parametrize("size", [4, 5, 50])
    def test_rows_are_distinct_and_exclude_the_target(self, size):
        # 20 generations in one block
        parents = de.draw_parents(np.random.default_rng(size).random((20, size, 3)))
        assert parents.shape == (20, 3, size)
        assert self.distinct_and_not_the_target(parents)

    def test_every_other_member_can_be_drawn_in_every_role(self):
        parents = de.draw_parents(np.random.default_rng(0).random((200, 4, 3)))
        seen = np.zeros((3, 4), dtype=bool)
        seen[[0, 1, 2], parents[:, :, 0]] = True
        np.testing.assert_array_equal(seen, [[False, True, True, True]] * 3)

    def test_every_ordering_of_the_other_three_occurs(self):
        parents = de.draw_parents(np.random.default_rng(1).random((200, 4, 3)))
        orderings = {tuple(member_0) for member_0 in parents[:, :, 0].tolist()}
        assert orderings == set(itertools.permutations([1, 2, 3]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 60).flatmap(lambda n: arrays(
        float, (n, 3), elements=st.floats(0.0, 1.0, exclude_max=True))))
    def test_any_uniforms_give_distinct_parents_other_than_the_target(self, uniforms):
        # a block of two generations: the drawn uniforms, then the largest ones
        n = len(uniforms)
        parents = de.draw_parents(np.stack([uniforms, np.full((n, 3), LARGEST_BELOW_ONE)]))
        assert np.all((0 <= parents) & (parents < n))
        assert self.distinct_and_not_the_target(parents)


class TestCrossover:
    def test_full_rate_takes_the_donor(self):
        target = np.zeros((1, 4))
        donor = np.arange(4.0)[None, :]
        trial = crossover(target, donor, [2], np.full((1, 4), 0.99), 1.0)
        np.testing.assert_array_equal(trial, donor)

    def test_zero_rate_keeps_only_the_forced_component(self):
        target = np.zeros((1, 4))
        donor = np.full((1, 4), 7.0)
        trial = crossover(target, donor, [2], np.full((1, 4), 0.5), 0.0)
        np.testing.assert_array_equal(trial, [[0.0, 0.0, 7.0, 0.0]])

    def test_mask_follows_the_uniform_draws(self):
        target = np.zeros((1, 4))
        donor = np.full((1, 4), 7.0)
        trial = crossover(target, donor, [0], [[0.9, 0.6, 0.8, 0.1]], 0.7)
        # draws <= 0.7 take the donor, index 0 is forced
        np.testing.assert_array_equal(trial, [[7.0, 7.0, 0.0, 7.0]])

    def test_uniform_at_the_rate_takes_the_donor(self):
        # "at most crossover_probability": a draw of exactly 0.7 takes the donor
        rate = de.DeConfig.crossover_probability
        trial = crossover(np.zeros((1, 3)), np.full((1, 3), 7.0), [0], [[0.9, rate, np.nextafter(rate, 1.0)]], rate)
        np.testing.assert_array_equal(trial, [[7.0, 7.0, 0.0]])

    def test_identical_parents_are_a_fixed_point(self):
        x = np.array([[3.0, 1.0, 4.0]])
        trial = crossover(x.copy(), x.copy(), [1], [[0.1, 0.9, 0.5]], 0.7)
        np.testing.assert_array_equal(trial, x)

    def test_each_row_has_its_own_forced_index_and_mask(self):
        target = np.zeros((2, 3))
        donor = np.full((2, 3), 7.0)
        trial = crossover(target, donor, [0, 2], [[0.9, 0.1, 0.9], [0.9, 0.9, 0.9]], 0.7)
        np.testing.assert_array_equal(trial, [[7.0, 7.0, 0.0], [0.0, 0.0, 7.0]])

    def test_largest_uniform_forces_the_last_component(self):
        keep_target = de.crossover_masks(np.full((1, 1, 25), LARGEST_BELOW_ONE), 0.7)
        trial = np.ones((1, 24))
        np.copyto(trial, np.zeros((1, 24)), where=keep_target[0])
        np.testing.assert_array_equal(trial[0], np.arange(24) == 23)

    def test_each_generation_of_a_block_has_its_own_forced_components(self):
        # two generations of two members, no component taken by the mask:
        # each mask is False only at its forced component
        forced = np.array([[0, 2], [1, 0]])
        uniforms = np.concatenate([((forced + 0.5) / 3)[..., None], np.ones((2, 2, 3))], axis=-1)
        keep_target = de.crossover_masks(uniforms, 0.7)
        np.testing.assert_array_equal(~keep_target, np.arange(3) == forced[..., None])


class TestOptimize:
    def test_degenerate_box_returns_predicted(self):
        problem = flat_problem(gamma_lo=1.0, gamma_hi=1.0)
        result = de.optimize(problem, de.DeConfig(population_size=6, iterations=5))
        np.testing.assert_array_equal(result.best_schedule.values,
                                      problem.predicted.values)

    def test_seeded_member_bounds_the_final_objective(self):
        problem = flat_problem(0.4, 0.6)
        result = de.optimize(problem, de.DeConfig(population_size=20, iterations=30))
        start = evaluate_batch(problem, problem.predicted.values[None])[3, 0]
        assert result.objective <= start

    def test_same_seed_reproduces_everything(self):
        problem = flat_problem(0.7, 0.3)
        config = de.DeConfig(population_size=12, iterations=25, seed=42)
        a = de.optimize(problem, config)
        b = de.optimize(problem, config)
        np.testing.assert_array_equal(a.best_schedule.values, b.best_schedule.values)
        assert a.trace == b.trace

    def test_different_seeds_diverge(self):
        problem = flat_problem(1.0, 0.0)
        a = de.optimize(problem, de.DeConfig(population_size=12, iterations=25, seed=1))
        b = de.optimize(problem, de.DeConfig(population_size=12, iterations=25, seed=2))
        assert a.trace != b.trace
        assert a.trace[0].objective != b.trace[0].objective

    def test_trace_shape_and_monotonicity(self):
        problem = flat_problem(0.7, 0.3)
        result = de.optimize(problem, de.DeConfig(population_size=10, iterations=40))
        assert len(result.trace) == 41
        objectives = np.array([t.objective for t in result.trace])
        assert np.all(np.diff(objectives) <= 0)
        assert result.trace[-1].objective == result.objective

    def test_result_is_self_consistent(self):
        rng = np.random.default_rng(6)
        problem = make_problem(rng.uniform(50, 150, size=24),
                               rng.uniform(3, 12, size=24), 0.4, 0.6)
        result = de.optimize(problem, de.DeConfig(population_size=20, iterations=30,
                                                  seed=8))
        best = result.trace[-1]
        assert (result.objective, result.cost_cents, result.load_shift_kwh, result.violation) == (
            best.objective, best.cost_cents, best.load_shift_kwh, best.violation)
        cost, _, _, objective = evaluate_batch(problem, result.best_schedule.values[None])[:, 0]
        assert result.objective == pytest.approx(objective, rel=1e-12)
        assert result.cost_cents == pytest.approx(cost, rel=1e-12)
        assert result.rng_seed == 8
        assert np.all(result.best_schedule.values >= problem.lower_bounds)
        assert np.all(result.best_schedule.values <= problem.upper_bounds)

    def test_per_member_objectives_never_worsen(self):
        problem = flat_problem(0.7, 0.3)
        config = de.DeConfig(population_size=10, iterations=20, seed=3)
        from loadshift.objective import evaluate_batch

        history = []

        def audit(iteration, population):
            assert np.all(population >= problem.lower_bounds)
            assert np.all(population <= problem.upper_bounds)
            _, _, _, obj = evaluate_batch(problem, population)
            history.append(obj.copy())

        de.optimize(problem, config, on_iteration=audit)
        assert len(history) == config.iterations + 1
        stacked = np.stack(history)
        # greedy selection: each member's score is non-increasing in time
        assert np.all(np.diff(stacked, axis=0) <= 1e-12)

    def test_cost_only_run_reaches_the_cheap_corner(self):
        # geometric refinement: roughly 1e-6 off after 200 generations,
        # 1e-11 after 400, so 400 supports a tight tolerance
        problem = flat_problem(1.0, 0.0)
        result = de.optimize(problem, de.DeConfig(seed=0, iterations=400))
        assert result.objective == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_matches_corner_oracle_on_two_free_hours(self):
        predicted = np.zeros(24)
        predicted[:2] = 10.0
        prices = np.full(24, 10.0)
        prices[0] = 20.0
        prices[1] = 5.0
        problem = make_problem(predicted, prices, 0.8, 0.2)
        schedule, best = corner_optimum(problem)
        result = de.optimize(problem, de.DeConfig(seed=4))
        assert result.objective >= best - 1e-12
        assert result.objective == pytest.approx(best, abs=1e-6)


def reference_states(problem, config, rng=None):
    """The population after every generation of ``helpers.de_generation``,
    fed the same draws as ``de.optimize``, one draw per generation from
    ``rng`` (by default a new generator at the config's seed)."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    population = initial_positions(problem, config.population_size, rng)
    objectives = plain_terms(problem, population)[3]
    states = [population]
    for _ in range(config.iterations):
        uniforms = rng.random((config.population_size, 5 + 24))
        population, objectives = de_generation(problem, population, objectives, uniforms, config)
        states.append(population)
    return states


class TestInPlaceGeneration:
    """The in-place generation gives the allocating reference's bits at
    every generation, signed zeros included, on boxes with zero-width
    hours too."""

    @pytest.fixture
    def problems(self, capped_problem):
        rng = np.random.default_rng(99)
        two_free = np.zeros(24)
        two_free[:2] = 10.0
        return [
            dataclasses.replace(capped_problem, w1=0.8, w2=0.2),
            make_problem(rng.uniform(50, 150, size=24), rng.uniform(3, 12, size=24), 0.3, 0.7),
            make_problem(two_free, rng.uniform(3, 12, size=24), 0.8, 0.2),
            flat_problem(1.0, 0.0),
        ]

    @pytest.mark.parametrize("size,seed", [(12, 0), (12, 1), (12, 2), (4, 3)])
    def test_every_population_matches_the_allocating_generation(self, problems, size, seed):
        config = de.DeConfig(population_size=size, iterations=40, seed=seed)
        for problem in problems:
            seen = []
            de.optimize(problem, config, on_iteration=lambda _, population: seen.append(population.tobytes()))
            assert seen == [state.tobytes() for state in reference_states(problem, config)]

    @pytest.mark.parametrize("per_block,size,iterations", [
        (1, 12, 40),       # one generation per block
        (7, 12, 40),       # five blocks of 7, then a ragged block of 5
        (None, 50, 100),   # the real cap: blocks of 11, the last of 1
    ])
    def test_block_boundaries_keep_every_population_and_the_stream(
            self, problems, monkeypatch, per_block, size, iterations):
        if per_block is not None:
            monkeypatch.setattr(common, "BLOCK_VALUES", per_block * size * (5 + 24))
        config = de.DeConfig(population_size=size, iterations=iterations, seed=5)
        assert common.block_length(iterations, size * (5 + 24)) < iterations   # more than one block
        generators = []
        result = common.Search.result
        monkeypatch.setattr(common.Search, "result",
                            lambda search: (generators.append(search.rng), result(search))[1])
        for problem in problems:
            seen = []
            de.optimize(problem, config, on_iteration=lambda _, population: seen.append(population.tobytes()))
            rng = np.random.default_rng(config.seed)
            assert seen == [state.tobytes() for state in reference_states(problem, config, rng)]
            # the run drew no uniform past its last generation
            assert generators[-1].random() == rng.random()


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


class TestGoldenRuns:
    """Default-budget runs pinned to the last bit, on the problems of the
    swarm's golden runs: the capped fixture and a random uncapped day, both
    at the cost-heavy weights (0.8, 0.2), where every run improves 35-52
    times.  Recorded with one (n, 5 + 24) uniform draw per generation and
    the O(n) parent draw; drawing the uniforms of several generations at
    once reads the stream in the same order, and moved nothing.  Any
    change in the draw order or in the floating-point expression of a
    generation shows here.  Two objectives
    moved by one ulp when a result came to take its scores from its last
    trace point; no trace or schedule hash moved.  Every trace hash moved
    when a row's cost came to be scored as ``np.dot`` scores it alone, in
    any batch; no schedule hash moved."""

    GOLDEN = {
        ("capped", 0): ("0.5736566288833828",
                        "568793496dd5fba28bab35862c481af5e6851cfb988abafa3315cc3d5c174530",
                        "6d96be6f0d028846a9bc592fb6ef356aa4fac8cb999b5d470d1cb28513a79d3a"),
        ("capped", 1): ("0.5735330744791283",
                        "e3ff3d101f515056fd2014ad6e3a87c5636bf1b504bc332d4969dbca00f73c26",
                        "4bb5e728569813b59a6615c01a159f147f86127eafa2e8d3289c063ca7310f36"),
        ("capped", 2): ("0.5736266941585357",
                        "55d783edb30ff9f2701aa04c2dbcb21d7ce4b6a0c0c40a5078997de738a57fa5",
                        "1cb6c9f48143a16cfbd906338e9b5a4859b8c28497017fccf17fe61403ea6e13"),
        ("uncapped", 0): ("0.4555601498648917",
                          "6a8301307ab313ed79119e45c921394f86991c55f04111d36af8872cfa35fb87",
                          "328f3609a4783c44006c142825bfc558b82e74011bfd3f41e2d6afb852a64b37"),
        ("uncapped", 1): ("0.4550432543060445",
                          "f51a37aa94da09856515d5d9915a0f3e93ce3434cd8ca115615afdcce9d091d8",
                          "c7061cdd54f79c90fe7bab16e0bbe7f2bd6c332a654bfe34a13239040b93ce3b"),
        ("uncapped", 2): ("0.45564067311041523",
                          "030514146ae2d7e283999c3970693da29f39fd5791e37e688bbf838f19c26789",
                          "8ae5b6469ba55c8f24c817c58f739f3f7e4f92c2ae02fc5d4cbc454044358bab"),
    }

    @pytest.fixture
    def problems(self, capped_problem):
        rng = np.random.default_rng(2718)
        uncapped = make_problem(rng.uniform(50, 150, size=24),
                                rng.uniform(3, 12, size=24), 0.8, 0.2)
        return {
            "capped": dataclasses.replace(capped_problem, w1=0.8, w2=0.2),
            "uncapped": uncapped,
        }

    @pytest.mark.parametrize("name,seed", sorted(GOLDEN))
    def test_run_is_bit_identical(self, problems, name, seed):
        result = de.optimize(problems[name], de.DeConfig(seed=seed))
        objective, trace_hash, schedule_hash = self.GOLDEN[name, seed]
        assert repr(result.objective) == objective
        assert sha256([t.objective for t in result.trace]) == trace_hash
        assert sha256(result.best_schedule.values) == schedule_hash
