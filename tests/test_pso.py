"""Particle swarm: update rules, invariants, and convergence checks."""

import dataclasses
import hashlib

import numpy as np
import pytest
from helpers import corner_optimum, initial_positions, plain_terms, search_box

from loadshift import common, pso
from loadshift.errors import InvalidOptimizerConfig
from loadshift.objective import build_problem, evaluate_batch
from loadshift.profiles import load_profile, price_profile


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
        config = pso.PsoConfig()
        assert config.swarm_size == 50
        assert config.iterations == 100
        assert config.v_max_fraction == 0.10

    @pytest.mark.parametrize("kwargs", [
        {"swarm_size": 1},
        {"iterations": 0},
        {"v_max_fraction": 0.0},
        {"v_max_fraction": -0.1},
    ])
    def test_bad_values_rejected(self, kwargs):
        # the coefficients are class constants, not constructor arguments
        error = (InvalidOptimizerConfig if kwargs.keys() <= {"swarm_size", "iterations"}
                 else TypeError)
        with pytest.raises(error):
            pso.PsoConfig(**kwargs)


class TestVelocityUpdate:
    def swarm_at(self, position, velocity=None, best=None):
        """A swarm whose velocity limits ``update`` sets from its box; the
        velocity step reads no clamp mask."""
        position = np.atleast_2d(np.asarray(position, dtype=float))
        if velocity is None:
            velocity = np.zeros_like(position)
        if best is None:
            best = position.copy()
        return pso.Swarm(
            positions=position,
            velocities=np.atleast_2d(np.asarray(velocity, dtype=float)),
            best_positions=np.atleast_2d(np.asarray(best, dtype=float)),
            best_objectives=np.zeros(len(position)),
            v_max=None,
            neg_v_max=None,
            clamped=None,
        )

    def update(self, swarm, gbest, lower, upper, uniforms):
        """One velocity update with the (n, 2, dims) ``uniforms`` as the
        iteration's slice of a block, doubled as ``optimize`` doubles it,
        and the velocity limits ``optimize`` derives from the box;
        returns the velocities."""
        box = search_box(len(swarm.positions), lower, upper)
        swarm.v_max = pso.PsoConfig.v_max_fraction * (box.upper - box.lower)
        swarm.neg_v_max = -swarm.v_max
        velocities = swarm.velocities
        factors = 2.0 * np.asarray(uniforms, dtype=float)
        pso.velocity_update(swarm, np.asarray(gbest, dtype=float), factors, box.scratch)
        assert swarm.velocities is velocities   # moved in place
        return swarm.velocities

    # the coefficients are fixed at inertia 1, pulls 2 and 2, and a clamp of
    # 0.1 box widths: a zero factor silences a pull, and the boxes below are
    # wide enough that the clamp only binds where a test says so

    def test_pure_inertia_when_accelerations_are_zero(self):
        swarm = self.swarm_at([2.0, 3.0], velocity=[0.4, -0.2], best=[9.0, 9.0])
        v = self.update(swarm, [7.0, 7.0], np.zeros(2), np.full(2, 10.0), np.zeros((1, 2, 2)))
        np.testing.assert_array_equal(v, [[0.4, -0.2]])

    def test_at_both_bests_only_inertia_remains(self):
        x = np.array([4.0, 5.0])
        swarm = self.swarm_at(x, velocity=[0.3, 0.3], best=x.copy())
        v = self.update(swarm, x.copy(), np.zeros(2), np.full(2, 10.0), np.ones((1, 2, 2)))
        np.testing.assert_array_equal(v, [[0.3, 0.3]])

    def test_first_draw_scales_the_personal_pull(self):
        # r1 = 1 on the personal term, r2 = 0 kills the social term; a
        # swapped implementation would chase gbest at 99 instead
        swarm = self.swarm_at([0.0], best=[0.5])
        v = self.update(swarm, [99.0], np.zeros(1), np.full(1, 100.0), [[[1.0], [0.0]]])
        np.testing.assert_array_equal(v, [[1.0]])

    def test_clamped_to_box_fraction(self):
        # raw velocity 2 * 1 * (1 - 0) = 2, box width 1, fraction 0.1
        swarm = self.swarm_at([0.0])
        v = self.update(swarm, [1.0], np.zeros(1), np.ones(1), [[[0.0], [1.0]]])
        np.testing.assert_array_equal(v, [[0.1]])

    def test_clamped_from_below_too(self):
        swarm = self.swarm_at([1.0])
        v = self.update(swarm, [0.0], np.zeros(1), np.ones(1), [[[0.0], [1.0]]])
        np.testing.assert_array_equal(v, [[-0.1]])

    def test_draws_two_per_dimension_batches(self):
        # one (n, 2, dims) slice per iteration, laid out particle by
        # particle, personal factors before social ones; slice j of a block
        # drawn at once is the j-th of one draw per iteration
        block = np.random.default_rng(7).random((4, 3, 2, 24))
        rng = np.random.default_rng(7)
        for uniforms in block:
            np.testing.assert_array_equal(uniforms, rng.random((3, 2, 24)))
        # a unit personal gap and no social one: the velocity is the
        # personal factor, 2 r1; then the reverse gives 2 r2
        for j, (best, gbest) in enumerate([(np.ones((3, 24)), np.zeros(24)),
                                           (np.zeros((3, 24)), np.ones(24))]):
            swarm = self.swarm_at(np.zeros((3, 24)), best=best)
            v = self.update(swarm, gbest, np.zeros(24), np.full(24, 100.0), block[2])
            np.testing.assert_array_equal(v, 2.0 * block[2][:, j])

    def test_rows_move_independently(self):
        # each row follows its own best and its own factors
        swarm = self.swarm_at([[0.0], [0.0]], best=[[1.0], [3.0]])
        v = self.update(swarm, [0.0], np.zeros(1), np.full(1, 100.0),
                        [[[0.5], [0.0]], [[0.25], [0.0]]])
        np.testing.assert_array_equal(v, [[1.0], [1.5]])


def step(positions, velocities, lower, upper):
    """One in-place position update of a swarm at ``positions``; returns
    the positions and velocities, shaped like the inputs."""
    shape = np.shape(positions)
    positions = np.atleast_2d(np.array(positions, dtype=float))
    velocities = np.atleast_2d(np.array(velocities, dtype=float))
    # the position step reads no velocity limit
    swarm = pso.Swarm(positions, velocities, positions.copy(), np.zeros(len(positions)),
                      None, None, np.empty(positions.shape, dtype=bool))
    pso.position_update(swarm, search_box(len(positions), lower, upper))
    assert swarm.positions is positions and swarm.velocities is velocities
    return positions.reshape(shape), velocities.reshape(shape)


class TestPositionUpdate:
    def test_zero_velocity_is_a_fixed_point(self):
        x = np.array([1.0, 2.0, 3.0])
        moved, v = step(x, np.zeros(3), np.zeros(3), np.full(3, 10.0))
        np.testing.assert_array_equal(moved, x)
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_free_move_keeps_velocity(self):
        moved, v = step([1.0, 2.0], [0.5, -0.5], np.zeros(2), np.full(2, 10.0))
        np.testing.assert_array_equal(moved, [1.5, 1.5])
        np.testing.assert_array_equal(v, [0.5, -0.5])

    def test_upper_overshoot_clamps_and_zeroes(self):
        moved, v = step([9.0], [5.0], np.zeros(1), np.array([10.0]))
        np.testing.assert_array_equal(moved, [10.0])
        np.testing.assert_array_equal(v, [0.0])

    def test_lower_overshoot_clamps_and_zeroes(self):
        moved, v = step([1.0], [-5.0], np.zeros(1), np.array([10.0]))
        np.testing.assert_array_equal(moved, [0.0])
        np.testing.assert_array_equal(v, [0.0])

    def test_landing_on_a_wall_keeps_the_velocity(self):
        # clamping changes nothing, so the particle was not pushed back
        moved, v = step([9.0], [1.0], np.zeros(1), np.array([10.0]))
        np.testing.assert_array_equal(moved, [10.0])
        np.testing.assert_array_equal(v, [1.0])

    def test_mixed_components_zero_only_the_clamped_ones(self):
        moved, v = step([9.0, 5.0], [5.0, 1.0], np.zeros(2), np.full(2, 10.0))
        np.testing.assert_array_equal(moved, [10.0, 6.0])
        np.testing.assert_array_equal(v, [0.0, 1.0])

    def test_whole_swarm_clamps_per_row_and_column(self):
        moved, v = step([[9.0, 5.0], [1.0, 5.0]], [[5.0, 1.0], [-5.0, 9.0]],
                        np.zeros(2), np.array([10.0, 12.0]))
        np.testing.assert_array_equal(moved, [[10.0, 6.0], [0.0, 12.0]])
        np.testing.assert_array_equal(v, [[0.0, 1.0], [0.0, 0.0]])


class TestOptimize:
    def test_degenerate_box_returns_predicted(self):
        problem = flat_problem(gamma_lo=1.0, gamma_hi=1.0)
        result = pso.optimize(problem, pso.PsoConfig(swarm_size=8, iterations=5))
        np.testing.assert_array_equal(result.best_schedule.values,
                                      problem.predicted.values)
        objectives = [t.objective for t in result.trace]
        assert objectives == [objectives[0]] * len(objectives)

    def test_seeded_particle_bounds_the_final_objective(self):
        problem = flat_problem(0.4, 0.6)
        result = pso.optimize(problem, pso.PsoConfig(swarm_size=20, iterations=30))
        start = evaluate_batch(problem, problem.predicted.values[None])[3, 0]
        assert result.objective <= start

    def test_same_seed_reproduces_everything(self):
        problem = flat_problem(0.4, 0.6)
        config = pso.PsoConfig(swarm_size=15, iterations=25, seed=123)
        a = pso.optimize(problem, config)
        b = pso.optimize(problem, config)
        np.testing.assert_array_equal(a.best_schedule.values, b.best_schedule.values)
        assert a.trace == b.trace
        assert a.objective == b.objective

    def test_different_seeds_diverge(self):
        # cost-only weighting: the cheapest random particle beats the
        # seeded one at startup, so even trace[0] depends on the seed
        problem = flat_problem(1.0, 0.0)
        a = pso.optimize(problem, pso.PsoConfig(swarm_size=15, iterations=25, seed=1))
        b = pso.optimize(problem, pso.PsoConfig(swarm_size=15, iterations=25, seed=2))
        assert a.trace != b.trace
        assert a.trace[0].objective != b.trace[0].objective

    def test_trace_shape_and_monotonicity(self):
        problem = flat_problem(0.4, 0.6)
        result = pso.optimize(problem, pso.PsoConfig(swarm_size=12, iterations=40))
        assert len(result.trace) == 41
        objectives = np.array([t.objective for t in result.trace])
        assert np.all(np.diff(objectives) <= 0)
        assert result.trace[-1].objective == result.objective

    def test_result_is_self_consistent(self):
        rng = np.random.default_rng(5)
        problem = make_problem(rng.uniform(50, 150, size=24),
                               rng.uniform(3, 12, size=24), 0.4, 0.6)
        config = pso.PsoConfig(swarm_size=20, iterations=30, seed=9)
        result = pso.optimize(problem, config)
        best = result.trace[-1]
        assert (result.objective, result.cost_cents, result.load_shift_kwh, result.violation) == (
            best.objective, best.cost_cents, best.load_shift_kwh, best.violation)
        cost, _, _, objective = evaluate_batch(problem, result.best_schedule.values[None])[:, 0]
        assert result.objective == pytest.approx(objective, rel=1e-12)
        assert result.cost_cents == pytest.approx(cost, rel=1e-12)
        assert result.peak_before_kw == float(np.max(problem.predicted.values))
        assert result.peak_after_kw == float(np.max(result.best_schedule.values))
        assert result.rng_seed == 9
        assert np.all(result.best_schedule.values >= problem.lower_bounds)
        assert np.all(result.best_schedule.values <= problem.upper_bounds)

    def test_swarm_invariants_hold_every_iteration(self):
        problem = flat_problem(0.4, 0.6)
        config = pso.PsoConfig(swarm_size=10, iterations=20, seed=3)
        v_max = config.v_max_fraction * (problem.upper_bounds - problem.lower_bounds)
        seen = []

        def audit(iteration, swarm):
            assert len(swarm.positions) == config.swarm_size
            assert len(swarm.velocities) == config.swarm_size
            assert np.all(swarm.positions >= problem.lower_bounds)
            assert np.all(swarm.positions <= problem.upper_bounds)
            assert np.all(np.abs(swarm.velocities) <= v_max)
            seen.append(iteration)

        pso.optimize(problem, config, on_iteration=audit)
        assert seen == list(range(config.iterations + 1))

    def test_callback_sees_one_swarm_changed_in_place(self):
        # the state is moved in place, so a callback that keeps anything
        # must copy it: a kept reference reads the latest iteration
        problem = flat_problem(0.7, 0.3)
        kept = []

        def keep(iteration, swarm):
            kept.append((swarm, swarm.positions, swarm.positions.copy()))

        pso.optimize(problem, pso.PsoConfig(swarm_size=6, iterations=3, seed=1),
                     on_iteration=keep)
        first_swarm, first_positions, first_copy = kept[0]
        assert all(s is first_swarm and p is first_positions for s, p, _ in kept)
        assert not np.array_equal(first_copy, kept[-1][2])
        np.testing.assert_array_equal(first_positions, kept[-1][2])

    def test_cost_only_run_parks_on_the_cheap_corner(self):
        # with w2 = 0 every hour wants its lower bound; wall clamping
        # lands there exactly and the ratio of bounds fixes the score
        problem = flat_problem(1.0, 0.0)
        result = pso.optimize(problem, pso.PsoConfig(seed=0))
        np.testing.assert_array_equal(result.best_schedule.values,
                                      problem.lower_bounds)
        assert result.objective == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_matches_corner_oracle_on_two_free_hours(self):
        predicted = np.zeros(24)
        predicted[:2] = 10.0
        prices = np.full(24, 10.0)
        prices[0] = 20.0
        prices[1] = 5.0
        problem = make_problem(predicted, prices, 0.8, 0.2)
        schedule, best = corner_optimum(problem)
        result = pso.optimize(problem, pso.PsoConfig(seed=4))
        # the optimum keeps one hour strictly inside the box, which the
        # swarm only approaches, so the gap closes but never hits zero
        assert result.objective >= best - 1e-12
        assert result.objective == pytest.approx(best, abs=1e-4)


def reference_states(problem, config, rng=None):
    """The swarm's rules as allocating expressions, as first written with
    np.clip and boolean indexing: a copy of the state after every iteration.
    Draws one iteration at a time from ``rng`` (by default a new generator
    at the config's seed)."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    lower, upper = problem.lower_bounds, problem.upper_bounds
    x = initial_positions(problem, config.swarm_size, rng)
    v_max = config.v_max_fraction * (upper - lower)
    v = rng.uniform(-v_max, v_max, size=x.shape)
    obj = plain_terms(problem, x)[3]
    pbest, pbest_obj = x.copy(), obj.copy()
    g = int(np.argmin(obj))
    gbest, gbest_obj = x[g].copy(), obj[g]
    states = [(x.copy(), v.copy(), pbest.copy(), pbest_obj.copy())]
    for _ in range(config.iterations):
        r = rng.uniform(size=(len(x), 2, x.shape[1]))
        v = np.clip(v + 2.0 * r[:, 0] * (pbest - x) + 2.0 * r[:, 1] * (gbest - x), -v_max, v_max)
        moved = x + v
        x = np.clip(moved, lower, upper)
        v = np.where(x == moved, v, 0.0)
        obj = plain_terms(problem, x)[3]
        improved = obj < pbest_obj
        pbest[improved] = x[improved]
        pbest_obj[improved] = obj[improved]
        g = int(np.argmin(obj))
        if obj[g] < gbest_obj:
            gbest, gbest_obj = x[g].copy(), obj[g]
        states.append((x.copy(), v.copy(), pbest.copy(), pbest_obj.copy()))
    return states


class TestInPlaceSteps:
    """The in-place steps give the allocating rules' bits at every iteration,
    signed zeros included, on boxes with zero-width hours too."""

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_state_matches_the_allocating_rules(self, problems, seed):
        config = pso.PsoConfig(swarm_size=12, iterations=40, seed=seed)
        for problem in problems:
            seen = []

            def keep(iteration, swarm):
                seen.append(tuple(a.tobytes() for a in (
                    swarm.positions, swarm.velocities,
                    swarm.best_positions, swarm.best_objectives)))

            pso.optimize(problem, config, on_iteration=keep)
            expected = [tuple(a.tobytes() for a in state)
                        for state in reference_states(problem, config)]
            assert seen == expected

    @pytest.mark.parametrize("per_block,size,iterations", [
        (1, 12, 40),       # one iteration per block
        (7, 12, 40),       # five blocks of 7, then a ragged block of 5
        (None, 50, 100),   # the real cap: blocks of 6, the last of 4
    ])
    def test_block_boundaries_keep_every_state_and_the_stream(
            self, problems, monkeypatch, per_block, size, iterations):
        if per_block is not None:
            monkeypatch.setattr(common, "BLOCK_VALUES", per_block * size * 2 * 24)
        config = pso.PsoConfig(swarm_size=size, iterations=iterations, seed=5)
        assert common.block_length(iterations, size * 2 * 24) < iterations   # more than one block
        generators = []
        result = common.Search.result
        monkeypatch.setattr(common.Search, "result",
                            lambda search: (generators.append(search.rng), result(search))[1])
        for problem in problems:
            seen = []

            def keep(iteration, swarm):
                seen.append(tuple(a.tobytes() for a in (
                    swarm.positions, swarm.velocities,
                    swarm.best_positions, swarm.best_objectives)))

            pso.optimize(problem, config, on_iteration=keep)
            rng = np.random.default_rng(config.seed)
            expected = [tuple(a.tobytes() for a in state)
                        for state in reference_states(problem, config, rng)]
            assert seen == expected
            # the run drew no uniform past its last iteration
            assert generators[-1].random() == rng.random()


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


class TestGoldenRuns:
    """Default-budget runs pinned to the last bit.

    The values were recorded from the per-particle implementation that
    the whole-swarm update replaced; drawing the factors of several
    iterations at once reads the stream in the same order, and moved
    nothing.  Any change in the draw order or in the floating-point
    expression of an update shows here.  At the
    capped fixture's own weights (0.4, 0.6) the clamped predicted profile
    is already optimal and the trace never moves, so both problems use
    the cost-heavy pair (0.8, 0.2), where every run improves 25-41 times.
    Four objectives moved by one ulp when a result came to take its scores
    from its last trace point instead of a second, single-row evaluation;
    no trace or schedule hash moved.  Every trace hash and one schedule
    hash moved when a row's cost came to be scored as ``np.dot`` scores it
    alone, in any batch.
    """

    GOLDEN = {
        ("capped", 0): ("0.573451121390998",
                        "644c2dc626d23571f3cad59623501215cc8595a0dce21263b46161bbe7ded731",
                        "298946a35d721b795879ba5f18574dd9f4a01c2069e051ecd2a59925b1df9c0b"),
        ("capped", 1): ("0.573451121390998",
                        "0646b2023792476a5a1e0813413118c0741acfc9a22d868797205f406e07989f",
                        "135379c14f3c5f2a01892cd9fce82f75ea5088bfa5ad27fa6ad6f85a0270d14a"),
        ("capped", 2): ("0.5799354900393787",
                        "a0185bfa6cf1bf2b1ca10cee2e32424ca72f74396c953b69f651fd32d3df46cb",
                        "ddc03c94064bd224d4c3165928e0b4e08dcae46bb0c8100459c5d0c22596a123"),
        ("uncapped", 0): ("0.45525527177264435",
                          "29716ee12d4aac63c1df2319d63a1d57c226a9dae5cc6f9565761dc6c6890aed",
                          "3f6e73db8bab212672e013b0221215abb2bbdcf7d367c709667b50fe9d178bec"),
        ("uncapped", 1): ("0.456089487838462",
                          "31fa541fa4a8d599dd8c3ab4cbc4a61a48c2a1731a1872f30ef3a68d2539ea79",
                          "2dde656a9b01cec2bf2777c7479554ab0c994a85a78d1eafa5601511254def3b"),
        ("uncapped", 2): ("0.4551621829604981",
                          "1d6fae93ab9ed2d5d40781cd87499f1717ee9915d519ad988c28867d13d00f9f",
                          "83996923fc8f3beddfb993ef5daf53b5342386236e3aa328dbd453e961044d11"),
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
        result = pso.optimize(problems[name], pso.PsoConfig(seed=seed))
        objective, trace_hash, schedule_hash = self.GOLDEN[name, seed]
        assert repr(result.objective) == objective
        assert sha256([t.objective for t in result.trace]) == trace_hash
        assert sha256(result.best_schedule.values) == schedule_hash
