import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import (
    Configuration,
    GrazingCollisionError,
    NoCollisionError,
    PairIndex,
    Tolerances,
    collision_time_gradients,
    first_collision,
    free_transport,
    predict_pair,
)
from ihse.rng import sample_generator

from conftest import assert_close

P12 = PairIndex(1, 2)


def two_body(x2, v1=(1.0, 0.0), v2=(0.0, 0.0)):
    return Configuration([[0.0, 0.0], list(x2)], [list(v1), list(v2)])


class TestDiscriminant:
    def test_transversal(self):
        assert predict_pair(two_body((3, 0)), P12).discriminant == pytest.approx(1.0, abs=0)

    def test_grazing(self):
        assert predict_pair(two_body((3, 1)), P12).discriminant == pytest.approx(0.0, abs=0)

    def test_miss(self):
        assert predict_pair(two_body((3, 2)), P12).discriminant == pytest.approx(-3.0, abs=0)


class TestPairCollisionTime:
    def test_head_on(self):
        assert predict_pair(two_body((3, 0)), P12).time == pytest.approx(2.0, abs=1e-14)

    def test_receding(self):
        assert predict_pair(two_body((3, 0), v1=(-1, 0)), P12).time is None

    def test_equal_velocities(self):
        assert predict_pair(two_body((3, 0), v1=(0.5, 0), v2=(0.5, 0)), P12).time is None

    def test_grazing_is_absent_and_flagged(self):
        pred = predict_pair(two_body((3, 1)), P12)
        assert pred.time is None and pred.grazing

    def test_contact_separation_at_root(self):
        # transported separation at the returned time equals 1
        gen = sample_generator(3, 0)
        checked = 0
        while checked < 200:
            x2 = gen.uniform(1.2, 4.0, 2)
            v1 = gen.uniform(-2, 2, 2)
            v2 = gen.uniform(-2, 2, 2)
            cfg = two_body(x2, v1, v2)
            tau = predict_pair(cfg, P12).time
            if tau is None:
                continue
            moved = free_transport(cfg, tau)
            assert abs(float(np.linalg.norm(moved.pair_state(P12)[0])) - 1.0) <= 1e-9
            checked += 1

    @given(
        shift=st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        boost=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_and_boost_invariance(self, shift, boost):
        cfg = two_body((3, 0.2))
        tau = predict_pair(cfg, P12).time
        shifted = Configuration(cfg.positions + np.asarray(shift), cfg.velocities)
        boosted = Configuration(cfg.positions, cfg.velocities + np.asarray(boost))
        assert predict_pair(shifted, P12).time == pytest.approx(tau, rel=1e-12)
        assert predict_pair(boosted, P12).time == pytest.approx(tau, rel=1e-12)


class TestFirstCollision:
    def test_single_pair(self):
        fc = first_collision(two_body((3, 0)), horizon=3.0)
        assert fc.pair == P12 and fc.unique
        assert fc.time == pytest.approx(2.0, abs=1e-14)

    def test_beyond_horizon(self):
        assert first_collision(two_body((3, 0)), horizon=1.0) is None

    def test_mirror_pairs_not_unique(self):
        cfg = Configuration(
            [[0, 0], [3, 0], [0, 10], [3, 10]],
            [[1, 0], [0, 0], [1, 0], [0, 0]],
        )
        fc = first_collision(cfg, horizon=3.0)
        assert fc is not None and not fc.unique
        assert fc.pair == P12  # lexicographic winner reported

    def test_rearm_skips_departing_contact(self):
        # pair exactly at contact and receding: no event reported
        cfg = Configuration([[0, 0], [1, 0]], [[-1, 0], [1, 0]])
        assert first_collision(cfg, horizon=5.0, recent_pair=P12) is None

    def test_graze_reported_in_the_same_scan(self):
        fc = first_collision(two_body((3, 1)), horizon=5.0)
        assert (fc.time, fc.pair, fc.graze) == (None, None, 3.0)
        assert first_collision(two_body((3, 1)), horizon=2.0) is None

    @pytest.mark.parametrize("simultaneity_tol,unique", [(6e-11, False), (4e-11, True)])
    def test_simultaneity_rule_reaches_past_the_horizon(self, simultaneity_tol, unique):
        # pair (1,2) meets at t=1 and pair (3,4) about 5e-11 later, past the
        # horizon: the later contact still decides uniqueness
        cfg = Configuration(
            [[0, 0], [3, 0], [0, 10], [3 + 1e-10, 10]],
            [[1, 0], [-1, 0], [1, 0], [-1, 0]],
        )
        fc = first_collision(cfg, horizon=1.0 + 2e-11, tol=Tolerances(simultaneity_tol=simultaneity_tol))
        assert fc.pair == P12 and fc.time == pytest.approx(1.0, abs=1e-15)
        assert fc.unique is unique


class TestGradients:
    def test_hand_values(self, head_on):
        grad_x, grad_v = collision_time_gradients(head_on, P12)
        assert_close(grad_x, [-1, 0, 1, 0], 1e-12, "grad_x")
        assert_close(grad_v, [-2, 0, 2, 0], 1e-12, "grad_v")

    def test_uninvolved_particle_zero(self):
        cfg = Configuration([[0, 0], [3, 0], [0, 5]], [[1, 0], [0, 0], [0.1, 0.1]])
        grad_x, grad_v = collision_time_gradients(cfg, P12)
        assert_close(grad_x[4:], [0, 0], 0, "third particle grad_x")
        assert_close(grad_v[4:], [0, 0], 0, "third particle grad_v")

    def test_velocity_gradient_is_scaled_position_gradient(self):
        gen = sample_generator(5, 1)
        checked = 0
        while checked < 50:
            cfg = Configuration(gen.uniform(-3, 3, (2, 2)) * [[1], [2]] + [[0, 0], [4, 0]], gen.uniform(-2, 2, (2, 2)))
            pred = predict_pair(cfg, P12)
            if pred.time is None or pred.discriminant <= 0.1:
                continue
            grad_x, grad_v = collision_time_gradients(cfg, P12)
            assert_close(grad_v, pred.time * grad_x, 1e-14, "ratio identity")
            checked += 1

    def test_gradients_match_finite_differences(self):
        gen = sample_generator(6, 2)
        h = 1e-6
        checked = 0
        while checked < 60:
            x2 = gen.uniform(1.5, 4.0, 2)
            cfg = two_body(x2, gen.uniform(-2, 2, 2), gen.uniform(-2, 2, 2))
            pred = predict_pair(cfg, P12)
            if pred.time is None or pred.discriminant <= 0.1:
                continue
            grad_x, grad_v = collision_time_gradients(cfg, P12)
            z = cfg.to_vector()
            fd = np.zeros(8)
            for k in range(8):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                tp = predict_pair(Configuration.from_vector(zp, 2, 2), P12).time
                tm = predict_pair(Configuration.from_vector(zm, 2, 2), P12).time
                fd[k] = (tp - tm) / (2 * h)
            analytic = np.concatenate([grad_x, grad_v])
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(fd - analytic).max() <= 1e-6 * scale
            checked += 1

    def test_errors(self):
        with pytest.raises(GrazingCollisionError):
            collision_time_gradients(two_body((3, 1)), P12)
        with pytest.raises(NoCollisionError):
            collision_time_gradients(two_body((3, 0), v1=(-1, 0)), P12)
