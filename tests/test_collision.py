from collections import Counter
from fractions import Fraction
from itertools import combinations

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
from ihse.collision import first_contacts, scan_errstate
from ihse.core import pair_indices, squared_separations
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


def _exact_closest(x, v, span):
    """Minimum over the pairs of one state and over t in [0, span] of the
    squared gap |r + t w|^2 - 1, in rationals from the float inputs."""
    values = []
    for i, j in combinations(range(len(x)), 2):
        r = [Fraction(p) - Fraction(q) for p, q in zip(x[i], x[j])]
        w = [Fraction(p) - Fraction(q) for p, q in zip(v[i], v[j])]
        a, b, c = sum(e * e for e in w), sum(e * f for e, f in zip(r, w)), sum(e * e for e in r) - 1
        t = 0 if a == 0 else min(max(-b / a, Fraction(0)), span)
        values.append(c + t * (2 * b + t * a))
    return min(values)


# How pair (1, 2) of a state of the closest-approach test moves: random,
# parallel (w = 0), receding (closest approach already past) or approaching.
PAIR_KINDS = ("free", "parallel", "receding", "approaching")


class TestClosestApproach:
    def test_graze_and_rearmed_contact_are_seen(self):
        # a graze touches at t=3 with no contact time; a pair at contact,
        # masked as the pair scattered last, touches at t=0
        graze, rearmed = two_body((3, 1)), Configuration([[0, 0], [1, 0]], [[-1, 0], [1, 0]])
        with scan_errstate():
            assert first_contacts(graze.positions, graze.velocities, 5.0)[4] == 0.0
            assert first_contacts(graze.positions, graze.velocities, 2.0)[4] == 1.0
            closest = first_contacts(rearmed.positions, rearmed.velocities, 5.0, recent=0)[4]
        assert closest == 0.0

    @given(
        n=st.integers(2, 4),
        d=st.sampled_from((2, 3)),
        kinds=st.lists(st.sampled_from(PAIR_KINDS), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_closest_is_the_exact_minimum_gap(self, n, d, kinds, seed):
        # closest is the exact minimum over [0, min(contact, horizon)] to a
        # few ulps of the largest |r|^2 (at least 1) of its state
        gen = np.random.default_rng(seed)
        x = gen.uniform(-3.0, 3.0, (len(kinds), n, d))
        v = gen.standard_normal((len(kinds), n, d))
        for row, kind in enumerate(kinds):
            if kind == "parallel":
                v[row, 1] = v[row, 0]
            elif kind != "free" and (kind == "receding") != ((x[row, 0] - x[row, 1]) @ (v[row, 0] - v[row, 1]) > 0):
                v[row, 1] = 2.0 * v[row, 0] - v[row, 1]  # reverses w
        horizon = gen.uniform(0.01, 10.0, len(kinds))
        with scan_errstate():
            time, _, _, _, closest = first_contacts(x, v, horizon)
        for row in range(len(kinds)):
            span = Fraction(min(float(time[row]), float(horizon[row])))
            exact = _exact_closest(x[row].tolist(), v[row].tolist(), span)
            scale = max(1.0, float(squared_separations(x[row]).max()))
            assert abs(Fraction(float(closest[row])) - exact) <= 4 * np.finfo(float).eps * scale


def test_one_state_scan_is_row_zero_of_its_stack():
    # first_contacts reduces one state on Python numbers and a stack on
    # arrays: the one state must get its row's bits in all five outputs,
    # from no pair (n = 1) and one pair (n = 2) up, with the re-armed pair
    # given to the stack per row and as one int
    seen = Counter()

    @given(
        n=st.integers(1, 5),
        d=st.sampled_from((2, 3)),
        recent=st.sampled_from(("none", "random", "at contact")),
        horizon=st.floats(-9.0, 1.0).map(lambda e: 10.0**e),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def check(n, d, recent, horizon, wide, seed):
        gen = np.random.default_rng(seed)
        x, v = gen.uniform(-2.0, 2.0, (n, d)), gen.standard_normal((n, d))
        tol = Tolerances(grazing_tol=0.5, simultaneity_tol=0.5) if wide else Tolerances()
        pairs = n * (n - 1) // 2
        position = int(gen.integers(pairs)) if recent != "none" and pairs else -1
        if recent == "at contact" and position >= 0:  # as a scatter leaves it: one diameter apart
            i, j = (int(index[position]) for index in pair_indices(n))
            u = gen.standard_normal(d)
            x[j] = x[i] - u / np.linalg.norm(u)
        with scan_errstate():
            one = first_contacts(x, v, horizon, tol=tol, recent=position)
            rows = [
                first_contacts(x[None], v[None], np.array([horizon]), tol=tol, recent=recents)
                for recents in (np.array([position]), position)
            ]
            rearmed = one[0] != first_contacts(x, v, horizon, tol=tol)[0]
        assert [type(value) for value in one] == [float, int, bool, float, float]
        bits = np.array(one, dtype=float).tobytes()
        for row in rows:
            assert np.array([value[0] for value in row], dtype=float).tobytes() == bits
        time, _, unique, graze, _ = one
        seen.update(
            {
                "no pair": pairs == 0,
                "one pair": pairs == 1,
                "contact": time <= horizon,
                "not unique": time < np.inf and not unique,
                "graze": graze < np.inf,
                "re-armed": rearmed,
            }
        )

    check()
    assert all(seen[key] for key in ("no pair", "one pair", "contact", "not unique", "graze", "re-armed")), seen


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
