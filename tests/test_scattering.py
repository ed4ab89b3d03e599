import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import (
    BelowThresholdError,
    CollisionKind,
    CriticalEnergyError,
    ModelParams,
    NotPreCollisionalError,
    ZeroRelativeVelocityError,
    elastic_reflection,
    inelastic_emission,
    scatter,
)
from ihse.jacobian_lab import draw_scattering_sample
from ihse.rng import sample_generator
from ihse.core import Tolerances
from ihse.scattering import SCATTER_CHECKS, collide

from conftest import assert_close
from oracles import (
    RadialCoordinates,
    cartesian_to_spherical,
    emission_map_cartesian_3d,
    radial_emission_map,
    sigma_direction,
    spherical_to_cartesian,
)

S2 = 1.0 / math.sqrt(2.0)


class TestSigmaDirection:
    def test_head_on(self):
        assert_close(sigma_direction([1, 0], [-1, 0], [1, 0]), [1, 0], 1e-15)

    def test_oblique(self):
        assert_close(sigma_direction([1, 0], [0, 0], [S2, S2]), [0, 1], 1e-15)

    def test_unit_norm(self):
        gen = sample_generator(11, 0)
        for _ in range(300):
            v_i, v_j = gen.normal(size=2), gen.normal(size=2)
            if np.linalg.norm(v_j - v_i) < 1e-6:
                continue
            omega = gen.normal(size=2)
            omega /= np.linalg.norm(omega)
            sigma = sigma_direction(v_i, v_j, omega)
            assert abs(np.linalg.norm(sigma) - 1.0) <= 1e-12

    def test_zero_relative_velocity(self):
        with pytest.raises(ZeroRelativeVelocityError):
            sigma_direction([1, 0], [1, 0], [1, 0])


class TestScatterExamples:
    def test_inelastic_head_on(self):
        out = scatter([1, 0], [-1, 0], [1, 0], ModelParams(0.75))
        assert out.kind is CollisionKind.INELASTIC
        assert_close(out.sigma, [1, 0], 1e-15)
        assert out.kappa == pytest.approx(0.5, abs=1e-15)
        assert_close(out.v_i_post, [-0.5, 0], 1e-15)
        assert_close(out.v_j_post, [0.5, 0], 1e-15)
        assert out.energy_loss == pytest.approx(0.75, abs=1e-12)

    def test_elastic_head_on_swap(self):
        out = scatter([1, 0], [-1, 0], [1, 0], ModelParams(2.0))
        assert out.kind is CollisionKind.ELASTIC
        assert_close(out.v_i_post, [-1, 0], 1e-15)
        assert_close(out.v_j_post, [1, 0], 1e-15)

    def test_elastic_oblique(self):
        out = scatter([1, 0], [0, 0], [S2, S2], ModelParams(2.0))
        assert out.kind is CollisionKind.ELASTIC
        assert_close(out.v_i_post, [0.5, -0.5], 1e-15)
        assert_close(out.v_j_post, [0.5, 0.5], 1e-15)
        assert out.energy_loss == pytest.approx(0.0, abs=1e-15)


class TestScatterGuards:
    def test_not_pre_collisional(self):
        with pytest.raises(NotPreCollisionalError):
            scatter([-1, 0], [1, 0], [1, 0], ModelParams(0.75))

    def test_critical_band(self):
        with pytest.raises(CriticalEnergyError):
            scatter([1, 0], [-1, 0], [1, 0], ModelParams(1.0))  # |w|^2 = 4 = 4*eps0

    def test_non_unit_omega(self):
        with pytest.raises(Exception):
            scatter([1, 0], [-1, 0], [2, 0], ModelParams(0.75))


def ledger_samples(dim, eps0, count, seed):
    params = ModelParams(eps0)
    for index in range(count):
        gen = sample_generator(seed, index)
        v_i, v_j, omega, _ = draw_scattering_sample(gen, params, dim)
        assert v_i.shape == v_j.shape == omega.shape == (dim,)
        yield v_i, v_j, omega, scatter(v_i, v_j, omega, params), params


class TestInvariants:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_momentum_and_energy_ledger(self, dim):
        for v_i, v_j, omega, out, params in ledger_samples(dim, 0.75, 400, seed=21):
            assert_close(out.v_i_post + out.v_j_post, v_i + v_j, 1e-12, "momentum")
            expected = params.epsilon0 if out.kind is CollisionKind.INELASTIC else 0.0
            assert abs(out.energy_loss - expected) <= 1e-12

    def test_elastic_involution(self):
        gen = sample_generator(23, 0)
        for _ in range(300):
            v_i, v_j = gen.normal(size=2), gen.normal(size=2)
            omega = gen.normal(size=2)
            omega /= np.linalg.norm(omega)
            a, b = elastic_reflection(v_i, v_j, omega)
            back_i, back_j = elastic_reflection(a, b, omega)
            assert_close(back_i, v_i, 1e-12, "involution i")
            assert_close(back_j, v_j, 1e-12, "involution j")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sign_flip(self, dim):
        for _, _, omega, out, _ in ledger_samples(dim, 0.75, 200, seed=29):
            assert float((out.v_j_post - out.v_i_post) @ omega) > 0.0

    def test_tangential_direction_preserved_inelastic(self):
        for v_i, v_j, omega, out, _ in ledger_samples(2, 0.5, 300, seed=31):
            if out.kind is not CollisionKind.INELASTIC:
                continue
            w_pre = v_j - v_i
            w_post = out.v_j_post - out.v_i_post
            tang_pre = w_pre - float(w_pre @ omega) * omega
            tang_post = w_post - float(w_post @ omega) * omega
            norm = float(np.linalg.norm(tang_pre))
            if norm < 1e-9:
                continue
            # orthogonal component keeps its direction: positive multiple
            ratio = float(tang_post @ tang_pre) / (norm * norm)
            assert ratio > 0.0
            assert_close(tang_post, ratio * tang_pre, 1e-10 * max(1.0, norm), "tangential direction")


class TestRadialEmissionMap:
    def test_planar_example(self):
        out = radial_emission_map(RadialCoordinates(2.0, math.pi / 3), ModelParams(0.75))
        assert out.rho == pytest.approx(1.0, abs=1e-15)
        assert out.theta == pytest.approx(-math.pi / 3, abs=0)

    def test_spherical_example(self):
        out = radial_emission_map(RadialCoordinates(2.0, 0.3, 1.0), ModelParams(1.0))
        assert out.rho == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-15)
        assert out.theta == pytest.approx(-0.3, abs=0)
        assert out.phi == pytest.approx(1.0, abs=0)

    def test_zero_quantum_limit_is_pure_reflection(self):
        # the elastic limit keeps the radius and only flips the angle
        tiny = ModelParams(1e-300)
        out = radial_emission_map(RadialCoordinates(1.7, 0.4), tiny)
        assert out.rho == pytest.approx(1.7, rel=1e-12)
        assert out.theta == -0.4

    def test_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            radial_emission_map(RadialCoordinates(1.0, 0.0), ModelParams(0.75))
        with pytest.raises(BelowThresholdError):
            radial_emission_map(RadialCoordinates(1.0, 0.0, 0.0), ModelParams(0.75))

    def test_planar_map_matches_center_of_mass_scatter(self):
        # conjugating the emitting branch into the contact frame reproduces
        # the polar form: radius sqrt(rho^2 - 4 eps0), angle flipped
        params = ModelParams(0.4)
        gen = sample_generator(37, 0)
        checked = 0
        while checked < 200:
            v_i, v_j, omega, kind = draw_scattering_sample(gen, params, 2)
            if kind is not CollisionKind.INELASTIC:
                continue
            out = scatter(v_i, v_j, omega, params)
            w_pre = v_j - v_i
            w_post = out.v_j_post - out.v_i_post
            # frame axes: first = a unit vector orthogonal to omega, second = omega
            perp = np.array([-omega[1], omega[0]])
            def polar(w):
                return math.hypot(w @ perp, w @ omega), math.atan2(float(w @ omega), float(w @ perp))
            rho_pre, theta_pre = polar(w_pre)
            rho_post, theta_post = polar(w_post)
            mapped = radial_emission_map(RadialCoordinates(rho_pre, theta_pre), params)
            assert abs(rho_post - mapped.rho) <= 1e-10 * max(1.0, rho_pre)
            assert abs(theta_post - mapped.theta) <= 1e-10
            checked += 1

    def test_spherical_round_trip(self):
        gen = sample_generator(41, 0)
        for _ in range(100):
            v = gen.normal(size=3)
            if np.linalg.norm(v) < 1e-3:
                continue
            back = spherical_to_cartesian(cartesian_to_spherical(v))
            assert_close(back, v, 1e-12 * max(1.0, float(np.linalg.norm(v))), "round trip")

    def test_cartesian_3d_form_matches_spherical(self):
        params = ModelParams(0.2)
        gen = sample_generator(43, 0)
        for _ in range(100):
            v = gen.normal(size=3) * 1.5
            rho = float(np.linalg.norm(v))
            if rho**3 <= 4 * params.epsilon0 + 0.1:
                continue
            direct = emission_map_cartesian_3d(v, params)
            sph = cartesian_to_spherical(v)
            mapped = spherical_to_cartesian(radial_emission_map(sph, params))
            assert sph.dimension == 3 and direct.shape == mapped.shape == (3,)
            assert_close(direct, mapped, 1e-10 * max(1.0, rho), "cartesian vs spherical")


class TestRawLawGuards:
    def test_inelastic_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            inelastic_emission([0.1, 0], [0, 0], [1, 0], 1.0)


# Kinds of collide input: the two branches of the law, and pairs that fail
# a check (receding, tangent, inside the critical band, at zero relative
# velocity, with a non-unit omega).
COLLIDE_CASES = ("emitting", "elastic", "receding", "tangent", "critical", "still", "long_omega")


@st.composite
def collide_inputs(draw, d):
    """(v_i, v_j, omega, epsilon0) of one pair in d dimensions."""
    case = draw(st.sampled_from(COLLIDE_CASES))
    vector = st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d).map(np.array)
    omega, v_i, w = draw(vector), draw(vector), draw(vector)
    if float(omega @ omega) < 1e-4 or float(w @ w) < 1e-4:
        omega, w = np.eye(d)[0], -np.eye(d)[0]  # head on
    omega = omega / math.sqrt(float(omega @ omega))
    if (float(w @ omega) < 0.0) == (case == "receding"):
        w = -w
    if case == "tangent":
        w = w - float(w @ omega) * omega
    if case == "still":
        w = w * 1e-16
    if case == "long_omega":
        omega = omega * 1.001
    w2 = float(w @ w)
    fraction = {"emitting": draw(st.floats(0.05, 0.95)), "elastic": draw(st.floats(1.05, 20.0)), "critical": 1.0}
    epsilon0 = w2 / 4.0 * fraction.get(case, draw(st.floats(0.05, 20.0)))
    return v_i, v_i + w, omega, epsilon0 if epsilon0 > 0.0 else 1e-300


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from((2, 3, 4)).flatmap(lambda d: st.lists(collide_inputs(d), min_size=1, max_size=8)),
    st.booleans(),
    # A still pair sits inside the default critical band; a narrow band lets
    # the zero relative velocity check see it.
    st.sampled_from((Tolerances(), Tolerances(crit_tol=1e-40))),
)
def test_checked_law_is_the_stacked_law(pairs, shared_omega, tol):
    """collide on a stack of pairs, omega one row per pair or the first
    pair's as float columns shared by every row, gives each valid row the
    bits and the emitting flag of its pair alone on Python floats, and each
    invalid row the checks of its pair alone, whose first is the error
    scatter raises.  A failed row, whose unguarded law may be NaN, leaves
    the bits of the valid rows as the stack of those rows alone gives
    them."""
    v_i, v_j, omega, epsilon0 = (np.array(column) for column in zip(*pairs))
    if shared_omega:
        omega = np.repeat(omega[:1], len(pairs), axis=0)
    columns = omega[0].tolist() if shared_omega else omega.T
    w2, failed, (vi_post, vj_post, _, _, emitting) = collide(v_i.T, v_j.T, columns, epsilon0, tol)
    failed = np.array(np.broadcast_arrays(*failed))
    stacked = np.column_stack(vi_post + vj_post)
    for row, pair in enumerate(zip(v_i.tolist(), v_j.tolist(), omega.tolist(), epsilon0.tolist())):
        alone_w2, alone_failed, law = collide(*pair, tol)
        assert alone_failed == tuple(failed[:, row].tolist())
        if law is None:
            error, message = SCATTER_CHECKS[failed[:, row].argmax()]
            with pytest.raises(error, match=message):
                scatter(*pair[:3], ModelParams(pair[3]), tol=tol)
            continue
        assert all(type(c) is float for vector in law[:2] for c in vector)
        assert _bits((alone_w2, np.concatenate(law[:2]))) == _bits((w2[row], stacked[row]))
        assert law[4] == emitting[row] == (alone_w2 > 4.0 * pair[3])
    valid = ~failed.any(axis=0)
    columns = columns if shared_omega else omega[valid].T
    _, _, (vi_alone, vj_alone, _, _, _) = collide(v_i[valid].T, v_j[valid].T, columns, epsilon0[valid], tol)
    assert _bits(stacked[valid]) == _bits(np.column_stack(vi_alone + vj_alone))


def _bits(values) -> list:
    return [None if value is None else np.asarray(value, dtype=float).tobytes() for value in values]
