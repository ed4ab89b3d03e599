import itertools

import numpy as np
import pytest

from ihse import (
    CollisionKind,
    Configuration,
    ExcludedConfigurationError,
    ExclusionReason,
    ModelParams,
    PairIndex,
    Tolerances,
    analytic_flow_jacobian_det,
    classify_tct_domain,
    conserved_quantities,
    free_transport,
    tct_flow,
)
from ihse.jacobian_lab import random_tct_case, verify_flow_jacobian
from ihse.core import dot
from ihse.tct import contraction_factor

from conftest import assert_close

P12 = PairIndex(1, 2)


class TestClassification:
    def test_elastic_single_collision(self, head_on, params_elastic_example):
        # |v_1 - v_2|^2 = 1 <= 4*eps0 = 3, so the contact at t=2 is elastic
        cls = classify_tct_domain(head_on, 3.0, params_elastic_example)
        assert cls.is_single_collision
        assert cls.pair == P12
        assert cls.t_c == pytest.approx(2.0, abs=1e-14)
        assert cls.kind is CollisionKind.ELASTIC

    def test_inelastic_single_collision(self, head_on, params_inelastic_example):
        cls = classify_tct_domain(head_on, 3.0, params_inelastic_example)
        assert cls.is_single_collision
        assert cls.kind is CollisionKind.INELASTIC

    def test_free_when_horizon_short(self, head_on, params_elastic_example):
        assert classify_tct_domain(head_on, 1.0, params_elastic_example).is_free

    def test_grazing_excluded(self, params_elastic_example):
        cfg = Configuration([[0, 0], [3, 1]], [[1, 0], [0, 0]])  # tangential contact at t=3
        cls = classify_tct_domain(cfg, 5.0, params_elastic_example)
        assert cls.is_excluded and cls.reason is ExclusionReason.GRAZING

    def test_grazing_beyond_horizon_is_free(self, params_elastic_example):
        cfg = Configuration([[0, 0], [3, 1]], [[1, 0], [0, 0]])
        assert classify_tct_domain(cfg, 2.0, params_elastic_example).is_free

    def test_shallow_crossing_excluded_from_its_entry(self, params_elastic_example):
        # discriminant 1 - 0.96^2 <= grazing_tol: the pair is one diameter
        # apart at t = 3 - 0.28 <= tau, before its closest approach at t = 3
        cfg = Configuration([[0, 0], [3, 0.96]], [[1, 0], [0, 0]])
        tol = Tolerances(grazing_tol=0.1)
        cls = classify_tct_domain(cfg, 2.9, params_elastic_example, tol=tol)
        assert cls.is_excluded and cls.reason is ExclusionReason.GRAZING
        assert classify_tct_domain(cfg, 2.7, params_elastic_example, tol=tol).is_free

    def test_simultaneous_excluded(self, params_elastic_example):
        cfg = Configuration(
            [[0, 0], [3, 0], [0, 10], [3, 10]],
            [[1, 0], [0, 0], [1, 0], [0, 0]],
        )
        cls = classify_tct_domain(cfg, 3.0, params_elastic_example)
        assert cls.is_excluded and cls.reason is ExclusionReason.SIMULTANEOUS

    def test_critical_energy_excluded(self, symmetric_head_on):
        cls = classify_tct_domain(symmetric_head_on, 2.0, ModelParams(1.0))  # |w|^2 = 4 = 4*eps0
        assert cls.is_excluded and cls.reason is ExclusionReason.CRITICAL_ENERGY

    def test_boundary_start_excluded(self, params_elastic_example):
        cfg = Configuration([[0, 0], [1, 0]], [[0, 0], [0, 0]])
        cls = classify_tct_domain(cfg, 1.0, params_elastic_example)
        assert cls.is_excluded and cls.reason is ExclusionReason.BOUNDARY_START

    def test_recollision_excluded(self):
        # particle 2 scatters off 1 and then reaches 3 inside the horizon
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        cls = classify_tct_domain(chain, 1.5, ModelParams(0.5))
        assert cls.is_excluded and cls.reason is ExclusionReason.RECOLLISION
        # shorter horizon sees only the first contact
        cls = classify_tct_domain(chain, 0.9, ModelParams(0.5))
        assert cls.is_single_collision

    def test_second_pair_within_horizon_excluded(self, params_elastic_example):
        # distinct pairs collide at t=2 and t=2.5: not a one-collision interval
        cfg = Configuration(
            [[0, 0], [3, 0], [0, 10], [3.5, 10]],
            [[1, 0], [0, 0], [1, 0], [0, 0]],
        )
        cls = classify_tct_domain(cfg, 3.0, params_elastic_example)
        assert cls.is_excluded and cls.reason is ExclusionReason.RECOLLISION


class TestFlow:
    def test_elastic_hand_example(self, head_on, params_elastic_example):
        res = tct_flow(head_on, 3.0, params_elastic_example)
        assert_close(res.final.positions, [[2, 0], [4, 0]], 1e-12, "positions")
        assert_close(res.final.velocities, [[0, 0], [1, 0]], 1e-12, "velocities")
        assert res.classification.pair == P12 and res.classification.t_c == pytest.approx(2.0)
        assert res.outcome.kind is CollisionKind.ELASTIC

    def test_inelastic_hand_example(self, head_on, params_inelastic_example):
        res = tct_flow(head_on, 3.0, params_inelastic_example)
        assert_close(res.final.positions, [[2.25, 0], [3.75, 0]], 1e-12, "positions")
        assert_close(res.final.velocities, [[0.25, 0], [0.75, 0]], 1e-12, "velocities")
        outcome = res.outcome
        assert outcome.kappa == pytest.approx(0.25, abs=1e-15)
        assert_close(outcome.sigma, [1, 0], 1e-15)
        assert outcome.energy_loss == pytest.approx(0.1875, abs=1e-14)

    def test_free_case(self, head_on, params_elastic_example):
        res = tct_flow(head_on, 1.0, params_elastic_example)
        assert res.outcome is None
        assert res.final == free_transport(head_on, 1.0)

    def test_excluded_raises(self, params_elastic_example):
        cfg = Configuration([[0, 0], [3, 1]], [[1, 0], [0, 0]])
        with pytest.raises(ExcludedConfigurationError) as err:
            tct_flow(cfg, 5.0, params_elastic_example)
        assert err.value.reason is ExclusionReason.GRAZING

    def test_image_interior(self, head_on, params_inelastic_example):
        res = tct_flow(head_on, 3.0, params_inelastic_example)
        assert res.final.min_separation() > 1.0 - 1e-9

    def test_determinism_bit_identical(self, head_on, params_inelastic_example):
        a = tct_flow(head_on, 3.0, params_inelastic_example)
        b = tct_flow(head_on, 3.0, params_inelastic_example)
        assert np.array_equal(a.final.positions, b.final.positions)
        assert np.array_equal(a.final.velocities, b.final.velocities)

    @pytest.mark.parametrize("eps0", [0.75, 0.1875])
    def test_conservation(self, head_on, eps0):
        params = ModelParams(eps0)
        res = tct_flow(head_on, 3.0, params)
        mom0, ke0 = conserved_quantities(head_on)
        mom1, ke1 = conserved_quantities(res.final)
        assert_close(mom1, mom0, 1e-12, "momentum")
        loss = eps0 if res.classification.kind is CollisionKind.INELASTIC else 0.0
        assert abs((ke0 - ke1) - loss) <= 1e-12

    def test_semigroup_on_free_then_collision(self, head_on, params_inelastic_example):
        whole = tct_flow(head_on, 3.0, params_inelastic_example).final
        first = tct_flow(head_on, 1.5, params_inelastic_example).final  # free segment
        second = tct_flow(first, 1.5, params_inelastic_example).final  # contains the collision
        assert_close(second.positions, whole.positions, 1e-10, "positions")
        assert_close(second.velocities, whole.velocities, 1e-10, "velocities")

    def test_semigroup_collision_then_free(self, head_on, params_inelastic_example):
        whole = tct_flow(head_on, 3.0, params_inelastic_example).final
        first = tct_flow(head_on, 2.5, params_inelastic_example).final
        second = tct_flow(first, 0.5, params_inelastic_example).final
        assert_close(second.positions, whole.positions, 1e-10, "positions")
        assert_close(second.velocities, whole.velocities, 1e-10, "velocities")

    def test_elastic_time_reversibility(self, head_on, params_elastic_example):
        forward = tct_flow(head_on, 3.0, params_elastic_example).final
        reversed_state = Configuration(forward.positions, -forward.velocities)
        back = tct_flow(reversed_state, 3.0, params_elastic_example).final
        assert_close(back.positions, head_on.positions, 1e-9, "positions")
        assert_close(back.velocities, -head_on.velocities, 1e-9, "velocities")


class TestAnalyticDeterminant:
    def test_elastic_magnitude_one(self, head_on, params_elastic_example):
        det, prefactor, det_n = analytic_flow_jacobian_det(head_on, 3.0, params_elastic_example)
        assert abs(abs(det) - 1.0) <= 1e-12
        assert prefactor == pytest.approx(-1.0, abs=1e-9)
        assert det_n == -1.0

    def test_inelastic_contraction(self, symmetric_head_on):
        det, prefactor, det_n = analytic_flow_jacobian_det(symmetric_head_on, 2.0, ModelParams(0.75))
        assert abs(det) == pytest.approx(0.5, abs=1e-12)
        assert prefactor == pytest.approx(-0.5, abs=1e-12)
        assert det_n == -1.0

    def test_small_quantum_limit(self, symmetric_head_on):
        det, _, _ = analytic_flow_jacobian_det(symmetric_head_on, 2.0, ModelParams(1e-12))
        assert abs(det) == pytest.approx(1.0, rel=1e-9)

    def test_free_flow_unit(self, head_on, params_elastic_example):
        assert analytic_flow_jacobian_det(head_on, 1.0, params_elastic_example) == (1.0, 1.0, 1.0)

    def test_inelastic_3d_head_on(self):
        # s^2 = 4, eps0 = 0.75: x = 1/4, det_N = -x^(1/2), det = x
        cfg = Configuration([[0, 0, 0], [3, 0, 0]], [[1, 0, 0], [-1, 0, 0]])
        det, prefactor, det_n = analytic_flow_jacobian_det(cfg, 2.0, ModelParams(0.75))
        assert det_n == -0.5
        assert prefactor == pytest.approx(-0.5, abs=1e-12)
        assert det == pytest.approx(0.25, abs=1e-12)

    def test_inelastic_closed_form_matches_fd(self):
        # C05's bounds in d=3 and d=4: residual <= 1e-5 and |fd det| within
        # 1e-5 of x^((d-1)/2), x = 1 - 4 eps0 / s^2
        for d, index in itertools.product((3, 4), range(8)):
            cfg, params = random_tct_case(91 + d, index, 2 + index % 2, kind=CollisionKind.INELASTIC, d=d)
            det, prefactor, det_n = analytic_flow_jacobian_det(cfg, 1.0, params)
            _, w = cfg.pair_state(P12)
            x = 1.0 - 4.0 * params.epsilon0 / dot(w, w)
            assert det_n == -(x ** ((d - 2) / 2))
            assert det == pytest.approx(x ** ((d - 1) / 2), rel=1e-9)
            report = verify_flow_jacobian(cfg, 1.0, params)
            assert (report.analytic_det, report.prefactor) == (det, prefactor)
            assert report.residual <= 1e-5
            assert abs(abs(report.fd_det) - x ** ((d - 1) / 2)) <= 1e-5
            assert report.det_N_fd == pytest.approx(det_n, abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_contraction_factor_takes_d(self, d):
        # s^2 = 4, eps0 = 0.75: x = 1/4 and the factor is x^((d-1)/2)
        assert contraction_factor(4.0, ModelParams(0.75), d) == 0.25 ** ((d - 1) / 2)

    def test_elastic_3d_supported(self):
        cfg = Configuration([[0, 0, 0], [3, 0, 0]], [[1, 0, 0], [-1, 0, 0]])
        det, prefactor, det_n = analytic_flow_jacobian_det(cfg, 2.0, ModelParams(2.0))
        assert abs(det) == pytest.approx(1.0, abs=1e-9)

    def test_excluded_raises(self, symmetric_head_on):
        with pytest.raises(ExcludedConfigurationError):
            analytic_flow_jacobian_det(symmetric_head_on, 2.0, ModelParams(1.0))
