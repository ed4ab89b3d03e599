import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import (
    BranchCrossingError,
    CollisionKind,
    Configuration,
    ExcludedConfigurationError,
    ExclusionReason,
    IHSEError,
    ModelParams,
    NonFiniteError,
    Tolerances,
    UsageError,
    fd_determinant,
    fd_jacobian,
    tensor_sum_det,
    verify_flow_jacobian,
    verify_scattering_measure,
)
from ihse import jacobian_lab
from ihse.jacobian_lab import (
    UnreliableStencilError,
    draw_scattering_sample,
    random_flow_cases,
    random_tct_case,
    verify_flow_jacobians,
)
from ihse.core import dot
from ihse.rng import sample_generator
from ihse.scattering import scattering_velocity_det_analytic

import reference_draws
import reference_kernel as ref
from conftest import assert_close
from oracles import scattering_velocity_jacobian


class TestFdJacobian:
    def test_identity_map(self):
        jac = fd_jacobian(lambda z: (z, [None] * len(z)), np.zeros(4), 1e-6)
        assert_close(jac, np.eye(4), 1e-10, "identity")

    def test_linear_map_exact(self):
        gen = sample_generator(2, 0)
        a = gen.normal(size=(3, 5))
        jac = fd_jacobian(lambda z: (z @ a.T, [None] * len(z)), np.zeros(5), 1e-6)
        assert_close(jac, a, 1e-10, "linear at origin")
        jac = fd_jacobian(lambda z: (z @ a.T, [None] * len(z)), gen.normal(size=5), 1e-6)
        assert_close(jac, a, 1e-9, "linear at generic point")

    def test_free_transport_block_structure(self):
        t = 0.7
        n, d = 2, 2

        def flow(points):
            values = []
            for z in points:
                cfg = Configuration.from_vector(z, n, d)
                moved = cfg.positions + t * cfg.velocities
                values.append(np.concatenate([moved.ravel(), cfg.velocities.ravel()]))
            return np.array(values), [None] * len(points)

        z0 = Configuration([[0, 0], [3, 0]], [[1, 0], [0, 0]]).to_vector()
        jac = fd_jacobian(flow, z0, 1e-6)
        expected = np.block([[np.eye(4), t * np.eye(4)], [np.zeros((4, 4)), np.eye(4)]])
        assert_close(jac, expected, 5e-9, "affine flow")
        assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-8)

    def test_branch_crossing_detected(self):
        def fn(z):
            return np.abs(z[:, :1]), z[:, 0] > 0

        with pytest.raises(BranchCrossingError):
            fd_jacobian(fn, np.array([0.0]), 1e-6)

    def test_non_finite_detected(self):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            fd_jacobian(lambda z: (np.log(z[:, :1]), [None] * len(z)), np.array([0.0]), 1e-6)

    def test_unreliable_stencil_detected(self):
        # steep cubic kink: determinants at h and h/2 disagree wildly
        def fn(z):
            return z[:, :1] + 1e6 * z[:, :1] ** 3, [None] * len(z)

        with pytest.raises(UnreliableStencilError):
            fd_determinant(fn, np.array([0.0]), 1e-1)

    @staticmethod
    def _labelled(label_of):
        """Identity batch map whose row labels (or errors) come from label_of(row)."""
        return lambda z: (z, [label_of(row) for row in z])

    def test_crossing_at_coordinate_0_beats_error_at_coordinate_1(self):
        fn = self._labelled(lambda row: IHSEError("row fails") if row[1] > 0 else row[0] > 0)
        with pytest.raises(BranchCrossingError, match="coordinate 0"):
            fd_jacobian(fn, np.zeros(2), 1e-6)
        with pytest.raises(BranchCrossingError, match="coordinate 0"):
            fd_determinant(fn, np.zeros(2), 1e-6)

    def test_error_at_coordinate_0_beats_crossing_at_coordinate_1(self):
        fn = self._labelled(lambda row: IHSEError("row fails") if row[0] > 0 else row[1] > 0)
        with pytest.raises(IHSEError, match="row fails"):
            fd_jacobian(fn, np.zeros(2), 1e-6)
        with pytest.raises(IHSEError, match="row fails"):
            fd_determinant(fn, np.zeros(2), 1e-6)

    def test_non_finite_at_h_beats_crossing_at_half_h(self):
        # rows at |z| = h are on the center's branch but not finite; rows at
        # |z| = h/2 are finite but on another branch
        def fn(z):
            values = np.where(np.abs(z) > 0.75, np.nan, z)
            return values, [0.25 < abs(row[0]) < 0.75 for row in z]

        with pytest.raises(NonFiniteError, match="coordinate 0"):
            fd_determinant(fn, np.zeros(1), 1.0)
        with pytest.raises(BranchCrossingError, match="coordinate 0"):
            fd_jacobian(fn, np.zeros(1), 0.5)

    def test_center_error_comes_first(self):
        fn = self._labelled(lambda row: IHSEError("center fails") if not row.any() else None)
        with pytest.raises(IHSEError, match="center fails"):
            fd_determinant(fn, np.zeros(2), 1e-6)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stencil_checks_match_the_coordinate_loop(self, data):
        # Stacks of stencils at h and h/2, each block with an error label, a
        # label other than the center's and a non-finite value, each at a
        # random coordinate or absent: every stencil gets the quotient bits,
        # or the error type and message, of the loop over its coordinates.
        cases, m, outputs = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        h = data.draw(st.sampled_from([1e-6, 1e-3, 0.3]))
        steps = (h, h / 2.0)
        size = 1 + 2 * m * len(steps)
        values = sample_generator(data.draw(st.integers(0, 2**16)), 0).standard_normal((cases, size, outputs))
        labels = [[0] * size for _ in range(cases)]
        row = st.none() | st.integers(0, 2 * m - 1)
        for c in range(cases):
            if data.draw(st.integers(0, 5)) == 0:
                labels[c][0] = IHSEError(f"center of stencil {c} fails")
            for start in range(1, size, 2 * m):
                if (at := data.draw(row)) is not None:
                    labels[c][start + at] = IHSEError(f"row {start + at} of stencil {c} fails")
                if (at := data.draw(row)) is not None:
                    labels[c][start + at] = 1
                if (at := data.draw(row)) is not None:
                    column = data.draw(st.integers(0, outputs - 1))
                    values[c, start + at, column] = data.draw(st.sampled_from([np.nan, np.inf]))
        flat = [label for stencil in labels for label in stencil]
        rows = jacobian_lab._stencil_rows(np.zeros((cases, m)), steps)
        jacobians, errors = jacobian_lab._fd_jacobians(rows, values.reshape(-1, outputs), flat, steps)
        for c in range(cases):
            try:
                expected = ref.stencil_jacobians(values[c], labels[c], steps)
            except IHSEError as error:
                assert (type(errors[c]), str(errors[c])) == (type(error), str(error)), c
                continue
            assert errors[c] is None, c
            for jacobian, alone in zip(jacobians[c], expected):
                assert jacobian.tobytes() == alone.tobytes(), c

    def test_step_that_does_not_move_a_coordinate_is_usage_error(self):
        identity = self._labelled(lambda row: None)
        message = r"step 1e-06 does not move coordinate 0 \(value 1e\+20\)"
        with pytest.raises(UsageError, match=message):
            fd_jacobian(identity, [1e20, 0.0], 1e-6)
        with pytest.raises(UsageError, match=message):
            fd_determinant(identity, [1e20, 0.0], 1e-6)
        # at 1.0, h = 2e-16 moves both points, and h/2 moves only the -e_0 one
        with pytest.raises(UsageError, match=r"step 1e-16 does not move coordinate 0 \(value 1.0\)"):
            fd_determinant(identity, [1.0], 2e-16)

    @pytest.mark.parametrize(
        "point, h, message",
        [([1.0, 0.0], 0.0, "step h must be positive"), ([[1.0, 0.0]], 1e-6, "point must be a flat vector")],
    )
    def test_nonpositive_step_or_nested_point_is_usage_error(self, point, h, message):
        with pytest.raises(UsageError, match=f"^{message}$"):
            fd_jacobian(self._labelled(lambda row: None), point, h)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unmoved_points_match_the_coordinate_loop(self, data):
        # Stacks of stencils at h and h/2 about points whose coordinates a
        # step may not move, each with an error label and another label at
        # a random row (the center included) or absent: every stencil gets
        # the quotient bits, or the error, of the loop over its rows.
        cases, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        h = data.draw(st.sampled_from([1e-6, 2e-16, 1e-300]))
        steps = (h, h / 2.0)
        coordinates = st.lists(st.sampled_from([0.0, 1.0, -3.0, 1e20]), min_size=cases * m, max_size=cases * m)
        rows = jacobian_lab._stencil_rows(np.reshape(data.draw(coordinates), (cases, m)), steps)
        size = rows.shape[1]
        labels = [[0] * size for _ in range(cases)]
        row = st.none() | st.integers(0, size - 1)
        for c in range(cases):
            if (at := data.draw(row)) is not None:
                labels[c][at] = IHSEError(f"row {at} of stencil {c} fails")
            if (at := data.draw(row)) is not None:
                labels[c][at] = 1
        flat = [label for stencil in labels for label in stencil]
        jacobians, errors = jacobian_lab._fd_jacobians(rows, rows.reshape(-1, m), flat, steps)
        for c in range(cases):
            try:
                expected = ref.stencil_jacobians(rows[c], labels[c], steps, rows[c, 0])
            except IHSEError as error:
                assert (type(errors[c]), str(errors[c])) == (type(error), str(error)), c
                continue
            assert errors[c] is None, c
            for jacobian, alone in zip(jacobians[c], expected):
                assert jacobian.tobytes() == alone.tobytes(), c


class TestTensorLemma:
    def test_hand_example(self):
        formula, direct, _ = tensor_sum_det(1, 1, 1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert formula == pytest.approx(4.0, abs=0)
        assert direct == pytest.approx(4.0, abs=1e-14)

    def test_zero_coefficients(self):
        formula, direct, _ = tensor_sum_det(0, 0, 0, np.array([2.0, 3.0]), np.array([1.0, -1.0]))
        assert formula == 1.0 and direct == pytest.approx(1.0, abs=1e-15)

    def test_single_tensor_product(self):
        u = np.array([0.7, -0.2])
        w = np.array([0.3, 1.1])
        for t in (-2.0, 0.5, 3.0):
            formula, direct, _ = tensor_sum_det(0.0, t, 0.0, u, w)
            assert formula == pytest.approx(1.0 + t * float(u @ w), abs=1e-14)
            assert direct == pytest.approx(formula, abs=1e-12)

    def test_random_agreement(self):
        # agreement is measured relative to the size of the terms entering
        # the identity; both sides cancel those terms in their own order
        worst = 0.0
        for index in range(2000):
            gen = sample_generator(4, index)
            lam, mu, nu = gen.uniform(-10, 10, 3)
            u = gen.uniform(-10, 10, 2)
            w = gen.uniform(-10, 10, 2)
            formula, direct, _ = tensor_sum_det(lam, mu, nu, u, w)
            cross = u[0] * w[1] - u[1] * w[0]
            scale = max(
                1.0,
                abs(lam) * float(u @ u),
                abs(mu * float(u @ w)),
                abs(nu) * float(w @ w),
                abs(lam * nu) * cross * cross,
            )
            worst = max(worst, abs(formula - direct) / scale)
        assert worst <= 1e-12

    def test_scale_is_the_largest_term_magnitude(self):
        # the magnitudes of the closed form's terms, each from the factors'
        # own magnitudes; coefficients near 0 let the floor 1 win
        for index in range(500):
            gen = sample_generator(5, index)
            lam, mu, nu = gen.uniform(-10, 10, 3) * (1e-3 if index % 2 else 1.0)
            u = gen.uniform(-10, 10, 2)
            w = gen.uniform(-10, 10, 2)
            *_, scale = tensor_sum_det(lam, mu, nu, u, w)
            uu, uw, ww = (a[0] * b[0] + a[1] * b[1] for a, b in ((u, u), (u, w), (w, w)))
            cross = u[0] * w[1] - u[1] * w[0]
            terms = abs(lam) * uu, abs(mu) * abs(uw), abs(nu) * ww, abs(lam) * abs(nu) * abs(cross) * abs(cross)
            assert scale == max(1.0, *terms), index

    def test_rejects_non_planar_vectors(self):
        with pytest.raises(UsageError, match="^the tensor-sum identity is planar: u and omega must be 2-vectors$"):
            tensor_sum_det(1.0, 1.0, 1.0, np.ones(3), np.ones(3))


class TestScatteringMeasure:
    def test_no_samples_is_usage_error(self):
        with pytest.raises(UsageError, match=r"^samples must be positive$"):
            jacobian_lab.scattering_measure_samples(0, ModelParams(0.75), 2, 7)

    def test_planar_measure_preservation(self):
        reports = verify_scattering_measure(100, ModelParams(0.75), 2, seed=7)
        for report in reports:
            assert abs(abs(report.fd_det) - 1.0) <= 1e-6
            assert report.residual <= 1e-8  # closed form -1 vs FD

    def test_planar_elastic_branch(self):
        # the elastic branch is linear, so a larger step has no truncation
        # error and less round-off
        reports = verify_scattering_measure(
            50, ModelParams(0.75), 2, seed=8, kind=CollisionKind.ELASTIC, h=1e-3
        )
        for report in reports:
            assert abs(abs(report.fd_det) - 1.0) <= 1e-10
            assert report.analytic_det == -1.0

    def test_closed_form_matches_det_2a_and_fd(self):
        # det N = -1 elastic, -(1 - 4 eps0 / s^2)^((d-2)/2) emitting, against
        # det(2A) of the assembled block Jacobian and against FD
        for d in (2, 3, 4, 5):
            params = ModelParams(0.4)
            for kind in (CollisionKind.ELASTIC, CollisionKind.INELASTIC):
                reports = verify_scattering_measure(25, params, d, seed=31, kind=kind)
                for index, report in enumerate(reports):
                    v_i, v_j, omega, _ = draw_scattering_sample(sample_generator(31, index), params, d, kind=kind)
                    assert v_i.shape == v_j.shape == omega.shape == (d,)
                    w = v_j - v_i
                    closed = scattering_velocity_det_analytic(dot(w, w), params, d)
                    jac = scattering_velocity_jacobian(v_i, v_j, omega, params)
                    det_2a = float(np.linalg.det(jac[:d, :d] - jac[:d, d:]))
                    assert report.analytic_det == closed
                    assert abs(closed - det_2a) <= 1e-12
                    assert abs(closed - report.fd_det) <= 1e-8
                    if kind is CollisionKind.INELASTIC and d > 2:
                        assert abs(closed) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        d=st.sampled_from([2, 3, 4]),
        eps0=st.one_of(st.floats(0.01, 4.0), st.just(math.inf)),
        kind=st.sampled_from([None, CollisionKind.ELASTIC, CollisionKind.INELASTIC]),
        h=st.sampled_from([1e-6, 1e-5]),
        counts=st.tuples(st.integers(1, 8), st.integers(0, 6)),
        per_stack=st.sampled_from([1, 3, jacobian_lab.CASES_PER_STACK]),
    )
    def test_stacked_samples_are_the_per_sample_oracle(self, seed, d, eps0, kind, h, counts, per_stack):
        # Every sample of the stacks gets, bit for bit, the draw, the
        # one-point finite-difference determinant and the error it gets
        # alone, whatever the stack size, and the first k samples do not
        # depend on how many follow.
        k, more = counts
        params = ModelParams(eps0)
        with mock.patch.object(jacobian_lab, "CASES_PER_STACK", per_stack):
            results = jacobian_lab.scattering_measure_samples(k + more, params, d, seed, kind=kind, h=h)
        assert len(results) == k + more
        for index, result in enumerate(results):
            try:
                v_i, v_j, omega, _ = draw_scattering_sample(sample_generator(seed, index), params, d, kind=kind)
                velocity_map = lambda zz: jacobian_lab._dispatched_velocity_map(zz, omega, eps0)
                det = np.linalg.det(fd_jacobian(velocity_map, np.concatenate([v_i, v_j]), h))
            except IHSEError as error:
                assert (type(result), str(result)) == (type(error), str(error))
                continue
            got_i, got_j, got_omega, report = result
            assert all(np.array_equal(a, b) for a, b in ((got_i, v_i), (got_j, v_j), (got_omega, omega)))
            assert report.fd_det == det
            assert report.analytic_det == scattering_velocity_det_analytic(dot(v_j - v_i, v_j - v_i), params, d)
            assert (report.step, report.prefactor, report.det_N_fd) == (h, None, None)
        first = jacobian_lab.scattering_measure_samples(k, params, d, seed, kind=kind, h=h)
        for head, full in zip(first, results[:k], strict=True):
            if isinstance(full, IHSEError):
                assert (type(head), str(head)) == (type(full), str(full))
            else:
                assert all(np.array_equal(a, b) for a, b in zip(head[:3], full[:3])) and head[3] == full[3]

    def test_unmoved_coordinate_is_the_error_of_its_pair_alone(self):
        # pair 1's v_i[1] is too large for the step to move; pairs 0 and 2
        # get the determinants they get alone
        params = ModelParams(0.4)
        draws = [draw_scattering_sample(sample_generator(3, k), params, 2)[:3] for k in range(3)]
        v_i, v_j, omega = (np.stack(column) for column in zip(*draws))
        v_i[1, 1] = 1e20
        dets, errors = jacobian_lab._velocity_map_dets(v_i, v_j, omega, [0.4] * 3, 1e-6)
        assert isinstance(errors[1], UsageError) and dets[1] is None
        assert str(errors[1]) == "finite-difference step 1e-06 does not move coordinate 1 (value 1e+20)"
        for c in (0, 2):
            alone = jacobian_lab._velocity_map_dets(v_i[c : c + 1], v_j[c : c + 1], omega[c : c + 1], [0.4], 1e-6)
            assert errors[c] is None and alone == ([dets[c]], [None])

    def test_3d_emitting_determinant_regression(self):
        # pinned by the finite-difference oracle: the emitting law in d=3
        # contracts velocity volume by sqrt(1 - 4 eps0 / |w|^2)
        from ihse.jacobian_lab import _dispatched_velocity_map

        params = ModelParams(0.75)
        omega = np.array([0.6, 0.8, 0.0])
        z = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
        jac = fd_jacobian(lambda zz: _dispatched_velocity_map(zz, omega, params.epsilon0), z, 1e-6)
        det = float(np.linalg.det(jac))
        assert jac.shape == (6, 6)
        assert det == pytest.approx(-0.5, abs=1e-8)
        assert abs(det) != pytest.approx(1.0, abs=1e-3)
        assert scattering_velocity_det_analytic(4.0, params, 3) == -0.5

    def test_analytic_matches_fd_in_3d(self):
        # the closed-form block Jacobian is dimension generic even though
        # only d=2 preserves measure
        from ihse.jacobian_lab import _dispatched_velocity_map

        params = ModelParams(0.4)
        gen = sample_generator(9, 0)
        for _ in range(50):
            v_i, v_j, omega, _ = draw_scattering_sample(gen, params, 3)
            assert v_i.shape == v_j.shape == omega.shape == (3,)
            z = np.concatenate([v_i, v_j])
            fd = fd_jacobian(lambda zz: _dispatched_velocity_map(zz, omega, params.epsilon0), z, 1e-6)
            analytic = scattering_velocity_jacobian(v_i, v_j, omega, params)
            assert_close(fd, analytic, 1e-7, "block Jacobian")


class TestFlowJacobian:
    def test_elastic_case(self, head_on, params_elastic_example):
        report = verify_flow_jacobian(head_on, 3.0, params_elastic_example)
        assert report.residual <= 1e-6
        assert abs(abs(report.fd_det) - 1.0) <= 1e-6
        assert report.det_N_fd == pytest.approx(-1.0, abs=1e-6)

    def test_inelastic_contraction_case(self, symmetric_head_on):
        report = verify_flow_jacobian(symmetric_head_on, 2.0, ModelParams(0.75))
        assert abs(report.fd_det) == pytest.approx(0.5, abs=1e-6)
        assert report.residual <= 1e-6
        assert report.prefactor == pytest.approx(-0.5, abs=1e-9)

    def test_free_case(self, head_on, params_elastic_example):
        report = verify_flow_jacobian(head_on, 1.0, params_elastic_example)
        assert report.fd_det == pytest.approx(1.0, abs=1e-8)
        assert report.analytic_det == 1.0

    def test_excluded_centre_raises(self):
        # the pair grazes the contact sphere before t = 5: the centre, row 0
        # of the stencil's one tct_stack call, is excluded before any FD check
        cfg = Configuration([[0.0, 0.0], [3.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ExcludedConfigurationError) as raised:
            verify_flow_jacobian(cfg, 5.0, ModelParams(0.75))
        assert raised.value.reason is ExclusionReason.GRAZING

    def test_centre_out_of_reach_is_usage_error(self):
        # the head-on pair at x = 0, 3 with velocities +-1e200 could overflow
        # the contact roots over [0, 1]: tct_flow's UsageError, no warning
        cfg = Configuration([[0.0, 0.0], [3.0, 0.0]], [[1e200, 0.0], [-1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match=r"^a coordinate is too large"):
                verify_flow_jacobian(cfg, 1.0, ModelParams(0.75))

    def test_random_cases_residuals(self):
        worst = 0.0
        for index in range(24):
            kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
            n = 2 + index % 3
            cfg, params = random_tct_case(55, index, n, kind=kind)
            report = verify_flow_jacobian(cfg, 1.0, params)
            worst = max(worst, report.residual)
            if kind is CollisionKind.ELASTIC:
                assert abs(abs(report.fd_det) - 1.0) <= 1e-6
        assert worst <= 1e-5

    @pytest.mark.parametrize("d", [3, 4])
    def test_model_of_the_quantum_alone_in_d(self, d):
        # the analytic determinant takes d from the state, not the model
        cfg, case_params = random_tct_case(7, 0, 3, kind=CollisionKind.INELASTIC, d=d)
        assert cfg.dimension == d
        report = verify_flow_jacobian(cfg, 1.0, ModelParams(case_params.epsilon0))
        assert report.residual <= 1e-5

    def test_gradient_identity_by_finite_differences(self):
        # velocity gradient of the contact time equals t_c times the
        # position gradient, checked entirely by finite differences
        from ihse import PairIndex

        from ihse import predict_pair
        from ihse.jacobian_lab import random_tct_case

        h = 1e-6
        checked = 0
        for index in range(120):
            cfg, _ = random_tct_case(12, index, 2, kind=None)
            pair = PairIndex(1, 2)
            tau = predict_pair(cfg, pair).time
            if tau is None or predict_pair(cfg, pair).discriminant <= 0.1:
                continue
            z = cfg.to_vector()
            fd = np.zeros(8)
            for k in range(8):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd[k] = (
                    predict_pair(Configuration.from_vector(zp, 2, 2), pair).time
                    - predict_pair(Configuration.from_vector(zm, 2, 2), pair).time
                ) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(fd[4:] - tau * fd[:4]).max() <= 1e-6 * scale
            checked += 1
            if checked >= 50:
                break
        assert checked >= 50


def _report_hex(report) -> tuple:
    return tuple(None if value is None else value.hex() for value in vars(report).values())


class TestBatchedCases:
    """random_flow_cases and verify_flow_jacobians against their one-case
    views and the one-case loops of reference_kernel, bit for bit."""

    def test_lockstep_draws_equal_each_case_alone(self, monkeypatch):
        # With tau = 3 the third particle recollides with a candidate now and
        # then, so a case is rejected by its classification and draws again
        # in a second round; now and then a drawn state fails the checks
        # before classification, and its case draws again at once.  Both
        # runs meet both rejections: the first with a kind and a fixed
        # quantum, the second with neither, so that gen.random() picks each
        # candidate's branch after its pre-check.
        rounds, verdicts = [], []
        stacked, prechecked = jacobian_lab.tct_stack, jacobian_lab._prechecks

        def counting_stack(positions, *args, **kwargs):
            rounds.append(len(positions))
            return stacked(positions, *args, **kwargs)

        def counting_prechecks(*args):
            passed = prechecked(*args)
            verdicts.extend(passed.tolist())
            return passed

        monkeypatch.setattr(jacobian_lab, "tct_stack", counting_stack)
        monkeypatch.setattr(jacobian_lab, "_prechecks", counting_prechecks)
        runs = ((2, CollisionKind.INELASTIC, dict(tau=3.0, fixed_eps0=1.0)), (10, None, dict(tau=3.0)))
        for seed, kind, options in runs:
            rounds.clear()
            verdicts.clear()
            cases = random_flow_cases(seed, range(12), 3, kinds=[kind] * 12, **options)
            # a round is one stack of 1 + 8 N d = 49 stencil rows per candidate
            assert rounds[0] == 12 * 49 and sum(rounds) > 12 * 49  # a candidate failed its classification
            assert False in verdicts  # a drawn state failed its pre-check
            for index, ((cfg, params), _) in enumerate(cases):
                for draw in (random_tct_case, ref.random_tct_case):
                    alone, alone_params = draw(seed, index, 3, kind=kind, **options)
                    assert params == alone_params and params.epsilon0 == options.get("fixed_eps0", params.epsilon0)
                    assert cfg.positions.tobytes() == alone.positions.tobytes(), index
                    assert cfg.velocities.tobytes() == alone.velocities.tobytes(), index

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_batched_reports_equal_each_case_alone(self, monkeypatch, n, d):
        # 7 cases in stacks of 3: two full stacks and one of 1
        monkeypatch.setattr(jacobian_lab, "CASES_PER_STACK", 3)
        kinds = [CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC for index in range(7)]
        cases = [case for case, _ in random_flow_cases(19, range(7), n, kinds=kinds, d=d)]
        reports = verify_flow_jacobians(cases, 1.0)
        for index, (report, kind) in enumerate(zip(reports, kinds)):
            cfg, params = ref.random_tct_case(19, index, n, kind=kind, d=d)
            assert _report_hex(report) == _report_hex(ref.verify_flow_jacobian(cfg, 1.0, params)), index
            assert _report_hex(report) == _report_hex(verify_flow_jacobian(cfg, 1.0, params)), index
            assert report.det_N_fd is not None

    @pytest.mark.parametrize(
        "seed, n, kind, options, per_stack",
        [
            # the two runs of test_lockstep_draws_equal_each_case_alone, which
            # meet both rejections
            (2, 3, CollisionKind.INELASTIC, dict(tau=3.0, fixed_eps0=1.0), 100),
            (10, 3, None, dict(tau=3.0), 100),
            (10, 3, None, dict(tau=3.0), 3),  # 12 cases in stacks of 3
            (19, 4, CollisionKind.INELASTIC, dict(d=3), 100),
            (7, 2, None, dict(fixed_eps0=0.3), 100),
            (2, 2, CollisionKind.ELASTIC, dict(tol=Tolerances(fd_step=0.3)), 5),  # branch-crossing stencils
        ],
    )
    def test_flow_jacobians_equal_each_case_drawn_and_verified_alone(
        self, monkeypatch, seed, n, kind, options, per_stack
    ):
        # each acceptance round is one stencil stack, its candidates'
        # centres their classifications: per case the report, or the type
        # and message of the error, of a draw and a verification alone.
        # The drawn cases verified give the same reports and errors.
        monkeypatch.setattr(jacobian_lab, "CASES_PER_STACK", per_stack)
        stacks, stacked = [], jacobian_lab.tct_stack

        def counting_stack(positions, *args, **kwargs):
            stacks.append(len(positions))
            return stacked(positions, *args, **kwargs)

        monkeypatch.setattr(jacobian_lab, "tct_stack", counting_stack)
        drawn = random_flow_cases(seed, range(12), n, kinds=[kind] * 12, **options)
        cases = [case if isinstance(case, IHSEError) else case[0] for case in drawn]
        reports = [case if isinstance(case, IHSEError) else case[1] for case in drawn]
        if options.get("tau") == 3.0:
            assert len(stacks) > -(-12 // per_stack)  # a candidate failed its classification
        if "tol" in options:
            assert any(isinstance(report, IHSEError) for report in reports)
        tau, tol = options.get("tau", 1.0), options.get("tol", Tolerances())
        for index, report in enumerate(reports):
            try:
                cfg, params = ref.random_tct_case(seed, index, n, kind=kind, **options)
                alone = ref.verify_flow_jacobian(cfg, tau, params, tol=tol)
            except IHSEError as error:
                assert (type(report), str(report)) == (type(error), str(error)), index
            else:
                assert _report_hex(report) == _report_hex(alone), index
        for index, (report, verified) in enumerate(zip(reports, verify_flow_jacobians(cases, tau, tol=tol))):
            if isinstance(report, IHSEError):
                assert (type(verified), str(verified)) == (type(report), str(report)), index
            else:
                assert _report_hex(verified) == _report_hex(report), index

    def test_errors_stay_with_their_cases(self):
        # an excluded centre (the grazing pair of test_excluded_centre_raises)
        # and a case passed in as an error sit beside cases that verify
        cfg, params = random_tct_case(19, 0, 2, kind=CollisionKind.ELASTIC, tau=5.0)
        grazing = Configuration([[0.0, 0.0], [3.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
        budget = IHSEError("failed to draw a one-collision configuration within the retry budget")
        cases = [(cfg, params), (grazing, ModelParams(0.75)), budget, (cfg, params)]
        reports = verify_flow_jacobians(cases, 5.0)
        alone = ref.verify_flow_jacobian(cfg, 5.0, params)
        assert _report_hex(reports[0]) == _report_hex(reports[3]) == _report_hex(alone)
        assert isinstance(reports[1], ExcludedConfigurationError) and reports[1].reason is ExclusionReason.GRAZING
        assert reports[2] is budget



def _case_bits(cfg, params) -> tuple:
    return cfg.positions.tobytes(), cfg.velocities.tobytes(), params.epsilon0.hex()


def _recording(draws, log: list):
    """draws (a _case_draws) wrapped to log, per yield, the bits of what it
    yields and the state of its generator."""

    def recorded(gen, *args):
        inner, sent = draws(gen, *args), None
        while True:
            try:
                request = inner.send(sent)
            except StopIteration as accepted:
                return accepted.value
            if isinstance(request[1], ModelParams):
                entry = _case_bits(*request)
            else:
                entry = tuple(np.asarray(part, dtype=float).tobytes() for part in request)
            log.append((entry, str(gen.bit_generator.state)))
            sent = yield request

    return recorded


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(2, 5),
    d=st.sampled_from((2, 3, 8)),
    fixed_eps0=st.sampled_from((None, None, 0.05, 0.4, 3.0)),
    tau=st.sampled_from((1.0, 3.0)),
)
@settings(max_examples=80, deadline=None)
def test_case_draws_on_floats_equal_the_array_draws(seed, n, d, fixed_eps0, tau):
    # The draws on Python floats make the generator calls and the operations
    # of the array form kept in tests/reference_draws.py: every drawn state
    # and candidate, the generator's state at each, and every case (or its
    # error) are the same bits.  d = 8 takes numpy's own sum for the gaps.
    if fixed_eps0 is None:
        kinds = [CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC for index in range(3)]
    else:
        kinds = [None] * 3
    runs = []
    for draws in (jacobian_lab._case_draws, reference_draws._case_draws):
        log = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jacobian_lab, "_case_draws", _recording(draws, log))
            cases = random_flow_cases(seed, range(3), n, kinds=kinds, tau=tau, d=d, fixed_eps0=fixed_eps0)
        runs.append((log, [repr(case) if isinstance(case, IHSEError) else _case_bits(*case[0]) for case in cases]))
    assert runs[0] == runs[1]
