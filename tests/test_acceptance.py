"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured runtime (use ``pytest tests/test_acceptance.py -s``).

Where a criterion states a tolerance it is asserted verbatim; derived
expected values were fixed from hand evaluation or from the independent
finite-difference oracle before being frozen here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ihse import (
    CollisionKind,
    Configuration,
    ModelParams,
    PairIndex,
    collision_time_gradients,
    elastic_reflection,
    kinetic_energy,
    predict_pair,
    scatter,
    simulate,
    tensor_sum_det,
    verify_flow_jacobian,
    verify_scattering_measure,
)
from ihse.jacobian_lab import draw_scattering_sample, fd_jacobian, random_tct_case
from ihse.measure_mc import (
    PathologicalSetSpec,
    ensemble_volume_evolution,
    estimate_pathological_measure,
)
from ihse.rng import block_generator, sample_generator
from ihse.simulator import collision_rich_configuration

from oracles import emission_map_cartesian_3d, low_energy_ensemble, scattering_velocity_jacobian


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:02d}: FAIL — {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s >= {budget_s}s"
    print(f"criterion {number:02d}: PASS — {label} ({elapsed:.1f}s)")


def draw_valid_inputs(seed: int, count: int, dim: int, eps0: float):
    """Vectorized pre-collisional, non-grazing, non-critical draws."""
    gen = block_generator(seed, dim)
    v_i = gen.standard_normal((count * 2, dim))
    v_j = gen.standard_normal((count * 2, dim))
    omega = gen.standard_normal((count * 2, dim))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    w = v_j - v_i
    approach = np.einsum("ij,ij->i", w, omega)
    flip = approach > 0
    omega[flip] = -omega[flip]
    approach = np.abs(approach)
    w2 = np.einsum("ij,ij->i", w, w)
    speed = np.sqrt(w2)
    keep = (speed > 1e-6) & (approach > 0.05 * speed) & (np.abs(w2 - 4 * eps0) > 0.05 * np.maximum(1.0, w2))
    idx = np.flatnonzero(keep)[:count]
    assert idx.size == count
    return v_i[idx], v_j[idx], omega[idx]


def test_c01_collision_law_ledger():
    with criterion(1, "momentum to 1e-12 per component, energy loss exactly eps0 or 0 to 1e-12", 5.0):
        eps0 = 0.75
        for dim in (2, 3):
            params = ModelParams(eps0)
            v_i, v_j, omega = draw_valid_inputs(101, 50_000, dim, eps0)
            assert v_i.shape[1:] == v_j.shape[1:] == omega.shape[1:] == (dim,)
            for k in range(v_i.shape[0]):
                out = scatter(v_i[k], v_j[k], omega[k], params)
                total_pre = v_i[k] + v_j[k]
                total_post = out.v_i_post + out.v_j_post
                assert np.abs(total_post - total_pre).max() <= 1e-12
                expected = eps0 if out.kind is CollisionKind.INELASTIC else 0.0
                assert abs(out.energy_loss - expected) <= 1e-12


def test_c02_elastic_involution():
    with criterion(2, "elastic reflection applied twice returns inputs to 1e-12", 5.0):
        gen = block_generator(202, 0)
        count = 100_000
        v_i = gen.standard_normal((count, 2))
        v_j = gen.standard_normal((count, 2))
        omega = gen.standard_normal((count, 2))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        for k in range(count):
            a, b = elastic_reflection(v_i[k], v_j[k], omega[k])
            back_i, back_j = elastic_reflection(a, b, omega[k])
            assert abs(back_i[0] - v_i[k][0]) <= 1e-12 and abs(back_i[1] - v_i[k][1]) <= 1e-12
            assert abs(back_j[0] - v_j[k][0]) <= 1e-12 and abs(back_j[1] - v_j[k][1]) <= 1e-12


def test_c03_planar_scattering_measure_preservation():
    with criterion(3, "emitting scattering in d=2: FD |det| = 1 +/- 1e-6 and det(2A) matches FD to 1e-8", 30.0):
        params = ModelParams(0.75)
        reports = verify_scattering_measure(10_000, params, 2, seed=303, kind=CollisionKind.INELASTIC)
        assert len(reports) == 10_000
        for index, report in enumerate(reports):
            assert 1.0 - 1e-6 <= abs(report.fd_det) <= 1.0 + 1e-6
            # det(2A) of the assembled block Jacobian, on the sample the
            # report was computed from (same per-index stream)
            gen = sample_generator(303, index)
            v_i, v_j, omega, _ = draw_scattering_sample(gen, params, 2, kind=CollisionKind.INELASTIC)
            jac = scattering_velocity_jacobian(v_i, v_j, omega, params)
            det_2a = float(np.linalg.det(jac[:2, :2] - jac[:2, 2:]))
            assert abs(det_2a - report.fd_det) / max(1.0, abs(report.fd_det)) <= 1e-8
            assert report.residual <= 1e-8  # closed form -1 vs FD


def test_c04_tensor_sum_determinant_identity():
    with criterion(4, "planar tensor-sum determinant identity to 1e-12 over 1e4 random cases", 1.0):
        gen = block_generator(404, 0)
        lam = gen.uniform(-10, 10, 10_000)
        mu = gen.uniform(-10, 10, 10_000)
        nu = gen.uniform(-10, 10, 10_000)
        u = gen.uniform(-10, 10, (10_000, 2))
        w = gen.uniform(-10, 10, (10_000, 2))
        for k in range(10_000):
            formula, direct, _ = tensor_sum_det(lam[k], mu[k], nu[k], u[k], w[k])
            cross = u[k][0] * w[k][1] - u[k][1] * w[k][0]
            scale = max(
                1.0,
                abs(lam[k]) * float(u[k] @ u[k]),
                abs(mu[k] * float(u[k] @ w[k])),
                abs(nu[k]) * float(w[k] @ w[k]),
                abs(lam[k] * nu[k]) * cross * cross,
            )
            assert abs(formula - direct) <= 1e-12 * scale


def test_c05_flow_jacobian_end_to_end():
    with criterion(
        5,
        "200 one-collision flows: FD det vs analytic product to 1e-5; elastic |det|=1 to 1e-6; "
        "emitting |det| = sqrt(1 - 4 eps0/s^2) to 1e-5",
        120.0,
    ):
        for index in range(200):
            kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
            n = 2 + index % 3
            cfg, params = random_tct_case(505, index, n, kind=kind, tau=1.0)
            report = verify_flow_jacobian(cfg, 1.0, params)
            assert report.residual <= 1e-5
            if kind is CollisionKind.ELASTIC:
                assert abs(abs(report.fd_det) - 1.0) <= 1e-6
            else:
                from ihse import classify_tct_domain

                cls = classify_tct_domain(cfg, 1.0, params)
                _, w = cfg.pair_state(cls.pair)
                s2 = float(w @ w)
                expected = math.sqrt(1.0 - 4.0 * params.epsilon0 / s2)
                assert abs(abs(report.fd_det) - expected) <= 1e-5


def test_c06_contact_time_gradient_identities():
    with criterion(6, "analytic grad_X t_c vs FD to 1e-6 and grad_V = t_c grad_X to 1e-6, 100 pairs", 5.0):
        h = 1e-6
        pair = PairIndex(1, 2)
        checked = 0
        index = 0
        while checked < 100:
            cfg, _ = random_tct_case(606, index, 2, kind=None)
            index += 1
            pred = predict_pair(cfg, pair)
            if pred.time is None or pred.discriminant <= 0.1:
                continue
            grad_x, grad_v = collision_time_gradients(cfg, pair)
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
            analytic = np.concatenate([grad_x, grad_v])
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(fd - analytic).max() <= 1e-6 * scale
            # velocity gradient is the position gradient scaled by the
            # contact time, checked on the FD side as well
            fd_scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(fd[4:] - pred.time * fd[:4]).max() <= 1e-6 * fd_scale
            assert np.array_equal(grad_v, pred.time * grad_x)
            checked += 1


def test_c07_spherical_emission_map_preserves_measure():
    with criterion(7, "d=3 radial emission map: FD |det| = 1 +/- 1e-6 over 1e3 samples", 10.0):
        params = ModelParams(0.75)
        produced = 0
        index = 0
        while produced < 1000:
            gen = sample_generator(707, index)
            index += 1
            v = gen.standard_normal(3) * 1.7
            rho = float(np.linalg.norm(v))
            if rho**3 <= 4.0 * params.epsilon0 + 0.1:
                continue
            jac = fd_jacobian(
                lambda z: (np.array([emission_map_cartesian_3d(row, params) for row in z]), [None] * len(z)), v, 1e-6
            )
            assert abs(abs(float(np.linalg.det(jac))) - 1.0) <= 1e-6
            produced += 1


def test_c08_simulator_invariants():
    with criterion(
        8,
        "500 ensembles: no overlap below 1-1e-9, KE drops exactly eps0, ledger to 1e-9, "
        "count bound floor(KE0/eps0)",
        60.0,
    ):
        params = ModelParams(0.35)
        event_counts = []
        for index in range(500):
            n = 3 + index % 3
            cfg = collision_rich_configuration(808, index, n, 2, 4.0, 1.5, 1.2)
            ke0 = kinetic_energy(cfg)
            mom0 = cfg.velocities.sum(axis=0)
            report = simulate(cfg, 10.0, params)
            event_counts.append(len(report.events))
            assert report.min_separation >= 1.0 - 1e-9
            ke = ke0
            for event in report.events:
                drop = event.ke_before - event.ke_after
                if event.kind is CollisionKind.INELASTIC:
                    assert abs(drop - params.epsilon0) <= 1e-10
                else:
                    assert abs(drop) <= 1e-10
                assert event.ke_after <= ke + 1e-10
                ke = event.ke_after
            assert abs(kinetic_energy(report.final) - (ke0 - report.n_inelastic * params.epsilon0)) <= 1e-9
            assert report.n_inelastic <= math.floor(ke0 / params.epsilon0)
            mom1 = report.final.velocities.sum(axis=0)
            assert np.abs(mom1 - mom0).max() <= 1e-9
        assert np.median(event_counts) >= 3  # T covers several collisions typically


def test_c09_low_energy_single_emission_regime():
    with criterion(9, "1000 runs with KE < 2 eps0: never more than one emitting collision", 30.0):
        params = ModelParams(0.2)
        for index in range(1000):
            cfg = low_energy_ensemble(909, index, 3, 2, params)
            assert kinetic_energy(cfg) < 2.0 * params.epsilon0
            report = simulate(cfg, 50.0, params)
            assert report.n_inelastic <= 1


def test_c10_pathological_measure_scalings():
    with criterion(
        10,
        "double-proximity volume slope 2 +/- 0.3 in delta; near-critical-speed volume slope "
        "1 +/- 0.2 in mu (1e6 samples per point, N=3)",
        300.0,
    ):
        params = ModelParams(0.01)
        deltas = [0.3, 0.15, 0.075]
        volumes = []
        for i, delta in enumerate(deltas):
            spec = PathologicalSetSpec("E", 3, 0, delta, None, 3.0, 1.0, params)
            est = estimate_pathological_measure(spec, 1_000_000, seed=1010 + i)
            assert est.hits > 0 and est.ci95 < 0.2 * est.volume
            volumes.append(est.volume)
        slope = np.polyfit(np.log(deltas), np.log(volumes), 1)[0]
        assert abs(slope - 2.0) <= 0.3, f"E-family slope {slope}"

        mus = [0.5, 0.25, 0.125]
        volumes = []
        for i, mu in enumerate(mus):
            spec = PathologicalSetSpec("P", 3, 0, 0.3, mu, 3.0, 1.0, params)
            est = estimate_pathological_measure(spec, 1_000_000, seed=2020 + i)
            assert est.hits > 0 and est.ci95 < 0.2 * est.volume
            volumes.append(est.volume)
        slope = np.polyfit(np.log(mus), np.log(volumes), 1)[0]
        assert abs(slope - 1.0) <= 0.2, f"P-family slope {slope}"


def test_c11_composed_volume_evolution():
    with criterion(
        11,
        "double-emitting chain: FD flow det within 1e-4 of the product of per-event factors; "
        "elastic multi-collision flows give 1 within 1e-6",
        60.0,
    ):
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        params = ModelParams(0.5)
        report = simulate(chain, 1.5, params)
        assert [e.kind for e in report.events] == [CollisionKind.INELASTIC, CollisionKind.INELASTIC]
        predicted, measured = ensemble_volume_evolution(chain, 1e-3, 1.5, params)
        assert abs(measured - predicted) <= 1e-4
        elastic = ModelParams(math.inf)
        checked = 0
        for index in range(12):
            cfg = collision_rich_configuration(1111, index, 3, 2, 4.0, 1.5, 1.2)
            rep = simulate(cfg, 6.0, elastic)
            if rep.halted is not None or len(rep.events) < 2:
                continue
            predicted, measured = ensemble_volume_evolution(cfg, 1e-3, 6.0, elastic)
            assert predicted == 1.0
            assert abs(measured - 1.0) <= 1e-6
            checked += 1
        assert checked >= 3
