"""Independent numerical oracles: central finite-difference Jacobians with
branch-crossing detection, the planar tensor-sum determinant identity, and
end-to-end comparisons of analytic versus finite-difference determinants for
both the scattering map and the full one-collision flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    FD_STEP,
    Configuration,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    pair_separations,
)
from .collision import first_collision, predict_pair
from .rng import sample_generator, unit_vector
from .scattering import CollisionKind, check_unit, dispatched_law, scattering_velocity_det_analytic
from .tct import ExcludedConfigurationError, classified_flow_det, classify_tct_domain, tct_stack


class BranchCrossingError(IHSEError):
    """A finite-difference stencil point classified differently from the
    stencil center, so the difference quotient spans a discontinuity."""


class NonFiniteError(IHSEError):
    """A map evaluation produced a non-finite value."""


class UnreliableStencilError(IHSEError):
    """Step-halving disagreement too large: the stencil is untrustworthy."""


@dataclass(frozen=True)
class JacobianReport:
    """Analytic vs finite-difference determinant comparison for one input."""

    analytic_det: float
    fd_det: float
    prefactor: Optional[float]
    det_N_fd: Optional[float]
    residual: float
    step: float

    @staticmethod
    def build(analytic_det, fd_det, prefactor, det_n_fd, step) -> "JacobianReport":
        residual = abs(analytic_det - fd_det) / max(1.0, abs(fd_det))
        return JacobianReport(analytic_det, fd_det, prefactor, det_n_fd, residual, step)


@dataclass(frozen=True)
class TensorLemmaCase:
    """Planar determinant identity input: det(I + lam u(x)u + mu u(x)w +
    nu w(x)w) against its closed form."""

    lam: float
    mu: float
    nu: float
    u: np.ndarray
    omega: np.ndarray


def _difference_quotients(values: np.ndarray, labels, center_label, h: float) -> np.ndarray:
    """Jacobian from stencil rows +h e_0, -h e_0, +h e_1, ... (see fd_jacobian)."""
    for k in range(len(labels) // 2):
        for label in labels[2 * k : 2 * k + 2]:
            if isinstance(label, Exception):
                raise label
            if label != center_label:
                raise BranchCrossingError(f"stencil point along coordinate {k} crosses a classification boundary")
        if not np.isfinite(values[2 * k : 2 * k + 2]).all():
            raise NonFiniteError(f"non-finite map value on the stencil of coordinate {k}")
    return ((values[0::2] - values[1::2]) / (2.0 * h)).T


def _fd_jacobians(fn, point, steps: tuple[float, ...]) -> list[np.ndarray]:
    """fd_jacobian at each step, with one call of fn on every stencil."""
    point = np.asarray(point, dtype=float)
    if point.ndim != 1:
        raise IHSEError("point must be a flat vector")
    if not steps[0] > 0:
        raise IHSEError("step h must be positive")
    offsets = np.eye(point.size)
    stencils = [np.stack([point + h * offsets, point - h * offsets], axis=1) for h in steps]
    values, labels = fn(np.concatenate([point[None]] + [rows.reshape(-1, point.size) for rows in stencils]))
    values = np.asarray(values, dtype=float)
    if isinstance(labels[0], Exception):
        raise labels[0]
    rows = [slice(start, start + 2 * point.size) for start in range(1, len(labels), 2 * point.size)]
    return [_difference_quotients(values[r], labels[r], labels[0], h) for r, h in zip(rows, steps)]


def fd_jacobian(
    fn: Callable[[np.ndarray], tuple[np.ndarray, Sequence]],
    point,
    h: float = FD_STEP,
) -> np.ndarray:
    """Central-difference Jacobian of a map at point, one column per input
    coordinate, shape (outputs, inputs).

    fn is a batch map: from points as rows of an (S, n) array it returns
    (values (S, m), labels of length S), a branch label per row or instead
    the exception that row raises alone.  The center and its 2n stencil
    points go to fn in one call.  Failures come as a loop over the points
    would meet them: the center's error; then per coordinate k, ascending,
    the +e_k and then the -e_k point, each with its error before a label
    other than the center's (BranchCrossingError: no differencing across a
    discontinuity); then NonFiniteError for a non-finite value on either.
    """
    return _fd_jacobians(fn, point, (h,))[0]


def fd_determinant(fn, point, h: float = FD_STEP) -> float:
    """Determinant of the finite-difference Jacobian of fn (a batch map, as
    for fd_jacobian).

    The determinant is computed at steps h and h/2 and
    Richardson-extrapolated; a relative disagreement beyond 0.1 flags the
    stencil as unreliable.  The center and the stencils at both steps go to
    fn in one call; every failure at step h comes before any at h/2, and
    UnreliableStencilError comes last.
    """
    det_h, det_half = (float(np.linalg.det(jac)) for jac in _fd_jacobians(fn, point, (h, h / 2.0)))
    if abs(det_h - det_half) > 0.1 * max(1.0, abs(det_half)):
        raise UnreliableStencilError(
            f"determinants at h and h/2 disagree: {det_h} vs {det_half}"
        )
    return (4.0 * det_half - det_h) / 3.0


def tensor_sum_det(case: TensorLemmaCase) -> tuple[float, float]:
    """(closed form, direct 2x2 determinant) of
    I + lam u(x)u + mu u(x)omega + nu omega(x)omega."""
    u = np.asarray(case.u, dtype=float)
    w = np.asarray(case.omega, dtype=float)
    if u.shape != (2,) or w.shape != (2,):
        raise IHSEError("the tensor-sum identity is planar: u and omega must be 2-vectors")
    cross = u[0] * w[1] - u[1] * w[0]
    formula = (
        1.0
        + case.lam * float(u @ u)
        + case.mu * float(u @ w)
        + case.nu * float(w @ w)
        + case.lam * case.nu * cross * cross
    )
    matrix = (
        np.eye(2)
        + case.lam * np.outer(u, u)
        + case.mu * np.outer(u, w)
        + case.nu * np.outer(w, w)
    )
    return formula, float(np.linalg.det(matrix))


def _dispatched_velocity_map(points: np.ndarray, omega: np.ndarray, params: ModelParams) -> tuple[np.ndarray, list]:
    """Batch map: post-collision velocities (v_i', v_j') of rows (v_i, v_j)
    at contact direction omega, labelled with the collision law's branch."""
    d = omega.size
    v_i, v_j = points[:, :d], points[:, d:]
    vi_post, vj_post, emitting = dispatched_law(v_i, v_j, omega, params.epsilon0)
    if emitting.any():
        check_unit(omega)
    kinds = [CollisionKind.INELASTIC if e else CollisionKind.ELASTIC for e in emitting]
    return np.concatenate([vi_post, vj_post], axis=1), kinds


def draw_scattering_sample(
    gen: np.random.Generator,
    params: ModelParams,
    *,
    kind: Optional[CollisionKind] = None,
):
    """Random pre-collisional, non-grazing, non-critical (v_i, v_j, omega):
    standard normal velocities and a uniform unit omega, at most 1000 tries.

    kind forces the emitting or elastic branch.  Margins keep the draw away
    from grazing contact (|w.omega| >= 0.05 |w|) and from the dispatch
    threshold (|w|^2 - 4 eps0 beyond 0.05 max(1, |w|^2)), so finite
    differences stay on one branch.
    """
    d = params.dimension
    for _ in range(1000):
        v_i = gen.standard_normal(d)
        v_j = gen.standard_normal(d)
        omega = unit_vector(gen, d)
        w = v_j - v_i
        w2 = float(w @ w)
        if w2 < 1e-6:
            continue
        if float(w @ omega) > 0.0:
            omega = -omega
        if abs(float(w @ omega)) < 0.05 * math.sqrt(w2):
            continue
        if abs(w2 - 4.0 * params.epsilon0) <= 0.05 * max(1.0, w2):
            continue
        drawn = CollisionKind.INELASTIC if w2 > 4.0 * params.epsilon0 else CollisionKind.ELASTIC
        if kind is not None and drawn is not kind:
            continue
        return v_i, v_j, omega, drawn
    raise IHSEError("could not draw a valid scattering sample within the retry budget")


def scattering_measure_samples(
    samples: int,
    params: ModelParams,
    seed: int,
    *,
    kind: Optional[CollisionKind] = None,
    h: float = FD_STEP,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, JacobianReport]]:
    """(v_i, v_j, omega, report) per sample index, each sample drawn once
    (draw_scattering_sample on its own stream sample_generator(seed, index)):
    the report compares the finite-difference determinant (step h) of the
    velocity scattering map at the sample with the closed-form determinant
    scattering_velocity_det_analytic."""
    if samples <= 0:
        raise IHSEError("samples must be positive")
    for index in range(samples):
        v_i, v_j, omega, _ = draw_scattering_sample(sample_generator(seed, index), params, kind=kind)
        z = np.concatenate([v_i, v_j])
        jac = fd_jacobian(lambda zz: _dispatched_velocity_map(zz, omega, params), z, h)
        w = v_j - v_i
        analytic = scattering_velocity_det_analytic(float(w @ w), params)
        yield v_i, v_j, omega, JacobianReport.build(analytic, float(np.linalg.det(jac)), None, None, h)


def verify_scattering_measure(
    samples: int,
    params: ModelParams,
    seed: int,
    *,
    kind: Optional[CollisionKind] = None,
    h: float = FD_STEP,
) -> list[JacobianReport]:
    """Finite-difference determinants of the velocity scattering map on
    random valid inputs, with the closed-form determinant
    scattering_velocity_det_analytic alongside, on both branches in any
    dimension: -1 elastic, -(1 - 4 eps0 / s^2)^((d-2)/2) emitting.  So the
    emitting map preserves velocity measure (|det| = 1) only in d=2.

    Sampling is keyed per index, so the report list is independent of
    evaluation order.  The reports of scattering_measure_samples.
    """
    return [report for *_, report in scattering_measure_samples(samples, params, seed, kind=kind, h=h)]


def _stack_map(run, points: np.ndarray, n: int, d: int):
    """The stacked flow of phase-space rows as a batch map: run (tct_stack or
    simulate_stack, horizon and parameters bound) on the rows split into
    (S, N, d) positions and velocities, as (stack, values, labels): the
    rows of its final states (NaN where it gives none) and its labels()."""
    m = n * d
    stack = run(points[:, :m].reshape(-1, n, d), points[:, m:].reshape(-1, n, d))
    values = np.concatenate([stack.positions.reshape(-1, m), stack.velocities.reshape(-1, m)], axis=1)
    return stack, values, stack.labels()


def verify_flow_jacobian(
    cfg: Configuration,
    tau: float,
    params: ModelParams,
    *,
    tol: Tolerances = Tolerances(),
) -> JacobianReport:
    """Compare the analytic flow determinant (prefactor * det N) against the
    finite-difference determinant (step tol.fd_step) of the full phase-space
    flow map, and report the finite-difference determinant of the colliding
    pair's velocity map at contact (the only non-identity block of det N).
    The state runs once, as row 0 of the stencil: its error or exclusion
    comes before any finite-difference failure."""
    n, d = cfg.n_particles, cfg.dimension
    h = tol.fd_step
    center = []

    def flow(z):
        stack, values, labels = _stack_map(lambda x, v: tct_stack(x, v, tau, params, tol=tol), z, n, d)
        classification = stack.one(0)
        if classification.is_excluded:
            raise ExcludedConfigurationError(classification.reason)
        center.append((classification, stack.velocities[0], stack.omega[0]))
        return values, labels

    fd_det = fd_determinant(flow, cfg.to_vector(), h)
    (classification, velocities, omega), = center
    analytic, prefactor, _ = classified_flow_det(cfg, classification, velocities, params, tol=tol)
    det_n_fd = None
    if classification.is_single_collision:
        i, j = classification.pair.zero_based()
        z = np.concatenate([cfg.velocities[i], cfg.velocities[j]])  # free flight keeps velocities
        jac = fd_jacobian(lambda zz: _dispatched_velocity_map(zz, omega, params), z, h)
        det_n_fd = float(np.linalg.det(jac))
    return JacobianReport.build(analytic, fd_det, prefactor, det_n_fd, h)


def random_tct_case(
    seed: int,
    index: int,
    n_particles: int,
    *,
    kind: Optional[CollisionKind],
    tau: float = 1.0,
    d: int = 2,
    fixed_eps0: Optional[float] = None,
    tol: Tolerances = Tolerances(),
) -> tuple[Configuration, ModelParams]:
    """Random configuration classified as a single collision of the given
    kind over [0, tau], with margins keeping finite-difference stencils on
    one branch.

    One pair is aimed to collide; the remaining particles drift slowly far
    apart.  The energy quantum is set per draw from the colliding pair's
    relative speed so that both branches are exercised well away from the
    dispatch threshold; pass fixed_eps0 to pin it instead (draws whose
    relative speed falls near 4*eps0 or on the wrong branch are rejected).
    At most 2000 draws are tried.
    """
    if n_particles < 2:
        raise UsageError("a one-collision case needs at least 2 particles")
    gen = sample_generator(seed, index)
    for _ in range(2000):
        positions = _spread_positions(gen, n_particles, d, min_gap=3.6, spread=2.0 + 1.5 * n_particles)
        # Pull particle 1 onto a shell close to particle 2 so contact falls
        # well inside the horizon.
        shell = 1.3 + 0.9 * gen.random()
        positions[0] = positions[1] + shell * unit_vector(gen, d)
        velocities = 0.2 * gen.standard_normal((n_particles, d))
        # Aim particle 1 at particle 2 with a sub-diameter impact parameter.
        gap = positions[1] - positions[0]
        dist = float(np.linalg.norm(gap))
        direction = gap / dist
        tangent = unit_vector(gen, d)
        tangent -= float(tangent @ direction) * direction
        t_norm = float(np.linalg.norm(tangent))
        if t_norm > 1e-9:
            tangent /= t_norm
        else:
            tangent = np.zeros(d)
        speed = 1.5 + gen.random()
        impact = 0.5 * gen.random()
        velocities[0] = velocities[1] + speed * direction + impact * tangent
        cfg = Configuration(positions, velocities)
        fc = first_collision(cfg, tau, tol=tol)
        if fc is None or not fc.unique or fc.pair != PairIndex(1, 2):
            continue
        if not 0.05 * tau < fc.time < 0.8 * tau:
            continue
        pred = predict_pair(cfg, fc.pair, tol=tol)
        if pred.discriminant < 0.1:
            continue
        _, w = cfg.pair_state(fc.pair)
        s2 = float(w @ w)
        if fixed_eps0 is not None:
            eps0 = fixed_eps0
            if abs(s2 - 4.0 * eps0) <= 0.15 * max(1.0, s2):
                continue
            drawn = CollisionKind.INELASTIC if s2 > 4.0 * eps0 else CollisionKind.ELASTIC
            if kind is not None and drawn is not kind:
                continue
        else:
            target = kind
            if target is None:
                target = CollisionKind.INELASTIC if gen.random() < 0.5 else CollisionKind.ELASTIC
            if target is CollisionKind.INELASTIC:
                eps0 = s2 * (0.15 + 0.6 * gen.random()) / 4.0
            else:
                eps0 = s2 * (0.3 + 0.5 * gen.random())
        params = ModelParams(eps0, d)
        classification = classify_tct_domain(cfg, tau, params, tol=tol)
        if not classification.is_single_collision:
            continue
        if kind is not None and classification.kind is not kind:
            continue
        return cfg, params
    raise IHSEError("failed to draw a one-collision configuration within the retry budget")


def _spread_positions(gen: np.random.Generator, n: int, d: int, *, min_gap: float, spread: float) -> np.ndarray:
    """n points uniform in the cube [-spread, spread]^d with every pairwise
    gap at least min_gap, at most 500 tries."""
    for _ in range(500):
        pts = spread * gen.uniform(-1.0, 1.0, size=(n, d))
        if (pair_separations(pts) >= min_gap).all():
            return pts
    raise IHSEError("failed to spread particles")
