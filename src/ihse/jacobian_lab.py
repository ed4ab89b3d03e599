"""Independent numerical oracles: central finite-difference Jacobians with
branch-crossing detection, the planar tensor-sum determinant identity, and
end-to-end comparisons of analytic versus finite-difference determinants for
both the scattering map and the full one-collision flow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    FD_STEP,
    Configuration,
    IHSEError,
    ModelParams,
    Tolerances,
    UsageError,
    check_dimension,
    dot,
    dot_floats,
    pair_indices,
    pair_position,
    squared_separations,
)
from .collision import _quadratic_contact_roots, first_contacts, scan_errstate
from .rng import sample_generator, unit_floats, unit_vector
from .scattering import CollisionKind, check_error, collide, scattering_velocity_det_analytic
from .tct import classified_flow_det, tct_stack

# The most cases one stacked call holds: a jacobian run's acceptance rounds
# and its finite-difference stencils, and scatter-check's velocity-map
# stencils, are stacked this many cases at a time, which bounds the memory
# a stack takes.
CASES_PER_STACK = 100


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


def _stencil_rows(points: np.ndarray, steps: tuple[float, ...]) -> np.ndarray:
    """The rows a batch map is handed for a stack (C, m) of points: per
    point its center, then per step h the rows +h e_0, -h e_0, +h e_1, ...;
    shape (C, 1 + 2 m len(steps), m)."""
    if not steps[0] > 0:
        raise UsageError("step h must be positive")
    offsets = np.repeat(np.eye(points.shape[1]), 2, axis=0)  # +e_0, -e_0, +e_1, ...
    offsets[1::2] *= -1.0  # point + h (-e_k) is point - h e_k, bit for bit
    return np.concatenate([points[:, None]] + [points[:, None] + h * offsets for h in steps], axis=1)


def _fd_jacobians(rows: np.ndarray, values, labels: Sequence, steps: tuple[float, ...]) -> tuple[np.ndarray, list]:
    """The finite-difference Jacobians of a stack (cases, size, m) of
    stencil rows (_stencil_rows of cases points), from a batch map's values
    and labels on all of them, in their order: (jacobians (cases,
    len(steps), outputs, m), errors), errors[c] None or the error stencil c
    raises (its jacobians are then meaningless).

    The checks are array passes over every stencil at once, and a stencil's
    error is the one a loop over its rows meets first: the center's error;
    then per step and per coordinate k, ascending, the +e_k and then the
    -e_k point, each with a UsageError when it equals the center in
    coordinate k (the step does not move it), then its error before a label
    other than the center's (BranchCrossingError: no differencing across a
    discontinuity); then NonFiniteError for a non-finite value on either."""
    cases, size, m = rows.shape
    labels = np.fromiter(labels, dtype=object, count=len(labels)).reshape(cases, size)
    values = np.asarray(values, dtype=float).reshape(cases, size, -1)
    # per stencil, step and coordinate k: which of its points +e_k, -e_k keep the center's coordinate k,
    # and which are off the center's label
    perturbed = np.diagonal(rows[:, 1:].reshape(cases, len(steps), m, 2, m), axis1=2, axis2=4)
    unmoved = np.equal(perturbed, rows[:, :1, None]).swapaxes(-1, -2).reshape(cases, -1, 2)
    crossing = np.not_equal(labels[:, 1:], labels[:, :1]).reshape(cases, -1, 2)
    finite = np.isfinite(values[:, 1:]).all(axis=-1).reshape(cases, -1, 2).all(axis=-1)
    failed = (unmoved | crossing).any(axis=-1) | ~finite
    errors = [center if isinstance(center, Exception) else None for center in labels[:, 0].tolist()]
    for c in np.flatnonzero(failed.any(axis=-1)).tolist():
        if errors[c] is None:
            at = int(failed[c].argmax())
            k = at % m
            point = unmoved[c, at] | crossing[c, at]
            sign = int(point.argmax())  # the +e_k point first
            if not point.any():
                errors[c] = NonFiniteError(f"non-finite map value on the stencil of coordinate {k}")
            elif unmoved[c, at, sign]:
                h, x = float(steps[at // m]), float(rows[c, 0, k])
                errors[c] = UsageError(f"finite-difference step {h!r} does not move coordinate {k} (value {x!r})")
            else:
                label = labels[c, 1 + 2 * at + sign]
                message = f"stencil point along coordinate {k} crosses a classification boundary"
                errors[c] = label if isinstance(label, Exception) else BranchCrossingError(message)
    h = np.repeat(steps, m)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):  # a stencil with an error may hold inf
        quotients = (values[:, 1::2] - values[:, 2::2]) / (2.0 * h)
    return quotients.reshape(cases, len(steps), m, -1).swapaxes(-1, -2), errors


def _fd_dets(rows: np.ndarray, values, labels: Sequence, steps: tuple[float, ...]) -> tuple[list, list]:
    """The finite-difference determinants of a stack of stencils, as for
    _fd_jacobians: (dets, errors), dets[c] None when stencil c raises
    errors[c].  At one step h a determinant is det(h); at steps (h, h/2) it
    is the Richardson value (4 det(h/2) - det(h)) / 3, and a relative
    disagreement beyond 0.1 is an UnreliableStencilError, after every
    _fd_jacobians error."""
    jacobians, errors = _fd_jacobians(rows, values, labels, steps)
    dets: list = [None] * len(rows)
    ok = [c for c, error in enumerate(errors) if error is None]
    for c, at_steps in zip(ok, np.linalg.det(jacobians[ok]).tolist()):
        det_h, det_half = at_steps[0], at_steps[-1]
        if len(steps) == 1:
            dets[c] = det_h
        elif abs(det_h - det_half) > 0.1 * max(1.0, abs(det_half)):
            errors[c] = UnreliableStencilError(f"determinants at h and h/2 disagree: {det_h} vs {det_half}")
        else:
            dets[c] = (4.0 * det_half - det_h) / 3.0
    return dets, errors


def _stencil_values(fn, point, steps: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, Sequence]:
    """The stencil rows (1, size, m) of one point, and fn's (values, labels)
    on them."""
    point = np.asarray(point, dtype=float)
    if point.ndim != 1:
        raise UsageError("point must be a flat vector")
    rows = _stencil_rows(point[None], steps)
    return (rows, *fn(rows[0]))


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
    the +e_k and then the -e_k point, each with a UsageError when h does not
    move its coordinate k (x + h == x), then its error before a label other
    than the center's (BranchCrossingError: no differencing across a
    discontinuity); then NonFiniteError for a non-finite value on either.
    The one-point view of _fd_jacobians.
    """
    jacobians, (error,) = _fd_jacobians(*_stencil_values(fn, point, (h,)), (h,))
    if error is not None:
        raise error
    return jacobians[0, 0]


def fd_determinant(fn, point, h: float = FD_STEP) -> float:
    """Determinant of the finite-difference Jacobian of fn (a batch map, as
    for fd_jacobian).

    The determinant is computed at steps h and h/2 and
    Richardson-extrapolated; a relative disagreement beyond 0.1 flags the
    stencil as unreliable.  The center and the stencils at both steps go to
    fn in one call; every failure at step h comes before any at h/2, and
    UnreliableStencilError comes last.  The one-point view of _fd_dets.
    """
    (det,), (error,) = _fd_dets(*_stencil_values(fn, point, (h, h / 2.0)), (h, h / 2.0))
    if error is not None:
        raise error
    return det


def tensor_sum_det(lam: float, mu: float, nu: float, u, omega) -> tuple[float, float, float]:
    """(closed form, direct 2x2 determinant, scale) of
    I + lam u(x)u + mu u(x)omega + nu omega(x)omega.  The closed form is
    1 + lam |u|^2 + mu u.omega + nu |omega|^2 + lam nu (u x omega)^2, its
    terms added in that order; scale is the largest of 1 and their
    magnitudes, the size both sides cancel in their own order."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(omega, dtype=float)
    if u.shape != (2,) or w.shape != (2,):
        raise UsageError("the tensor-sum identity is planar: u and omega must be 2-vectors")
    cross = u[0] * w[1] - u[1] * w[0]
    terms = (lam * dot(u, u), mu * dot(u, w), nu * dot(w, w), lam * nu * cross * cross)
    formula = 1.0 + terms[0] + terms[1] + terms[2] + terms[3]
    matrix = (
        np.eye(2)
        + lam * np.outer(u, u)
        + mu * np.outer(u, w)
        + nu * np.outer(w, w)
    )
    return formula, float(np.linalg.det(matrix)), max(1.0, *map(abs, terms))


def _dispatched_velocity_map(points: np.ndarray, omega: np.ndarray, epsilon0) -> tuple[np.ndarray, list]:
    """Batch map: post-collision velocities (v_i', v_j') of rows (v_i, v_j)
    at contact direction omega (d,), or one per row (R, d), and the quantum
    epsilon0 (a float, or one per row), labelled True where the collision
    law emits.  A non-unit omega of an emitting row is a UsageError; no
    other check of collide's stops a row."""
    columns, d = list(points.T), points.shape[1] // 2
    omega = omega.tolist() if omega.ndim == 1 else list(omega.T)
    _, failed, (vi_post, vj_post, _, _, emitting) = collide(columns[:d], columns[d:], omega, epsilon0)
    if np.any(failed[0] & emitting):  # check 0: omega is unit
        raise check_error(0)
    return np.array(vi_post + vj_post).T, emitting.tolist()


def _velocity_map_dets(v_i: np.ndarray, v_j: np.ndarray, omega: np.ndarray, epsilon0, h: float) -> tuple[list, list]:
    """The finite-difference determinants (step h) of the velocity maps of C
    pairs, v_i, v_j and omega (C, d) and epsilon0 (C,) one per pair, as for
    _fd_dets: every stencil is a row block of one _dispatched_velocity_map
    call."""
    rows = _stencil_rows(np.concatenate([v_i, v_j], axis=1), (h,))
    size = rows.shape[1]
    omega, epsilon0 = np.repeat(omega, size, axis=0), np.repeat(epsilon0, size)
    values, labels = _dispatched_velocity_map(rows.reshape(-1, rows.shape[2]), omega, epsilon0)
    return _fd_dets(rows, values, labels, (h,))


def draw_scattering_sample(
    gen: np.random.Generator, params: ModelParams, d: int, *, kind: Optional[CollisionKind] = None
):
    """Random pre-collisional, non-grazing, non-critical (v_i, v_j, omega) in
    d dimensions: N(0, 1) velocities, a uniform unit omega, at most 1000 tries.

    kind forces the emitting or elastic branch.  Margins keep the draw away
    from grazing contact (|w.omega| >= 0.05 |w|) and from the dispatch
    threshold (|w|^2 - 4 eps0 beyond 0.05 max(1, |w|^2)), so finite
    differences stay on one branch.
    """
    for _ in range(1000):
        v_i = gen.standard_normal(d)
        v_j = gen.standard_normal(d)
        omega = unit_vector(gen, d)
        w = v_j - v_i
        w2 = dot(w, w)
        if w2 < 1e-6:
            continue
        if dot(w, omega) > 0.0:
            omega = -omega
        if abs(dot(w, omega)) < 0.05 * math.sqrt(w2):
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
    d: int,
    seed: int,
    *,
    kind: Optional[CollisionKind] = None,
    h: float = FD_STEP,
) -> list:
    """Per sample index, (v_i, v_j, omega, report), or instead the error its
    draw or its finite difference raises: each sample is drawn once
    (draw_scattering_sample in dimension d on the stream
    sample_generator(seed, index)), and the report compares the
    finite-difference determinant (step h) of the velocity scattering map
    at the sample with the closed-form determinant
    scattering_velocity_det_analytic.  Every sample is drawn first, then
    the drawn samples' stencils are differenced CASES_PER_STACK at a time,
    each chunk as one stack, so each sample gets the report or the error it
    gets alone."""
    if samples <= 0:
        raise UsageError("samples must be positive")
    check_dimension(d)
    results: list = []
    for index in range(samples):
        try:
            results.append(draw_scattering_sample(sample_generator(seed, index), params, d, kind=kind)[:3])
        except IHSEError as error:
            results.append(error)
    drawn = [c for c, result in enumerate(results) if not isinstance(result, IHSEError)]
    for start in range(0, len(drawn), CASES_PER_STACK):
        chunk = drawn[start : start + CASES_PER_STACK]
        v_i, v_j, omega = (np.stack(column) for column in zip(*(results[c] for c in chunk)))
        dets, errors = _velocity_map_dets(v_i, v_j, omega, [params.epsilon0] * len(chunk), h)
        w = v_j - v_i
        for c, s2, det, error in zip(chunk, dot(w, w).tolist(), dets, errors):
            analytic = scattering_velocity_det_analytic(s2, params, d)
            results[c] = (*results[c], JacobianReport.build(analytic, det, None, None, h)) if error is None else error
    return results


def verify_scattering_measure(
    samples: int,
    params: ModelParams,
    d: int,
    seed: int,
    *,
    kind: Optional[CollisionKind] = None,
    h: float = FD_STEP,
) -> list[JacobianReport]:
    """Finite-difference determinants of the velocity scattering map on
    random valid inputs in dimension d, with the closed-form determinant
    scattering_velocity_det_analytic alongside, on both branches in any
    dimension: -1 elastic, -(1 - 4 eps0 / s^2)^((d-2)/2) emitting.  So the
    emitting map preserves velocity measure (|det| = 1) only in d=2.

    Sampling is keyed per index, so the report list is independent of
    evaluation order.  The reports of scattering_measure_samples; raises
    the first sample's error.
    """
    return [_value(result)[-1] for result in scattering_measure_samples(samples, params, d, seed, kind=kind, h=h)]


def _stack_map(run, points: np.ndarray, n: int, d: int):
    """The stacked flow of phase-space rows as a batch map: run (tct_stack or
    simulate_stack, horizon and parameters bound) on the rows split into
    (S, N, d) positions and velocities, as (stack, values, labels): the
    rows of its final states (NaN where it gives none) and its labels()."""
    m = n * d
    stack = run(points[:, :m].reshape(-1, n, d), points[:, m:].reshape(-1, n, d))
    values = np.concatenate([stack.positions.reshape(-1, m), stack.velocities.reshape(-1, m)], axis=1)
    return stack, values, stack.labels()


def _value(result):
    """A batched function's result for one case, raised when it is an error."""
    if isinstance(result, IHSEError):
        raise result
    return result


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
    comes before any finite-difference failure.  The one-case view of
    verify_flow_jacobians; raises the case's error."""
    return _value(verify_flow_jacobians([(cfg, params)], tau, tol=tol)[0])


def verify_flow_jacobians(cases: Sequence, tau: float, *, tol: Tolerances = Tolerances()) -> list:
    """verify_flow_jacobian of each case (cfg, params) over [0, tau], or
    instead the error it raises there; a case given as an error is passed
    through.  The cases share one particle count and dimension.

    Up to CASES_PER_STACK cases run as one stacked flow (_FlowStencils):
    every case's center and stencils at h and h/2 are rows of one tct_stack
    call, each with its case's quantum, and each case's fd_determinant takes
    its slice.  Then the velocity maps of the single-collision cases are one
    dispatched law call.  So each case gets the report or the error it gets
    alone, bit for bit.  random_flow_jacobians reads its reports from the
    stacks that classify its candidates, the same way."""
    results = list(cases)
    drawn = [c for c, case in enumerate(results) if not isinstance(case, IHSEError)]
    for start in range(0, len(drawn), CASES_PER_STACK):
        chunk = drawn[start : start + CASES_PER_STACK]
        stencils = _FlowStencils([results[c] for c in chunk], tau, tol)
        for c, result in zip(chunk, stencils.reports(range(len(chunk)))):
            results[c] = result
    return results


class _FlowStencils:
    """The stencil stack of cases (cfg, params) that form one stack: every
    case's center and stencils at h and h/2 as rows of one tct_stack call
    over [0, tau], each row at its case's quantum, with every case's
    finite-difference determinant (_fd_dets).  Case c's center is row
    c * size, so its classification (verdict) and its report (reports)
    come from the one call.  A lockstep draw's acceptance round is the
    stack of its candidates (_draw_rounds)."""

    def __init__(self, cases: list, tau: float, tol: Tolerances):
        h = tol.fd_step
        n, d = cases[0][0].n_particles, cases[0][0].dimension
        points = np.stack([cfg.to_vector() for cfg, _ in cases])
        rows = _stencil_rows(points, (h, h / 2.0))
        self.cases, self.tol, self.size, self.n = cases, tol, rows.shape[1], n
        self.v0 = points[:, n * d :].reshape(-1, n, d)
        self.eps0 = np.repeat([p.epsilon0 for _, p in cases], self.size)
        flow = lambda x, v: tct_stack(x, v, tau, self.eps0, tol=tol)
        self.stack, values, labels = _stack_map(flow, np.concatenate(rows), n, d)
        self.fd_dets, self.errors = _fd_dets(rows, values, labels, (h, h / 2.0))  # a centre's error comes first

    def verdict(self, c: int):
        """Case c's classification, read from its centre row, or instead the
        error its state raises."""
        error = self.stack.error(c * self.size)
        return self.stack.one(c * self.size) if error is None else error

    def reports(self, chosen: Sequence[int]) -> list:
        """verify_flow_jacobian of each chosen case, in their order, or
        instead the error it raises."""
        stack, size, tol, n = self.stack, self.size, self.tol, self.n
        results = {c: self.errors[c] for c in chosen}
        classified = {c: stack.one(c * size) for c in chosen if stack.error(c * size) is None}
        for c, classification in classified.items():
            # an excluded centre's error comes first, the analytic determinant's after the FD errors
            if classification.is_excluded or results[c] is None:
                cfg, params = self.cases[c]
                try:
                    det, prefactor, _ = classified_flow_det(
                        cfg, classification, stack.velocities[c * size], params, tol=tol
                    )
                except IHSEError as error:
                    results[c] = error
                else:
                    results[c] = (det, self.fd_dets[c], prefactor)
        colliding = [
            c
            for c, classification in classified.items()
            if classification.is_single_collision and not isinstance(results[c], IHSEError)
        ]
        det_n_fd = dict.fromkeys(chosen)
        if colliding:
            k = np.array([pair_position(n, classified[c].pair) for c in colliding])
            i, j = (index[k] for index in pair_indices(n))
            # free flight keeps velocities: the pair's at contact are its initial ones
            v_i, v_j, centres = self.v0[colliding, i], self.v0[colliding, j], size * np.array(colliding)
            dets, errors = _velocity_map_dets(v_i, v_j, stack.omega[centres], self.eps0[centres], tol.fd_step)
            for c, det, error in zip(colliding, dets, errors):
                det_n_fd[c] = det
                if error is not None:
                    results[c] = error
        return [
            result if isinstance(result, IHSEError) else JacobianReport.build(*result, det_n_fd[c], tol.fd_step)
            for c, result in results.items()
        ]


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
    At most 2000 draws are tried, on the stream sample_generator(seed,
    index), and each candidate is classified as the centre of its stencil
    stack.  The one-case view of random_tct_cases; raises the case's error.
    """
    cases = random_tct_cases(seed, [index], n_particles, kinds=[kind], tau=tau, d=d, fixed_eps0=fixed_eps0, tol=tol)
    return _value(cases[0])


def random_tct_cases(
    seed: int,
    indices: Sequence[int],
    n_particles: int,
    *,
    kinds: Sequence[Optional[CollisionKind]],
    tau: float = 1.0,
    d: int = 2,
    fixed_eps0: Optional[float] = None,
    tol: Tolerances = Tolerances(),
) -> list:
    """random_tct_case of each index in indices, with kind kinds[c] for
    indices[c], or instead the error it raises there.

    The draws run in lockstep (_draw_rounds), CASES_PER_STACK cases at a
    time; each acceptance round is one stencil stack of its candidates
    (_FlowStencils), and an accepted case is its round's case at its row.
    So every case makes the draws, and gets the configuration or the error,
    that it makes and gets alone.  A d < 2 or a tau outside (0, inf) is a
    UsageError, raised before any draw.
    """
    results = itertools.chain.from_iterable(_draw_rounds(seed, indices, n_particles, kinds, tau, d, fixed_eps0, tol))
    return [result if isinstance(result, IHSEError) else result[0].cases[result[1]] for result in results]


def random_flow_jacobians(
    seed: int,
    indices: Sequence[int],
    n_particles: int,
    *,
    kinds: Sequence[Optional[CollisionKind]],
    tau: float = 1.0,
    d: int = 2,
    fixed_eps0: Optional[float] = None,
    tol: Tolerances = Tolerances(),
) -> list:
    """verify_flow_jacobian over [0, tau] of each case random_tct_case draws
    at indices[c] with kind kinds[c], or instead the error its draw or its
    verification raises there: random_tct_cases, then
    verify_flow_jacobians, with each state solved once.

    Each acceptance round of the lockstep draws (_draw_rounds) is one
    stencil stack (_FlowStencils), and the accepted cases of a round get
    their reports from it in one reports call.  So a run whose first
    candidates all pass makes one tct_stack call per CASES_PER_STACK cases.
    Every case gets the draws, the report and the error it gets alone, bit
    for bit.
    """
    results: list = []
    for chunk in _draw_rounds(seed, indices, n_particles, kinds, tau, d, fixed_eps0, tol):
        accepted: dict = {}  # per round, its accepted cases and their rows
        for c, result in enumerate(chunk, len(results)):
            if not isinstance(result, IHSEError):
                accepted.setdefault(result[0], []).append((c, result[1]))
        results += chunk
        for stencils, cases in accepted.items():
            chosen, rows = zip(*cases)
            for c, report in zip(chosen, stencils.reports(rows)):
                results[c] = report
    return results


def _draw_rounds(seed, indices, n_particles, kinds, tau, d, fixed_eps0, tol):
    """The lockstep draws of random_tct_cases, CASES_PER_STACK cases at a
    time, as a generator of each chunk's results: per index, the (stencils,
    row) of the acceptance round that classified its accepted case, or
    instead the error it raises.

    Each round checks the pending drawn state of every case in one pass
    (_prechecks), until every pending case holds a candidate that passes;
    then the candidates form one _FlowStencils, each candidate's verdict is
    its centre row, and each rejected case draws again from its own
    stream."""
    if n_particles < 2:
        raise UsageError("a one-collision case needs at least 2 particles")
    check_dimension(d)
    if not 0 < tau < math.inf:
        raise UsageError("tau must be positive and finite")
    for start in range(0, len(indices), CASES_PER_STACK):
        chunk = range(start, min(start + CASES_PER_STACK, len(indices)))
        draws = {
            c: _case_draws(sample_generator(seed, indices[c]), n_particles, kinds[c], d, fixed_eps0) for c in chunk
        }
        results = dict.fromkeys(chunk)  # per case, its error or the (stencils, row) of its latest round
        sent = dict.fromkeys(chunk)  # what each case's draws are sent next
        candidates = {}  # the cases whose candidate (cfg, params) awaits its classification
        while sent:
            drawn = {}  # the cases whose drawn state awaits its pre-check
            for c, value in sent.items():
                try:
                    request = draws[c].send(value)
                except StopIteration:
                    pass  # accepted: results[c] holds the round that classified it
                except IHSEError as error:
                    results[c] = error
                else:  # a candidate (cfg, params), or a drawn state (positions, velocities)
                    (candidates if isinstance(request[1], ModelParams) else drawn)[c] = request
            if drawn:
                x, v = (np.array(states) for states in zip(*drawn.values()))
                sent = dict(zip(drawn, _prechecks(x, v, tau, tol).tolist()))
            elif candidates:
                stencils = _FlowStencils(list(candidates.values()), tau, tol)
                sent = {}
                for row, c in enumerate(candidates):
                    verdict = stencils.verdict(row)
                    if isinstance(verdict, IHSEError):
                        results[c] = verdict
                    else:
                        results[c], sent[c] = (stencils, row), verdict
                candidates = {}
            else:
                break
        yield list(results.values())


def _prechecks(positions: np.ndarray, velocities: np.ndarray, tau: float, tol: Tolerances) -> np.ndarray:
    """Per drawn state of a stack (C, N, d), the checks random_tct_case makes
    before classification: its first contact over [0, tau] is unique, of the
    pair (1, 2) and in (0.05 tau, 0.8 tau), and that pair's discriminant (as
    predict_pair gives it) is at least 0.1."""
    r, w = positions[:, 0] - positions[:, 1], velocities[:, 0] - velocities[:, 1]
    with scan_errstate():  # parallel, non-meeting and subnormal pairs
        time, k, unique, _, _ = first_contacts(positions, velocities, tol=tol)
        _, _, _, delta, _, _ = _quadratic_contact_roots(r, w, tol.grazing_tol)
    return unique & (k == 0) & (0.05 * tau < time) & (time < 0.8 * tau) & (delta >= 0.1)


def _case_draws(gen: np.random.Generator, n_particles: int, kind, d: int, fixed_eps0):
    """random_tct_case's draws from gen, as a generator.  It yields each
    drawn state as (positions, velocities), lists of N lists of Python
    floats, and is sent back whether it passes _prechecks; a state that
    passes gets its quantum, is yielded as the candidate (cfg, params) and
    is sent back the candidate's classification.  Returns the accepted
    (cfg, params).  Each coordinate is a Python float, computed with the
    generator calls and the operations, in their order, of the array form
    kept in tests/reference_draws.py."""
    for _ in range(2000):
        positions = _spread_positions(gen, n_particles, d, min_gap=3.6, spread=2.0 + 1.5 * n_particles)
        # Pull particle 1 onto a shell close to particle 2 so contact falls
        # well inside the horizon.
        shell = 1.3 + 0.9 * gen.random()
        positions[0] = [b + shell * u for b, u in zip(positions[1], unit_floats(gen, d))]
        velocities = [[0.2 * z for z in row] for row in gen.standard_normal((n_particles, d)).tolist()]
        # Aim particle 1 at particle 2 with a sub-diameter impact parameter.
        gap = [b - a for a, b in zip(positions[0], positions[1])]
        dist = math.sqrt(dot_floats(gap, gap))
        direction = [g / dist for g in gap]
        tangent = unit_floats(gen, d)
        along = dot_floats(tangent, direction)
        tangent = [t - along * e for t, e in zip(tangent, direction)]
        t_norm = math.sqrt(dot_floats(tangent, tangent))
        tangent = [t / t_norm for t in tangent] if t_norm > 1e-9 else [0.0] * d
        speed = 1.5 + gen.random()
        impact = 0.5 * gen.random()
        velocities[0] = [b + speed * e + impact * t for b, e, t in zip(velocities[1], direction, tangent)]
        if not (yield positions, velocities):
            continue
        w = [a - b for a, b in zip(velocities[0], velocities[1])]
        s2 = dot_floats(w, w)
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
        cfg, params = Configuration(positions, velocities), ModelParams(eps0)
        classification = yield cfg, params
        if not classification.is_single_collision:
            continue
        if kind is not None and classification.kind is not kind:
            continue
        return cfg, params
    raise IHSEError("failed to draw a one-collision configuration within the retry budget")


def _spread_positions(gen: np.random.Generator, n: int, d: int, *, min_gap: float, spread: float) -> list:
    """n points uniform in the cube [-spread, spread]^d with every pairwise
    gap at least min_gap, at most 500 tries, as lists of Python floats.  A
    gap is the root of squared_separations' sum: dot's, left to right, below
    8 coordinates, and numpy's own reduction from 8 up."""
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(500):
        pts = [[spread * u for u in row] for row in gen.uniform(-1.0, 1.0, size=(n, d)).tolist()]
        if d >= 8:
            if (np.sqrt(squared_separations(np.array(pts))) >= min_gap).all():
                return pts
            continue
        for i, j in pairs:
            r = [a - b for a, b in zip(pts[i], pts[j])]
            if not math.sqrt(dot_floats(r, r)) >= min_gap:
                break
        else:
            return pts
    raise IHSEError("failed to spread particles")
