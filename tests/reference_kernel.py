"""Pair-by-pair reference for ``ihse.collision.first_collision``, the
array contact roots as first written, a one-state collide, a one-state
reference for ``ihse.tct.tct_stack``, one for the flow determinant's
prefactor, and one-case references for the stacked ``jacobian`` cases.

The first is the scalar loop the array kernel replaced: one Python
evaluation of the contact quadratic per pair, pairs visited in
lexicographic order.  The second is ``ihse.collision._quadratic_contact_roots``
before it skipped the graze branch when no pair grazes: every output by
where passes, and a graze array even when no pair grazes.  The third is the collision step that
``ihse.simulator.simulate`` makes inline, here on Configuration objects.
The fourth is the one-collision flow of a single state composed from that
pair-by-pair scan and collide, as the stacked flow replaced it.  The fifth
collides the pair again for its post-collisional velocities, as the
prefactor was computed before it read them from the stacked flow.  The next
two check a finite-difference stencil one coordinate at a time, as the FD
oracles did before every stencil of a stack was checked in array passes.  The
last two draw and verify one ``jacobian`` case as a loop over the cases did
before the cases were stacked: each drawn state checked with
``first_collision`` and ``predict_pair``, each candidate classified alone,
and one stencil stack per case.  All stay in the tests so that the kernels can be required to give identical results,
field for field and bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

import numpy as np

from ihse import collision
from ihse.collision import (
    REARM_TIME,
    FirstCollision,
    NoCollisionError,
    collision_time_gradients,
    contact_direction,
    predict_pair,
)
from ihse.core import (
    Configuration,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    dot,
    free_transport,
    validate_configuration,
)
from ihse.jacobian_lab import (
    BranchCrossingError,
    JacobianReport,
    NonFiniteError,
    _case_draws,
    _dispatched_velocity_map,
    _stack_map,
    fd_determinant,
    fd_jacobian,
)
from ihse.rng import sample_generator
from ihse.scattering import CriticalEnergyError, ScatteringOutcome, scatter
from ihse.tct import (
    ExcludedConfigurationError,
    ExclusionReason,
    TCTDomainClass,
    classified_flow_det,
    classify_tct_domain,
    tct_stack,
)


def quadratic_contact_roots(r: np.ndarray, w: np.ndarray) -> tuple[float, float, float, Optional[tuple[float, float]]]:
    """Roots of |r + t w|^2 = 1 as (b, a, delta, (t_small, t_large))."""
    a = dot(w, w)
    b = dot(r, w)
    delta = b * b - a * (dot(r, r) - 1.0)
    if a == 0.0 or delta < 0.0:
        return b, a, delta, None
    sq = math.sqrt(delta)
    c = dot(r, r) - 1.0
    if b < 0.0:
        q = -b + sq
        return b, a, delta, (c / q, q / a)
    q = -b - sq
    if q == 0.0:
        return b, a, delta, (0.0, 0.0)
    return b, a, delta, (q / a, c / q)


def array_contact_roots(r: np.ndarray, w: np.ndarray, grazing_tol: float) -> tuple[np.ndarray, ...]:
    """(a, b, c, delta, contact, graze) of P pairs, as ihse.collision._quadratic_contact_roots."""
    a = dot(w, w)
    b = dot(r, w)
    c = dot(r, r) - 1.0
    delta = b * b - a * c
    approaching = b < 0.0
    neg_b = -b
    sq = np.sqrt(delta)
    q = np.where(approaching, neg_b + sq, neg_b - sq)
    small, large = c / q, q / a
    moving = a != 0.0
    contact = np.where(small > 0.0, small, np.where(large > 0.0, large, np.inf))
    contact = np.where(moving & (delta > grazing_tol), contact, np.inf)
    t_graze = np.where(delta > 0.0, small, neg_b / a)
    graze = np.where((np.abs(delta) <= grazing_tol) & moving & approaching & (t_graze > 0.0), t_graze, np.inf)
    return a, b, c, delta, contact, graze


def contact_time(delta: float, roots: Optional[tuple[float, float]], grazing_tol: float) -> Optional[float]:
    """Smallest strictly positive root of a transversal encounter, or None."""
    if roots is None or delta <= grazing_tol:
        return None
    t_small, t_large = roots
    if t_small > 0.0:
        return t_small
    if t_large > 0.0:
        return t_large
    return None


def pairs(n: int) -> list[PairIndex]:
    return [PairIndex(i, j) for i, j in combinations(range(1, n + 1), 2)]


def pair_prediction(cfg: Configuration, pair: PairIndex, tol: Tolerances) -> tuple[float, Optional[float], bool]:
    """(discriminant, contact time or None, grazing flag) of one pair."""
    _, _, delta, roots = quadratic_contact_roots(*cfg.pair_state(pair))
    return delta, contact_time(delta, roots, tol.grazing_tol), abs(delta) <= tol.grazing_tol


def first_collision(
    cfg: Configuration,
    horizon: float,
    *,
    tol: Tolerances = Tolerances(),
    recent_pair: Optional[PairIndex] = None,
) -> Optional[FirstCollision]:
    """Same contract as ihse.collision.first_collision, one pair at a time."""
    if horizon <= 0:
        raise NoCollisionError("horizon must be positive")
    best_time: Optional[float] = None
    best_pair: Optional[PairIndex] = None
    second: Optional[float] = None
    graze: Optional[float] = None
    for pair in pairs(cfg.n_particles):
        b, a, delta, roots = quadratic_contact_roots(*cfg.pair_state(pair))
        if abs(delta) <= tol.grazing_tol:
            t_graze = 0.0
            if a != 0.0 and b < 0.0:
                t_graze = roots[0] if delta > 0.0 else -b / a  # entry root of a shallow crossing
            if 0.0 < t_graze <= horizon and (graze is None or t_graze < graze):
                graze = t_graze
            continue
        time = contact_time(delta, roots, tol.grazing_tol)
        if time is None or (time <= REARM_TIME and pair == recent_pair):
            continue
        if best_time is None or time < best_time:
            second = best_time
            best_time, best_pair = time, pair
        elif second is None or time < second:
            second = time
    if best_time is not None and best_time > horizon:
        best_time = best_pair = None
    if best_time is None and graze is None:
        return None
    unique = best_time is None or second is None or second - best_time > tol.simultaneity_tol
    return FirstCollision(best_time, best_pair, unique, graze)


def collide(
    cfg: Configuration, pair: PairIndex, t: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> tuple[Configuration, Optional[ScatteringOutcome], float]:
    """(state, outcome, |v_i - v_j|^2): transport by t to the pair's contact,
    check the critical band, and apply the dispatched collision law.  Inside
    the band the transported state is returned unscattered with outcome
    None."""
    contact = free_transport(cfg, t)
    i, j = pair.zero_based()
    w = contact.velocities[i] - contact.velocities[j]
    w2 = dot(w, w)
    if abs(w2 - 4.0 * params.epsilon0) <= tol.crit_tol:
        return contact, None, w2
    omega = contact_direction(contact, pair)
    outcome = scatter(contact.velocities[i], contact.velocities[j], omega, params, tol=tol)
    velocities = contact.velocities.copy()
    velocities[i] = outcome.v_i_post
    velocities[j] = outcome.v_j_post
    return Configuration(contact.positions, velocities), outcome, w2


def tct_flow(
    cfg: Configuration, tau: float, params: ModelParams, tol: Tolerances
) -> tuple[TCTDomainClass, Optional[Configuration], Optional[tuple]]:
    """(classification, state at tau or None when excluded, collision record
    or None) of one state, through this module's first_collision and
    collide.  Raises what the state's scatter raises."""
    excluded = TCTDomainClass.excluded
    if not validate_configuration(cfg, tol.contact_tol).is_interior:
        return excluded(ExclusionReason.BOUNDARY_START), None, None
    scan = first_collision(cfg, tau, tol=tol)
    if scan is None:
        return TCTDomainClass.free(), free_transport(cfg, tau), None
    if scan.graze is not None:
        return excluded(ExclusionReason.GRAZING), None, None
    if not scan.unique:
        return excluded(ExclusionReason.SIMULTANEOUS), None, None
    state, outcome, _ = collide(cfg, scan.pair, scan.time, params, tol=tol)
    if outcome is None:
        return excluded(ExclusionReason.CRITICAL_ENERGY), None, None
    remaining = tau - scan.time
    if remaining > 0 and first_collision(state, remaining, tol=tol, recent_pair=scan.pair) is not None:
        return excluded(ExclusionReason.RECOLLISION), None, None
    classification = TCTDomainClass.single_collision(scan.pair, scan.time, outcome.kind)
    return classification, free_transport(state, remaining), (scan.pair, scan.time, outcome)


def flow_jacobian_prefactor(
    cfg: Configuration, pair: PairIndex, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> float:
    """1 + grad_X(t_c) . (V - V') from the analytic contact-time gradients.

    Evaluates to -1 for elastic collisions and -sqrt(1 - 4 eps0 / s^2) for
    emitting ones (s the pre-collisional relative speed), independent of
    dimension.  Raises CriticalEnergyError inside the critical band.
    """
    grad_x, _ = collision_time_gradients(cfg, pair, tol=tol)
    post, outcome, _ = collide(cfg, pair, predict_pair(cfg, pair, tol=tol).time, params, tol=tol)
    if outcome is None:
        raise CriticalEnergyError("relative speed inside the critical band around the emission threshold")
    dv = (cfg.velocities - post.velocities).ravel()
    return 1.0 + dot(grad_x, dv)


def difference_quotients(values: np.ndarray, labels, center_label, h: float, center=None) -> np.ndarray:
    """Jacobian from stencil rows +h e_0, -h e_0, +h e_1, ... (see fd_jacobian);
    given the stencil's center point, a row whose coordinate k, center[k] +
    h or center[k] - h, rounds back to center[k] raises before its label is
    read."""
    finite = np.isfinite(values).all(axis=1).tolist()
    for k in range(len(labels) // 2):
        for at, label in enumerate(labels[2 * k : 2 * k + 2]):
            if center is not None and (center[k] + h, center[k] - h)[at] == center[k]:
                raise UsageError(
                    f"finite-difference step {float(h)!r} does not move coordinate {k} (value {float(center[k])!r})"
                )
            if isinstance(label, Exception):
                raise label
            if label != center_label:
                raise BranchCrossingError(f"stencil point along coordinate {k} crosses a classification boundary")
        if not (finite[2 * k] and finite[2 * k + 1]):
            raise NonFiniteError(f"non-finite map value on the stencil of coordinate {k}")
    return ((values[0::2] - values[1::2]) / (2.0 * h)).T


def stencil_jacobians(values: np.ndarray, labels, steps: tuple[float, ...], center=None) -> list[np.ndarray]:
    """The Jacobian at each step of one stencil (the center, then per step
    its rows +h e_0, -h e_0, ...), raising the center's error and then each
    block's, one coordinate at a time (difference_quotients, which checks
    each row's step when given the center point)."""
    if isinstance(labels[0], Exception):
        raise labels[0]
    size = (len(labels) - 1) // len(steps)
    blocks = [slice(start, start + size) for start in range(1, len(labels), size)]
    return [difference_quotients(values[b], labels[b], labels[0], h, center) for b, h in zip(blocks, steps)]


def random_tct_case(
    seed: int,
    index: int,
    n_particles: int,
    *,
    kind,
    tau: float = 1.0,
    d: int = 2,
    fixed_eps0: Optional[float] = None,
    tol: Tolerances = Tolerances(),
) -> tuple[Configuration, ModelParams]:
    """ihse.jacobian_lab.random_tct_case with each drawn state of its draws
    checked alone (first_collision, then predict_pair on its pair) and each
    candidate classified alone (classify_tct_domain) before the next is
    drawn."""
    if n_particles < 2:
        raise UsageError("a one-collision case needs at least 2 particles")
    draws = _case_draws(sample_generator(seed, index), n_particles, kind, d, fixed_eps0)
    sent = None
    while True:
        try:
            request = draws.send(sent)
        except StopIteration as accepted:
            return accepted.value
        if isinstance(request[1], ModelParams):
            cfg, params = request
            sent = classify_tct_domain(cfg, tau, params, tol=tol)
        else:
            sent = precheck(Configuration(*request), tau, tol)


def precheck(cfg: Configuration, tau: float, tol: Tolerances) -> bool:
    """The checks random_tct_case makes on a drawn state before
    classification, one state at a time."""
    fc = collision.first_collision(cfg, tau, tol=tol)
    if fc is None or not fc.unique or fc.pair != PairIndex(1, 2):
        return False
    if not 0.05 * tau < fc.time < 0.8 * tau:
        return False
    return not predict_pair(cfg, fc.pair, tol=tol).discriminant < 0.1


def verify_flow_jacobian(
    cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> JacobianReport:
    """ihse.jacobian_lab.verify_flow_jacobian with one tct_stack call for the
    case's own center and stencils, and one velocity map call for its det N."""
    n, d = cfg.n_particles, cfg.dimension
    h = tol.fd_step
    center = []

    def flow(z):
        stack, values, labels = _stack_map(lambda x, v: tct_stack(x, v, tau, params.epsilon0, tol=tol), z, n, d)
        classification = stack.one(0)
        if classification.is_excluded:
            raise ExcludedConfigurationError(classification.reason)
        center.append((classification, stack.velocities[0], stack.omega[0]))
        return values, labels

    fd_det = fd_determinant(flow, cfg.to_vector(), h)
    ((classification, velocities, omega),) = center
    analytic, prefactor, _ = classified_flow_det(cfg, classification, velocities, params, tol=tol)
    det_n_fd = None
    if classification.is_single_collision:
        i, j = classification.pair.zero_based()
        z = np.concatenate([cfg.velocities[i], cfg.velocities[j]])  # free flight keeps velocities
        jac = fd_jacobian(lambda zz: _dispatched_velocity_map(zz, omega, params.epsilon0), z, h)
        det_n_fd = float(np.linalg.det(jac))
    return JacobianReport.build(analytic, fd_det, prefactor, det_n_fd, h)
