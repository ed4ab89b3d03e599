"""Event-driven multi-collision dynamics on [0, T]: iterated advance-scatter
steps with an energy ledger, collision counting, pathology detection, and
collision-count bound checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Configuration,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    free_transport,
    kinetic_energy,
    min_pair_separation,
    pair_separations,
    validate_configuration,
)
from .collision import FirstCollision, contact_direction, first_collision
from .rng import sample_generator, uniform_ball
from .scattering import CollisionKind, ScatteringOutcome, scatter

PATHOLOGY_SIMULTANEOUS = "simultaneous"
PATHOLOGY_GRAZING = "grazing"
PATHOLOGY_CRITICAL_ENERGY = "critical_energy"
PATHOLOGY_MAX_EVENTS = "max_events"

# Free-flight overlap probes per run, evenly spaced over [0, T].
N_CHECKPOINTS = 100


@dataclass(frozen=True)
class SimEvent:
    time: float
    pair: PairIndex
    kind: CollisionKind
    ke_before: float
    ke_after: float
    rel_speed_sq: float  # pre-collisional |v_i - v_j|^2


@dataclass(frozen=True)
class Pathology:
    reason: str
    time: float


@dataclass(frozen=True)
class SimReport:
    events: tuple[SimEvent, ...]
    final: Configuration
    n_elastic: int
    n_inelastic: int
    min_separation: float
    halted: Optional[Pathology] = None

    @property
    def event_signature(self) -> tuple:
        """Hashable (pair, kind) sequence; used as a branch label when
        differentiating the multi-collision flow map."""
        sig = tuple((e.pair.i, e.pair.j, e.kind.value) for e in self.events)
        if self.halted is not None:
            sig = sig + (("halted", self.halted.reason),)
        return sig


@dataclass(frozen=True)
class BoundCheck:
    """Margins of the run against the a-priori collision-count bounds."""

    inelastic_count: int
    inelastic_limit: int
    inelastic_margin: int
    inelastic_ok: bool
    event_count: int
    event_limit: int
    event_margin: int
    events_ok: bool


@dataclass(frozen=True)
class Step:
    """One event step: the all-pairs scan and, when it found a unique first
    contact and no grazing encounter, the state at that contact with the
    pair scattered.  The pair is left unscattered (outcome None) when its
    squared relative speed lies in the critical band around 4 eps0."""

    scan: Optional[FirstCollision]
    state: Optional[Configuration] = None
    outcome: Optional[ScatteringOutcome] = None
    rel_speed_sq: Optional[float] = None


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
    w2 = float(w @ w)
    if abs(w2 - 4.0 * params.epsilon0) <= tol.crit_tol:
        return contact, None, w2
    omega = contact_direction(contact, pair)
    outcome = scatter(contact.velocities[i], contact.velocities[j], omega, params, tol=tol)
    velocities = contact.velocities.copy()
    velocities[i] = outcome.v_i_post
    velocities[j] = outcome.v_j_post
    return Configuration(contact.positions, velocities), outcome, w2


def event_step(
    cfg: Configuration,
    horizon: float,
    params: ModelParams,
    *,
    tol: Tolerances = Tolerances(),
    recent_pair: Optional[PairIndex] = None,
) -> Step:
    """Scan all pairs over (0, horizon], then collide the first contact when
    it is unique and no grazing encounter lies inside the horizon."""
    scan = first_collision(cfg, horizon, tol=tol, recent_pair=recent_pair)
    if scan is None or scan.graze is not None or not scan.unique:
        return Step(scan)
    return Step(scan, *collide(cfg, scan.pair, scan.time, params, tol=tol))


def simulate(cfg: Configuration, T: float, params: ModelParams, *, tol: Tolerances = Tolerances()) -> SimReport:
    """Run the event-driven dynamics from an interior configuration to time T.

    Each step advances to the earliest pair contact, applies the dispatched
    collision law, and continues.  Near-simultaneous distinct-pair contacts,
    grazing encounters at or before the next contact, relative speeds inside
    the critical band, and event count overflow halt the run with an in-band
    pathology record.
    """
    if T <= 0:
        raise UsageError("T must be positive")
    if not validate_configuration(cfg, tol.contact_tol).is_interior:
        raise UsageError("initial configuration must be interior (all gaps > 1)")
    checkpoint_times = T * np.arange(1, N_CHECKPOINTS + 1) / N_CHECKPOINTS
    events: list[SimEvent] = []
    min_sep = cfg.min_separation()
    state = cfg
    now = 0.0
    recent: Optional[PairIndex] = None
    halted: Optional[Pathology] = None
    next_checkpoint = 0

    def advance_through(segment_end: float):
        """Overlap probes at the checkpoints inside the segment, transported
        from the segment's start in one array operation."""
        nonlocal next_checkpoint, min_sep
        stop = int(np.searchsorted(checkpoint_times, segment_end + 1e-15, side="right"))
        if stop > next_checkpoint:
            t = checkpoint_times[next_checkpoint:stop] - now
            min_sep = min(min_sep, min_pair_separation(state.positions + t[:, None, None] * state.velocities))
            next_checkpoint = stop

    while True:
        remaining = T - now
        if remaining <= 0:
            break
        step = event_step(state, remaining, params, tol=tol, recent_pair=recent)
        scan = step.scan
        if scan is not None and scan.graze is not None:
            if scan.time is None or scan.graze <= scan.time:
                halted = Pathology(PATHOLOGY_GRAZING, now + scan.graze)
                break
            # The graze lies past the next contact: step up to that contact.
            step = event_step(state, scan.time, params, tol=tol, recent_pair=recent)
            scan = step.scan
        if scan is None:
            advance_through(T)
            state = free_transport(state, remaining)
            now = T
            break
        if not scan.unique:
            halted = Pathology(PATHOLOGY_SIMULTANEOUS, now + scan.time)
            break
        advance_through(now + scan.time)
        ke_before = kinetic_energy(state)
        state = step.state
        now += scan.time
        min_sep = min(min_sep, state.min_separation())
        if step.outcome is None:
            halted = Pathology(PATHOLOGY_CRITICAL_ENERGY, now)
            break
        events.append(SimEvent(now, scan.pair, step.outcome.kind, ke_before, kinetic_energy(state), step.rel_speed_sq))
        recent = scan.pair
        if len(events) >= tol.max_events:
            halted = Pathology(PATHOLOGY_MAX_EVENTS, now)
            break

    n_inelastic = sum(1 for e in events if e.kind is CollisionKind.INELASTIC)
    return SimReport(
        events=tuple(events),
        final=state,
        n_elastic=len(events) - n_inelastic,
        n_inelastic=n_inelastic,
        min_separation=min_sep,
        halted=halted,
    )


def check_collision_bounds(
    report: SimReport, params: ModelParams, initial: Configuration, *, tol: Tolerances = Tolerances()
) -> BoundCheck:
    """Check the run against the a-priori bounds: the number of emitting
    collisions cannot exceed floor(KE_initial / epsilon0) (each removes
    exactly epsilon0), and the total event count must stay below the
    configured ceiling (empirical finiteness)."""
    ke0 = kinetic_energy(initial)
    ratio = ke0 / params.epsilon0
    inelastic_limit = int(math.floor(ratio)) if math.isfinite(ratio) else 0
    event_count = len(report.events)
    return BoundCheck(
        inelastic_count=report.n_inelastic,
        inelastic_limit=inelastic_limit,
        inelastic_margin=inelastic_limit - report.n_inelastic,
        inelastic_ok=report.n_inelastic <= inelastic_limit,
        event_count=event_count,
        event_limit=tol.max_events,
        event_margin=tol.max_events - event_count,
        events_ok=event_count < tol.max_events,
    )


def random_configuration(
    seed: int,
    index: int,
    n_particles: int,
    dimension: int,
    r_positions: float,
    r_velocities: float,
    *,
    min_gap: float = 1.0 + 1e-9,
    max_tries: int = 10000,
) -> Configuration:
    """Interior configuration with the stacked position vector drawn
    uniformly from the ball |X| <= r_positions (rejection sampled for
    pairwise gaps) and the stacked velocity vector uniform in
    |V| <= r_velocities."""
    gen = sample_generator(seed, index)
    dof = n_particles * dimension
    for _ in range(max_tries):
        x = uniform_ball(gen, 1, dof, r_positions)[0].reshape(n_particles, dimension)
        if (pair_separations(x) > min_gap).all():
            v = uniform_ball(gen, 1, dof, r_velocities)[0].reshape(n_particles, dimension)
            return Configuration(x, v)
    raise IHSEError(
        f"could not place {n_particles} interior particles in |X| <= {r_positions} within the retry budget"
    )


def collision_rich_configuration(
    seed: int,
    index: int,
    n_particles: int,
    dimension: int,
    r_positions: float,
    r_velocities: float,
    inward_bias: float,
) -> Configuration:
    """Random interior configuration whose velocities carry a drift toward
    the cluster center, so desk-scale runs typically see several collisions
    before the particles disperse."""
    cfg = random_configuration(seed, index, n_particles, dimension, r_positions, r_velocities)
    center = cfg.positions.mean(axis=0)
    velocities = cfg.velocities.copy()
    for k in range(n_particles):
        towards = center - cfg.positions[k]
        norm = float(np.linalg.norm(towards))
        if norm > 1e-9:
            velocities[k] = velocities[k] + inward_bias * towards / norm
    return Configuration(cfg.positions, velocities)
