"""Event-driven multi-collision dynamics on [0, T]: iterated advance-scatter
steps with an energy ledger, collision counting, pathology detection, and
collision-count bound checks.
"""

from __future__ import annotations

import math
import operator
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
    check_dimension,
    check_reach,
    domain_masks,
    dot,
    dot_floats,
    kinetic_energy,
    pair_index_table,
    pair_indices,
    pair_position,
    reach_error,
    reduce_rows,
    squared_separations,
    within_reach,
)
from .collision import first_contacts, scan_errstate
from .rng import sample_generator, uniform_ball
from .scattering import CRITICAL_BAND, CollisionKind, check_error, collide

PATHOLOGY_SIMULTANEOUS = "simultaneous"
PATHOLOGY_GRAZING = "grazing"
PATHOLOGY_CRITICAL_ENERGY = "critical_energy"
PATHOLOGY_MAX_EVENTS = "max_events"
NOT_INTERIOR = "initial configuration must be interior (all gaps > 1)"


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
        """Hashable (pair position in pair_indices, emitting) per event, then
        ("halted", reason) when the run halts; used as a branch label when
        differentiating the multi-collision flow map, so it is compared only
        between runs of one particle count."""
        n = self.final.n_particles
        return _signature(((pair_position(n, e.pair), e.kind is _KINDS[1]) for e in self.events), self.halted)


@dataclass(frozen=True)
class SimStack:
    """Row by row, what simulate gives each state of a stack alone: its
    error (None when the run does not raise), its final state (NaN when the
    run raises), and the record its report is built from when read
    (report): simulate's record, per event (time, pair position in
    pair_indices, emitting, ke_before, ke_after, rel_speed_sq), the halt
    and the minimum squared separation."""

    errors: list[Optional[IHSEError]]
    positions: np.ndarray  # (S, N, d)
    velocities: np.ndarray  # (S, N, d)
    events: list[list[tuple]]
    halted: list[Optional[Pathology]]
    min_sq: np.ndarray  # (S,)

    def report(self, row: int) -> Optional[SimReport]:
        """The row's report, None when its run raises."""
        if self.errors[row] is not None:
            return None
        return _report(self.events[row], self.positions[row], self.velocities[row], self.min_sq[row], self.halted[row])

    def labels(self) -> list:
        """Per row, its run's event_signature, or instead the error the run
        raises alone, built without building the row's report."""
        return [
            _signature(map(_STEP, events), halted) if error is None else error
            for error, events, halted in zip(self.errors, self.events, self.halted)
        ]


_KINDS = (CollisionKind.ELASTIC, CollisionKind.INELASTIC)  # by emitting
_STEP = operator.itemgetter(1, 2)  # an event record's (pair position, emitting)


def _signature(steps, halted: Optional[Pathology]) -> tuple:
    """A run's branch label: its (pair position, emitting) per event, then
    ("halted", reason) when the run halts."""
    signature = tuple(steps)
    return signature if halted is None else signature + (("halted", halted.reason),)


def _report(records: list, x: np.ndarray, v: np.ndarray, min_sq: float, halted: Optional[Pathology]) -> SimReport:
    """The report of a run's record (SimStack's), its final state and its
    minimum squared separation: the one place a SimEvent is built, its pair
    from pair_index_table."""
    pairs = pair_index_table(x.shape[0])
    events = tuple(SimEvent(t, pairs[k], _KINDS[emits], *ledger) for t, k, emits, *ledger in records)
    n_inelastic = sum(emits for _, _, emits, *_ in records)
    return SimReport(events, Configuration(x, v), len(events) - n_inelastic, n_inelastic, math.sqrt(min_sq), halted)


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


def collide_stack(
    positions: np.ndarray, velocities: np.ndarray, k: np.ndarray, t: np.ndarray, epsilon0, *, tol: Tolerances
) -> tuple[np.ndarray, ...]:
    """simulate's collision on a stack (R, N, d) of states, row r with the
    pair at position k[r] of pair_indices, the contact time t[r] and the
    quantum epsilon0 (a float, or epsilon0[r] when one is given per row),
    each row with the bits simulate gives it at that quantum.  Returns
    (positions, velocities, omega, rel_speed_sq, emitting, check, sigma,
    kappa) at the contacts, sigma and kappa as collide gives them.  check
    is -1 for a scattered row, else the SCATTER_CHECKS index of the first
    failed check: the critical band (CRITICAL_BAND; the row is left
    unscattered, as simulate leaves it) before scatter's own checks.  The
    law is collide's, handed the rows taken from the flat (R N, d) views as
    lists of column views (rows.T) and written back through the column
    views of v_rows.T; a failed row gets its velocities back."""
    rows, n, d = positions.shape
    row_start = np.arange(0, rows * n, n)
    i, j = (row_start + index[k] for index in pair_indices(n))  # the pair's rows in the (R N, d) views
    x, v = positions + t[:, None, None] * velocities, velocities.copy()
    x_rows, v_rows = x.reshape(-1, d), v.reshape(-1, d)
    v_i, v_j, r = v_rows.take(i, axis=0), v_rows.take(j, axis=0), x_rows.take(i, axis=0) - x_rows.take(j, axis=0)
    omega = -r / np.sqrt(dot(r, r))[:, None]
    w2, failed, law = collide(list(v_i.T), list(v_j.T), list(omega.T), epsilon0, tol)
    vi_post, vj_post, sigma, kappa, emitting = law
    for column, post_i, post_j in zip(v_rows.T, vi_post, vj_post):
        column[i], column[j] = post_i, post_j
    failed, check = np.array(failed), np.full(k.size, -1)
    if failed.any():  # a row that fails a check keeps its velocities
        check = np.where(failed[CRITICAL_BAND], CRITICAL_BAND, np.where(failed.any(axis=0), failed.argmax(axis=0), -1))
        kept = check >= 0
        v_rows[i[kept]], v_rows[j[kept]] = v_i[kept], v_j[kept]
    return x, v, omega, w2, emitting, check, sigma, kappa


def simulate(cfg: Configuration, T: float, params: ModelParams, *, tol: Tolerances = Tolerances()) -> SimReport:
    """Run the event-driven dynamics from an interior configuration to a
    finite time T, the state carried as two arrays between events.

    Each event is one all-pairs scan of the carried arrays (first_contacts)
    over the remaining time, then the collision at the earliest pair contact
    (transport, then collide on the pair's rows as Python floats: a halt on
    the critical band, scatter's error on any other failed check, else the
    law), as collide_stack collides a simulate_stack row; no event builds a
    Configuration.  The loop holds the scans' error state (scan_errstate)
    once for the run.  A graze at or before the next contact, or with no
    contact left, halts the run; so do near-simultaneous distinct-pair
    contacts, relative speeds inside the critical band and event count
    overflow, each with an in-band pathology record.  The run's record is
    a SimStack row's, one tuple per event, and its report is built from it
    (_report).  Each ke_before is the previous event's ke_after.
    min_separation covers every time in [0, T] the run reaches: the start
    is probed once (squared_separations, which the interior check also
    reads), then each segment advanced takes its exact minimum squared gap
    from its own scan (first_contacts' closest).
    """
    check_reach(cfg, T, "T", "a coordinate")
    x, v = cfg.positions, cfg.velocities.copy()
    squared = squared_separations(x)
    if np.logical_or(*domain_masks(squared, tol.contact_tol)).any():
        raise UsageError(NOT_INTERIOR)
    records: list[tuple] = []
    first, second = (index.tolist() for index in pair_indices(cfg.n_particles))
    recent = -1  # the position of the pair scattered last
    min_sq, ke = float(squared.min(initial=np.inf)), kinetic_energy(cfg)
    now = 0.0
    halted: Optional[Pathology] = None
    with scan_errstate():
        while (remaining := T - now) > 0:
            time, k, unique, graze, closest = first_contacts(x, v, remaining, tol=tol, recent=recent)
            if graze <= min(time, remaining):
                halted = Pathology(PATHOLOGY_GRAZING, now + graze)
                break
            if time <= remaining and not unique:
                halted = Pathology(PATHOLOGY_SIMULTANEOUS, now + time)
                break
            min_sq = min(min_sq, 1.0 + closest)
            if time > remaining:
                x, now = x + remaining * v, T
                break
            x, now = x + time * v, now + time
            i, j = first[k], second[k]
            r = [a - b for a, b in zip(x[i].tolist(), x[j].tolist())]
            norm = math.sqrt(dot_floats(r, r))
            omega = [-c / norm for c in r]
            rel_speed_sq, failed, law = collide(v[i].tolist(), v[j].tolist(), omega, params.epsilon0, tol)
            if failed[CRITICAL_BAND]:
                halted = Pathology(PATHOLOGY_CRITICAL_ENERGY, now)
                break
            if law is None:
                raise check_error(failed.index(True))
            v[i], v[j], _, _, emitting = law
            ke_before, ke = ke, 0.5 * float((v**2).sum())  # as kinetic_energy sums
            records.append((now, k, emitting, ke_before, ke, rel_speed_sq))
            recent = k
            if len(records) >= tol.max_events:
                halted = Pathology(PATHOLOGY_MAX_EVENTS, now)
                break

    return _report(records, x, v, min_sq, halted)


def simulate_stack(
    positions: np.ndarray, velocities: np.ndarray, T: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> SimStack:
    """simulate on a stack (S, N, d) of states, the rows advanced in
    lockstep: each step scans the running rows at once, settles every row's
    verdict as simulate does, folds the scan's minimum squared gap of the
    moving rows into min_separation and collides the colliding rows
    together (collide_stack).  Every row gets the report, the final state
    and the error simulate gives its state alone, bit for bit: a start out
    of reach over [0, T] (within_reach, simulate's check_reach), a
    non-interior start and a failed scatter check are that row's error.
    simulate stays the one-state loop: on one state it is the faster of the
    two.
    """
    if not 0 < T < math.inf:
        raise UsageError("T must be positive and finite")
    s = positions.shape[0]
    x, v = np.array(positions, dtype=float), np.array(velocities, dtype=float)
    reachable = within_reach(x, v, T)
    # One error state for the run: rows out of reach may overflow the start's
    # separations and energies, and the scans leave theirs to the caller.
    with scan_errstate():
        squared = squared_separations(x)
        interior = ~reduce_rows(np.logical_or, np.logical_or(*domain_masks(squared, tol.contact_tol)), False)
        min_sq = reduce_rows(np.minimum, squared, np.inf)
        ke = 0.5 * np.square(v).sum(axis=(1, 2))
        errors = [None if ok else UsageError(NOT_INTERIOR) for ok in interior]
        errors = [error if fits else reach_error("T", "a coordinate") for error, fits in zip(errors, reachable)]
        running = reachable & interior
        now, recent = np.zeros(s), np.full(s, -1)
        events, halted = [[] for _ in range(s)], [None] * s
        while (active := np.flatnonzero(running & (T - now > 0))).size:
            remaining = T - now[active]
            time, k, unique, graze, closest = first_contacts(
                x[active], v[active], remaining, tol=tol, recent=recent[active]
            )
            grazing = graze <= np.minimum(time, remaining)
            free = ~grazing & ~(time <= remaining)
            simultaneous = ~(grazing | free | unique)
            colliding = ~(grazing | free) & unique
            for a in np.flatnonzero(grazing | simultaneous).tolist():
                reason, t = (PATHOLOGY_GRAZING, graze[a]) if grazing[a] else (PATHOLOGY_SIMULTANEOUS, time[a])
                halted[active[a]] = Pathology(reason, float(now[active[a]] + t))
            running[active[grazing | simultaneous]] = False
            moving = free | colliding
            min_sq[active[moving]] = np.minimum(min_sq[active[moving]], 1.0 + closest[moving])
            if free.any():
                rows = active[free]
                x[rows] += remaining[free, None, None] * v[rows]
                now[rows] = T
            if not colliding.any():
                continue
            rows, k, t = active[colliding], k[colliding], time[colliding]
            x[rows], v[rows], _, w2, emitting, check, _, _ = collide_stack(
                x[rows], v[rows], k, t, params.epsilon0, tol=tol
            )
            now[rows] += t
            recent[rows] = k  # a row whose scatter fails stops running
            ke_before, ke[rows] = ke[rows], 0.5 * np.square(v[rows]).sum(axis=(1, 2))
            ledger = zip(
                now[rows].tolist(), k.tolist(), emitting.tolist(), ke_before.tolist(), ke[rows].tolist(), w2.tolist()
            )
            for row, event, failed in zip(rows.tolist(), ledger, check.tolist()):
                if failed < 0:
                    events[row].append(event)
                    if len(events[row]) < tol.max_events:
                        continue
                    halted[row] = Pathology(PATHOLOGY_MAX_EVENTS, event[0])
                elif failed == CRITICAL_BAND:
                    halted[row] = Pathology(PATHOLOGY_CRITICAL_ENERGY, event[0])
                else:
                    errors[row] = check_error(failed)
                running[row] = False
    raised = np.array([error is not None for error in errors], dtype=bool)
    x[raised] = v[raised] = np.nan
    return SimStack(errors, x, v, events, halted, min_sq)


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
) -> Configuration:
    """Interior configuration with the stacked position vector drawn
    uniformly from the ball |X| <= r_positions (rejection sampled, at most
    10000 tries, for every pairwise gap above 1 + 1e-9) and the stacked
    velocity vector uniform in |V| <= r_velocities.  A radius that is not
    positive and finite is a UsageError, raised before any draw, and so is a
    ball that cannot hold the particles: gaps above 1 give
    N |X|^2 >= sum over pairs of |x_i - x_j|^2 > N (N - 1) / 2, so
    r_positions must exceed sqrt((N - 1) / 2) (exact for N <= d + 1, a
    regular simplex).  Near the float limit a draw may overflow: a state
    with a non-finite coordinate is rejected like an overlapping one."""
    check_dimension(dimension)
    if n_particles < 1:
        raise UsageError("need at least one particle")
    if not (0 < r_positions < math.inf and 0 < r_velocities < math.inf):
        raise UsageError("R1 and R2 must be positive and finite")
    least = math.sqrt((n_particles - 1) / 2)  # not r_positions**2, which overflows near the float limit
    if r_positions <= least:
        raise UsageError(
            f"{n_particles} particles at gaps above 1 need R1 > sqrt((N - 1) / 2) = {least!r}, got {r_positions!r}"
        )
    gen = sample_generator(seed, index)
    dof = n_particles * dimension
    with np.errstate(over="ignore", invalid="ignore"):  # huge radii: squares and draws may overflow
        for _ in range(10000):
            x = uniform_ball(gen, 1, dof, r_positions)[0].reshape(n_particles, dimension)
            if np.isfinite(x).all() and (np.sqrt(squared_separations(x)) > 1.0 + 1e-9).all():
                v = uniform_ball(gen, 1, dof, r_velocities)[0].reshape(n_particles, dimension)
                if np.isfinite(v).all():
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
        norm = math.sqrt(dot(towards, towards))
        if norm > 1e-9:
            velocities[k] = velocities[k] + inward_bias * towards / norm
    return Configuration(cfg.positions, velocities)
