"""Per-pair collision prediction for unit-diameter spheres: grazing
discriminants, first-contact times over all pairs, and analytic gradients of
the first collision time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Configuration,
    IHSEError,
    PairIndex,
    Tolerances,
    dot,
    pair_differences,
    pair_index_table,
    pair_position,
    reduce_rows,
)

# A pair is ignored below this root when it has just collided: post-collision
# states sit numerically on the contact sphere and would otherwise re-report
# the crossing they are leaving.
REARM_TIME = 1e-12


class GrazingCollisionError(IHSEError):
    """Tangential contact: the contact-time function has a degenerate root."""


class NoCollisionError(IHSEError):
    """Requested collision data for a pair that never reaches contact."""


@dataclass(frozen=True)
class CollisionPrediction:
    """Prediction for one pair: discriminant, earliest positive contact time
    (absent for receding, parallel, or grazing pairs), and the grazing flag."""

    pair: PairIndex
    discriminant: float
    time: Optional[float]
    grazing: bool


@dataclass(frozen=True)
class FirstCollision:
    """One scan of all pairs over a horizon: the earliest contact (time and
    pair, both None when no pair reaches contact in time), whether it is
    unique, and the earliest grazing encounter (None when there is none)."""

    time: Optional[float]
    pair: Optional[PairIndex]
    unique: bool
    graze: Optional[float] = None


def _quadratic_contact_roots(r: np.ndarray, w: np.ndarray, grazing_tol: float) -> tuple[Optional[np.ndarray], ...]:
    """Roots of |r + t w|^2 = 1 for P pairs at once, from (P, d) arrays of
    relative positions r = x_i - x_j and relative velocities w = v_i - v_j.

    Returns six length-P arrays (graze None when no pair grazes):
      - a = |w|^2, b = r.w and c = |r|^2 - 1, the coefficients of the
        squared gap |r + t w|^2 - 1 = a t^2 + 2 b t + c;
      - delta: the discriminant b^2 - a c;
      - contact: the smallest strictly positive root of a transversal
        encounter (delta > grazing_tol), inf when the pair recedes, moves
        in parallel or grazes;
      - graze: the encounter time of a grazing pair (|delta| <=
        grazing_tol) that approaches (a != 0, b < 0), when positive: its
        entry root c/q when delta > 0 (its centres are one diameter apart
        there, before the closest approach), else -b/a; inf otherwise.

    Roots are the cancellation-free pair q/a, c/q with q = -b -/+ sqrt(delta).
    The dot products are core.dot's, elementwise and left to right, so a
    pair's coefficients do not depend on how many pairs are solved together
    or on the host's BLAS.  Callers hold scan_errstate(): parallel and
    non-meeting pairs divide by zero or root negative deltas, and at
    subnormal speeds c/q overflows to an infinite root, so such a pair has
    no contact.
    """
    a = dot(w, w)
    b = dot(r, w)
    c = dot(r, r)
    c -= 1.0
    delta = b * b
    delta -= a * c
    neg_b = -b
    sq = np.sqrt(delta)
    q = np.where(b < 0.0, neg_b + sq, neg_b - sq)
    # With a > 0 and delta > 0, q < 0 when b >= 0: then q/a is negative
    # and c/q is the only candidate.  When b < 0, c/q is the smaller
    # root and q/a the larger, which is positive only for states inside
    # the contact sphere (interior configurations never take it).
    small = c / q
    # A creeping pair (|w|^2 underflows to a = 0 while b * b does not) has
    # delta = b^2 > 0 and a finite c/q: a != 0 keeps it still in the contact
    # mask, as it is in the graze rule.
    moving = a != 0.0
    contact = np.where(small > 0.0, small, q / a)
    contact[~((contact > 0.0) & (delta > grazing_tol) & moving)] = np.inf
    grazing = np.abs(delta) <= grazing_tol
    if not grazing.any():  # the common case: no graze to time
        return a, b, c, delta, contact, None
    t_graze = np.where(delta > 0.0, small, neg_b / a)
    graze = np.where(grazing & moving & (b < 0.0) & (t_graze > 0.0), t_graze, np.inf)
    return a, b, c, delta, contact, graze


def scan_errstate() -> np.errstate:
    """The error state first_contacts and _quadratic_contact_roots leave to
    their callers: divide, invalid and overflow ignored.  An engine loop
    enters it once per run, not once per scan (each entry and exit costs a
    few microseconds); within_reach bounds every coordinate of the states it
    runs, so no other operation of the loop can warn."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def contact_direction(cfg: Configuration, pair: PairIndex) -> np.ndarray:
    """Unit vector from particle i toward particle j."""
    r, _ = cfg.pair_state(pair)  # x_i - x_j
    return -r / math.sqrt(dot(r, r))


def predict_pair(cfg: Configuration, pair: PairIndex, *, tol: Tolerances = Tolerances()) -> CollisionPrediction:
    """Full prediction record for one pair."""
    r, w = cfg.pair_state(pair)
    with scan_errstate():
        *_, deltas, contacts, _ = _quadratic_contact_roots(r[None], w[None], tol.grazing_tol)
    delta, time = float(deltas[0]), float(contacts[0])
    return CollisionPrediction(pair, delta, time if time < math.inf else None, abs(delta) <= tol.grazing_tol)


def _closest_gaps(a: np.ndarray, b: np.ndarray, c: np.ndarray, span) -> np.ndarray:
    """Per pair, the squared gap a t^2 + 2 b t + c at the pair's closest
    approach clipped to [0, span]."""
    t = np.fmin(np.fmax(-b / a, 0.0), span)  # fmax: a still pair's 0/0 is 0
    return c + t * (b + b + t * a)


def first_contacts(
    positions: np.ndarray,
    velocities: np.ndarray,
    horizon: float | np.ndarray | None = None,
    *,
    tol: Tolerances = Tolerances(),
    recent: int | np.ndarray = -1,
) -> tuple:
    """first_collision's scan of a stack (S, N, d) of states, contacts not
    cut at the horizon: per state the earliest contact time (inf if none),
    its pair's index in pair_indices order, whether it is unique, the
    earliest graze (inf if none), and closest, the minimum of every pair's
    squared gap |r + t w|^2 - 1 over [0, min(contact, horizon)].  closest
    is computed only when a horizon (a float, or one per state) is given,
    else it is None.  recent is the position in pair_indices of the pair
    scattered last, an int or one per state (S,), -1 for none.

    The reductions follow the shape: a stack gets arrays of shape (S,), one
    state (positions (N, d)) gets Python numbers, (float, int, bool, float,
    float or None), reduced without numpy's per-call cost on 0-d arrays.  A
    stack is reduced over its pairs with core.reduce_rows, and its earliest
    contact is its argmin's entry, read from the flat view.  Both take the
    same roots, tie, simultaneity and graze rules, and a minimum is exact in
    any order, so a state scanned alone gets the bits of its row in a
    stack.

    closest comes from each pair's coefficients at its closest approach
    clipped to that span, t* = clip(-b/a, 0, span), never from the roots: it
    also sees a contact the roots, the re-arm mask or the graze rule miss.
    It is exact but for rounding, a few ulps of max(1, |r|^2).

    Callers hold scan_errstate(), one block per run of their loop: parallel
    pairs divide by zero, where no pair meets second - time is inf - inf,
    and subnormal speeds overflow c/q."""
    r, w = pair_differences(positions), pair_differences(velocities)
    a, b, c, _, contact, graze = _quadratic_contact_roots(r, w, tol.grazing_tol)
    if contact.ndim == 1:  # one state: its reductions on Python numbers
        if recent >= 0 and contact[recent] <= REARM_TIME:
            contact[recent] = np.inf
        k, time = 0, math.inf  # no pair (N = 1)
        if contact.size:
            k = int(contact.argmin())  # first occurrence: the lexicographically first pair
            time, contact[k] = float(contact[k]), np.inf
        unique = float(contact.min(initial=np.inf)) - time > tol.simultaneity_tol
        closest = None
        if horizon is not None:
            closest = float(_closest_gaps(a, b, c, min(time, horizon)).min(initial=np.inf))
        return time, k, unique, math.inf if graze is None else float(graze.min()), closest
    s, p = contact.shape
    if not p:  # no pair (N = 1): one that never meets
        contact, p = np.full((s, 1), np.inf), 1
    row_start = np.arange(0, s * p, p)
    flat = contact.reshape(-1)  # a view: contact is a fresh array
    if np.ndim(recent) or recent >= 0:
        at = row_start + recent  # -1 rows point before their own row: masked
        flat[at[(recent >= 0) & (flat.take(at) <= REARM_TIME)]] = np.inf
    k = contact.argmin(axis=-1)  # first occurrence: the lexicographically first pair
    at = row_start + k
    time = flat.take(at)
    flat[at] = np.inf
    unique = reduce_rows(np.minimum, contact, np.inf) - time > tol.simultaneity_tol
    closest = None
    if horizon is not None:
        closest = reduce_rows(np.minimum, _closest_gaps(a, b, c, np.minimum(time, horizon)[:, None]), np.inf)
    graze = np.full(s, np.inf) if graze is None else reduce_rows(np.minimum, graze, np.inf)
    return time, k, unique, graze, closest


def first_collision(
    cfg: Configuration,
    horizon: float,
    *,
    tol: Tolerances = Tolerances(),
    recent_pair: Optional[PairIndex] = None,
) -> Optional[FirstCollision]:
    """Earliest pair contact and earliest grazing encounter within the
    horizon, from one pass over all pairs; None when there is neither.

    The one-state view of first_contacts.  A pair is grazing when
    |discriminant| <= grazing_tol; it has no contact time, and its encounter
    counts when it lies in (0, horizon].  The encounter is timed at the
    entry root when the discriminant is positive, so a shallow crossing
    halts a run before the pair can overlap, and at -b/a otherwise.  Pairs
    are scanned in lexicographic order and ties are broken toward the
    earlier pair.  Simultaneity rule: the first contact is not unique when
    the second-earliest contact of any other pair follows it within
    simultaneity_tol, even when that second contact falls past the horizon.
    For recent_pair (the pair that scattered last), roots at or below
    REARM_TIME are discarded; its members sit exactly on the contact sphere.
    """
    if horizon <= 0:
        raise NoCollisionError("horizon must be positive")
    n = cfg.n_particles
    recent = -1 if recent_pair is None else pair_position(n, recent_pair)
    with scan_errstate():
        time, k, unique, graze, _ = first_contacts(cfg.positions, cfg.velocities, tol=tol, recent=recent)
    t_graze = graze if graze <= horizon else None
    if not time <= horizon:
        return None if t_graze is None else FirstCollision(None, None, True, t_graze)
    return FirstCollision(time, pair_index_table(n)[k], unique, t_graze)


def collision_time_gradients(
    cfg: Configuration, pair: PairIndex, *, tol: Tolerances = Tolerances()
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the pair's contact time with respect to all
    positions and all velocities, as flat length-(N*d) vectors.

    Only the two colliding particles carry nonzero entries:
    grad wrt x_i is -omega / ((v_i - v_j) . omega) with omega the unit
    contact vector, grad wrt x_j its negative, and the velocity gradient is
    the position gradient scaled by the contact time.
    """
    prediction = predict_pair(cfg, pair, tol=tol)
    if prediction.grazing:
        raise GrazingCollisionError(f"pair {pair.as_list()} is grazing; contact time is not differentiable")
    if prediction.time is None:
        raise NoCollisionError(f"pair {pair.as_list()} has no upcoming contact")
    tau = prediction.time
    r, w = cfg.pair_state(pair)
    contact = r + tau * w
    omega = contact / math.sqrt(dot(contact, contact))
    denom = dot(w, omega)
    if denom == 0.0:
        raise GrazingCollisionError(f"pair {pair.as_list()}: relative velocity tangent to contact sphere")
    n, d = cfg.n_particles, cfg.dimension
    grad_x = np.zeros(n * d)
    i, j = pair.zero_based()
    grad_x[i * d : (i + 1) * d] = -omega / denom
    grad_x[j * d : (j + 1) * d] = omega / denom
    return grad_x, tau * grad_x
