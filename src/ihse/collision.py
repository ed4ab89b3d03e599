"""Per-pair collision prediction for unit-diameter spheres: grazing
discriminants, first-contact times over all pairs, and analytic gradients of
the first collision time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Configuration, IHSEError, PairIndex, Tolerances, all_pairs

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


def _quadratic_contact_roots(r: np.ndarray, w: np.ndarray) -> tuple[float, float, float, Optional[tuple[float, float]]]:
    """Roots of |r + t w|^2 = 1 as (b, a, delta, (t_small, t_large))."""
    a = float(w @ w)
    b = float(r @ w)
    delta = b * b - a * (float(r @ r) - 1.0)
    if a == 0.0 or delta < 0.0:
        return b, a, delta, None
    # Stable small/large roots: q = -b + sqrt(delta) never cancels when b < 0.
    sq = math.sqrt(delta)
    c = float(r @ r) - 1.0
    if b < 0.0:
        q = -b + sq
        return b, a, delta, (c / q, q / a)
    q = -b - sq  # b >= 0: both roots <= 0 when c >= 0
    if q == 0.0:
        return b, a, delta, (0.0, 0.0)
    return b, a, delta, (q / a, c / q)


def _contact_time(delta: float, roots: Optional[tuple[float, float]], grazing_tol: float) -> Optional[float]:
    """Smallest strictly positive root of a transversal encounter, or None."""
    if roots is None or delta <= grazing_tol:
        return None
    t_small, t_large = roots
    if t_small > 0.0:
        return t_small
    if t_large > 0.0:
        # Interior configurations never reach this branch; kept so the
        # prediction is meaningful for states inside the contact sphere.
        return t_large
    return None


def grazing_discriminant(cfg: Configuration, pair: PairIndex) -> float:
    """((x_i-x_j).(v_i-v_j))^2 - |v_i-v_j|^2 (|x_i-x_j|^2 - 1).

    Positive: the pair's line of flight crosses the contact sphere
    transversally.  Zero: tangential (grazing) encounter.  Negative: the
    pair never reaches contact.
    """
    return _quadratic_contact_roots(*cfg.pair_state(pair))[2]


def contact_direction(cfg: Configuration, pair: PairIndex) -> np.ndarray:
    """Unit vector from particle i toward particle j."""
    r, _ = cfg.pair_state(pair)  # x_i - x_j
    return -r / np.linalg.norm(r)


def predict_pair(cfg: Configuration, pair: PairIndex, *, tol: Tolerances = Tolerances()) -> CollisionPrediction:
    """Full prediction record for one pair."""
    _, _, delta, roots = _quadratic_contact_roots(*cfg.pair_state(pair))
    return CollisionPrediction(
        pair, delta, _contact_time(delta, roots, tol.grazing_tol), abs(delta) <= tol.grazing_tol
    )


def pair_collision_time(cfg: Configuration, pair: PairIndex, *, tol: Tolerances = Tolerances()) -> Optional[float]:
    """Smallest strictly positive contact time of the pair, or None.

    None when the pair recedes, moves in parallel, or the encounter is
    grazing (|discriminant| <= grazing_tol).
    """
    return predict_pair(cfg, pair, tol=tol).time


def first_collision(
    cfg: Configuration,
    horizon: float,
    *,
    tol: Tolerances = Tolerances(),
    recent_pair: Optional[PairIndex] = None,
) -> Optional[FirstCollision]:
    """Earliest pair contact and earliest grazing encounter within the
    horizon, from one pass over all pairs; None when there is neither.

    A pair is grazing when |discriminant| <= grazing_tol; it has no contact
    time, and its tangential encounter at -b/a counts when it lies in
    (0, horizon].  Pairs are scanned in lexicographic order and ties are
    broken toward the earlier pair.  Simultaneity rule: the first contact is
    not unique when the second-earliest contact of any other pair follows it
    within simultaneity_tol, even when that second contact falls past the
    horizon.  For recent_pair (the pair that scattered last), roots at or
    below REARM_TIME are discarded; its members sit exactly on the contact
    sphere.
    """
    if horizon <= 0:
        raise NoCollisionError("horizon must be positive")
    best_time: Optional[float] = None
    best_pair: Optional[PairIndex] = None
    second: Optional[float] = None
    graze: Optional[float] = None
    for pair in all_pairs(cfg.n_particles):
        b, a, delta, roots = _quadratic_contact_roots(*cfg.pair_state(pair))
        if abs(delta) <= tol.grazing_tol:
            t_graze = -b / a if a != 0.0 and b < 0.0 else 0.0
            if 0.0 < t_graze <= horizon and (graze is None or t_graze < graze):
                graze = t_graze
            continue
        time = _contact_time(delta, roots, tol.grazing_tol)
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
    omega = contact / np.linalg.norm(contact)
    denom = float(w @ omega)
    if denom == 0.0:
        raise GrazingCollisionError(f"pair {pair.as_list()}: relative velocity tangent to contact sphere")
    n, d = cfg.n_particles, cfg.dimension
    grad_x = np.zeros(n * d)
    i, j = pair.zero_based()
    grad_x[i * d : (i + 1) * d] = -omega / denom
    grad_x[j * d : (j + 1) * d] = omega / denom
    return grad_x, tau * grad_x
