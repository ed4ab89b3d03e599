"""Binary collision laws at fixed contact geometry.

Two laws share the dispatch threshold |v_i - v_j|^2 = 4*eps0: above it the
pair emits, losing exactly eps0 of kinetic energy while every component of
the relative velocity is rescaled by the same factor; at or below it the
collision is the standard elastic exchange of normal components.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import IHSEError, ModelParams, Tolerances, UsageError, dot, dot_floats

UNIT_NORM_TOL = 1e-12
ZERO_RELATIVE_SPEED = 1e-14


class CollisionKind(enum.Enum):
    ELASTIC = "elastic"
    INELASTIC = "inelastic"


class CriticalEnergyError(IHSEError):
    """Relative speed within the excluded band around the emission threshold."""


class NotPreCollisionalError(IHSEError):
    """The pair is not approaching along the contact direction."""


class GrazingContactError(IHSEError):
    """Relative velocity nearly tangent to the contact plane."""


class ZeroRelativeVelocityError(IHSEError):
    """Coinciding velocities leave the emission direction undefined."""


class BelowThresholdError(IHSEError):
    """Radial emission requested below the energy threshold."""


@dataclass(frozen=True)
class ScatteringOutcome:
    """Post-collisional velocities with the geometry and energy bookkeeping
    of the collision that produced them."""

    kind: CollisionKind
    omega: np.ndarray
    sigma: Optional[np.ndarray]
    kappa: Optional[float]
    v_i_post: np.ndarray
    v_j_post: np.ndarray
    energy_loss: float

    @staticmethod
    def build(v_i, v_j, omega, vi_post, vj_post, sigma, kappa) -> "ScatteringOutcome":
        """The outcome of the collision of (v_i, v_j) at omega into
        (vi_post, vj_post), all (d,) arrays, with the kinetic energy it
        loses: emitting with its sigma and kappa, elastic when they are
        None."""
        ke_pre = 0.5 * (dot(v_i, v_i) + dot(v_j, v_j))
        ke_post = 0.5 * (dot(vi_post, vi_post) + dot(vj_post, vj_post))
        kind = CollisionKind.ELASTIC if sigma is None else CollisionKind.INELASTIC
        return ScatteringOutcome(kind, omega, sigma, kappa, vi_post, vj_post, energy_loss=ke_pre - ke_post)


def check_unit(omega: np.ndarray):
    """Raise UsageError unless omega, a vector (d,) or a stack (R, d) of
    them, is unit (to 2 UNIT_NORM_TOL)."""
    if np.any(abs(dot(omega, omega) - 1.0) > 2 * UNIT_NORM_TOL):
        raise UsageError("omega must be a unit vector")


# scatter's checks, in the order it applies them (see collide).
SCATTER_CHECKS = (
    (UsageError, "omega must be a unit vector"),
    (NotPreCollisionalError, "pair is not approaching along the contact direction"),
    (GrazingContactError, "contact is grazing"),
    (CriticalEnergyError, "relative speed inside the critical band around the emission threshold"),
    (ZeroRelativeVelocityError, "relative velocity is zero"),
)
CRITICAL_BAND = 3  # SCATTER_CHECKS index of the critical band check


def _sqrt(x):
    """Square root of a number (math.sqrt, far cheaper on one value) or of
    an array (np.sqrt).  Both round correctly, so the bits agree."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _emission(v_i: list, v_j: list, omega: list, w: list, w2, speed, epsilon0):
    """(v_i', v_j', sigma, kappa) of the emitting law, for a checked omega,
    w = v_j - v_i, w2 = |w|^2 above 4 eps0 and speed = sqrt(w2), on
    coordinate columns (see collide); sigma is w/|w| reflected through the
    plane orthogonal to omega."""
    u = [c / speed for c in w]
    twice_cosine = 2.0 * dot_floats(u, omega)
    sigma = [c - twice_cosine * o for c, o in zip(u, omega)]
    kappa = _sqrt(w2 / 4.0 - epsilon0)
    mean = [0.5 * (a + b) for a, b in zip(v_i, v_j)]
    spread = [c * kappa for c in sigma]
    return [m - c for m, c in zip(mean, spread)], [m + c for m, c in zip(mean, spread)], sigma, kappa


def _elastic_transfer(v_i: list, v_j: list, omega: list, approach) -> tuple[list, list]:
    """The elastic law on coordinate columns from approach = (v_j - v_i).omega,
    which is exactly -(v_i - v_j).omega."""
    transfer = [approach * o for o in omega]
    return [a + t for a, t in zip(v_i, transfer)], [b - t for b, t in zip(v_j, transfer)]


def collide(v_i: list, v_j: list, omega: list, epsilon0, tol: Tolerances = Tolerances()):
    """The one checked collide: scatter's checks and the dispatched law on
    one pair or a stack of R pairs, each vector given as the list of its d
    coordinate columns: Python floats for one pair, (R,) arrays for a
    stack, where an omega column may also be one float shared by every row
    and epsilon0 is a float or one per row (R,).  Each row gets the bits of
    its pair alone.

    Returns (w2, failed, law): w2 = |v_j - v_i|^2; failed, whether each of
    scatter's checks (SCATTER_CHECKS) fails for the pair or for each row;
    and law = (v_i', v_j', sigma, kappa, emitting), the post-collisional
    columns with sigma and kappa of the emitting law (None where no pair
    emits).  One pair is dispatched by a Python if, and a pair that fails a
    check gets law None: its law is not run.  A stack runs every row
    through the emitting law if any row emits and through the elastic law
    if any row does not, keeping per column the one each row dispatches
    to; a row that fails a check gets the unguarded law, which may be NaN,
    and its caller decides what it keeps."""
    w = [b - a for a, b in zip(v_i, v_j)]
    w2, approach = dot_floats(w, w), dot_floats(w, omega)
    speed, threshold = _sqrt(w2), 4.0 * epsilon0
    emitting = w2 > threshold
    failed = (
        abs(dot_floats(omega, omega) - 1.0) > 2 * UNIT_NORM_TOL,
        approach >= 0.0,
        abs(approach) < tol.grazing_tol * speed,
        abs(w2 - threshold) <= tol.crit_tol,
        emitting & (speed < ZERO_RELATIVE_SPEED),
    )
    if isinstance(w2, float):
        if any(failed):
            return w2, failed, None
        if emitting:
            return w2, failed, (*_emission(v_i, v_j, omega, w, w2, speed, epsilon0), True)
        return w2, failed, (*_elastic_transfer(v_i, v_j, omega, approach), None, None, False)
    if not emitting.any():
        return w2, failed, (*_elastic_transfer(v_i, v_j, omega, approach), None, None, emitting)
    # Elementwise steps, so no row's bits depend on the others.  A row that
    # does not emit may root a negative or divide by zero here.
    with np.errstate(divide="ignore", invalid="ignore"):
        vi_post, vj_post, sigma, kappa = _emission(v_i, v_j, omega, w, w2, speed, epsilon0)
    if not emitting.all():
        elastic_i, elastic_j = _elastic_transfer(v_i, v_j, omega, approach)
        for post, elastic in zip(vi_post + vj_post, elastic_i + elastic_j):
            np.copyto(post, elastic, where=~emitting)
    return w2, failed, (vi_post, vj_post, sigma, kappa, emitting)


def check_error(check: int) -> IHSEError:
    """The error scatter raises when check SCATTER_CHECKS[check] fails."""
    error, message = SCATTER_CHECKS[check]
    return error(message)


def elastic_reflection(v_i, v_j, omega) -> tuple[np.ndarray, np.ndarray]:
    """Elastic exchange of the normal velocity components (unguarded)."""
    v_i, v_j, omega = (np.asarray(a, dtype=float).tolist() for a in (v_i, v_j, omega))
    approach = dot_floats([b - a for a, b in zip(v_i, v_j)], omega)
    vi_post, vj_post = _elastic_transfer(v_i, v_j, omega, approach)
    return np.array(vi_post), np.array(vj_post)


def inelastic_emission(v_i, v_j, omega, epsilon0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Emitting collision (unguarded): returns (v_i', v_j', sigma, kappa).

    Post-collisional velocities are mean -/+ sigma*kappa with
    kappa = sqrt(|v_j - v_i|^2 / 4 - epsilon0); requires |v_j-v_i|^2 > 4*eps0.
    """
    v_i = np.asarray(v_i, dtype=float)
    v_j = np.asarray(v_j, dtype=float)
    omega = np.asarray(omega, dtype=float)
    w = v_j - v_i
    w2 = dot(w, w)
    if not w2 / 4.0 - epsilon0 > 0.0:
        raise BelowThresholdError("relative speed below the emission threshold")
    check_unit(omega)
    speed = math.sqrt(w2)
    if speed < ZERO_RELATIVE_SPEED:
        raise ZeroRelativeVelocityError("relative velocity is zero")
    floats = v_i.tolist(), v_j.tolist(), omega.tolist(), w.tolist()
    vi_post, vj_post, sigma, kappa = _emission(*floats, w2, speed, epsilon0)
    return np.array(vi_post), np.array(vj_post), np.array(sigma), kappa


def scatter(
    v_i,
    v_j,
    omega,
    params: ModelParams,
    *,
    tol: Tolerances = Tolerances(),
) -> ScatteringOutcome:
    """Dispatched collision law for a genuinely pre-collisional pair.

    Emits (losing exactly epsilon0 of kinetic energy) when the squared
    relative speed exceeds 4*epsilon0, reflects elastically otherwise.
    Raises on contact that is not pre-collisional, grazing contact, or a
    squared relative speed inside the excluded band 4*epsilon0 +/- crit_tol.
    """
    v_i = np.asarray(v_i, dtype=float)
    v_j = np.asarray(v_j, dtype=float)
    omega = np.asarray(omega, dtype=float)
    _, failed, law = collide(v_i.tolist(), v_j.tolist(), omega.tolist(), params.epsilon0, tol)
    if law is None:
        raise check_error(failed.index(True))
    vi_post, vj_post, sigma, kappa, emitting = law
    sigma = np.array(sigma) if emitting else None
    return ScatteringOutcome.build(v_i, v_j, omega, np.array(vi_post), np.array(vj_post), sigma, kappa)


def scattering_velocity_det_analytic(rel_speed_sq: float, params: ModelParams, d: int) -> float:
    """det N, the determinant of the velocity map (v_i, v_j) -> (v_i', v_j')
    at fixed contact direction in d dimensions, for squared relative speed
    s^2: -1 at or below 4 eps0, else -x^((d-2)/2) with x = 1 - 4 eps0 / s^2.

    The map keeps the mean (v_i + v_j)/2 and sends w = v_j - v_i to
    w' = 2 kappa(|w|) R(w/|w|), with R the reflection through the plane
    orthogonal to omega (det R = -1).  The change of variables to mean and
    w has determinant 1, so det N, which is det(2A) of the map's block
    Jacobian [[I/2 + A, I/2 - A], [I/2 - A, I/2 + A]], is the determinant of
    that map.
    Elastic: w' = R w.  Emitting: kappa(r) = sqrt(r^2/4 - eps0) makes the
    radial map r -> 2 kappa(r) stretch the radius by d(2 kappa)/dr =
    r/(2 kappa) and each of the d-1 tangential directions by 2 kappa/r, so
    det N = -(2 kappa/r)^(d-2) = -x^((d-2)/2), as (2 kappa/r)^2 = x.  Thus
    the emitting law preserves velocity measure only in d=2, and
    |det N| < 1 in d>=3.
    """
    if not rel_speed_sq > 4.0 * params.epsilon0:
        return -1.0
    return -((1.0 - 4.0 * params.epsilon0 / rel_speed_sq) ** ((d - 2) / 2))
