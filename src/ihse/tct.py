"""One-collision (transport-collision-transport) dynamics on a bounded time
horizon: domain classification, the composed flow, and the analytic flow
Jacobian determinant factored as prefactor * det(N).
"""

from __future__ import annotations

import enum
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
    domain_masks,
    pair_indices,
)
from .collision import collision_time_gradients, first_contacts, predict_pair
from .collision import contact_direction  # noqa: F401  (re-exported as ihse.tct.contact_direction)
from .scattering import (
    CRITICAL_BAND,
    SCATTER_CHECKS,
    CollisionKind,
    CriticalEnergyError,
    scatter,
    scattering_velocity_det_analytic,
)
from .simulator import collide, collide_stack


class ExclusionReason(enum.Enum):
    GRAZING = "grazing"
    SIMULTANEOUS = "simultaneous"
    CRITICAL_ENERGY = "critical_energy"
    RECOLLISION = "recollision"
    BOUNDARY_START = "boundary_start"


class ExcludedConfigurationError(IHSEError):
    """Flow requested for a configuration outside the one-collision domain."""

    def __init__(self, reason: ExclusionReason):
        self.reason = reason
        super().__init__(f"configuration excluded from the one-collision domain: {reason.value}")


@dataclass(frozen=True)
class TCTDomainClass:
    """Classification of an initial state over [0, tau]: collision-free,
    exactly one well-separated collision, or excluded with a reason."""

    variant: str  # "free" | "single_collision" | "excluded"
    pair: Optional[PairIndex] = None
    t_c: Optional[float] = None
    kind: Optional[CollisionKind] = None
    reason: Optional[ExclusionReason] = None

    @staticmethod
    def free() -> "TCTDomainClass":
        return TCTDomainClass("free")

    @staticmethod
    def single_collision(pair: PairIndex, t_c: float, kind: CollisionKind) -> "TCTDomainClass":
        return TCTDomainClass("single_collision", pair=pair, t_c=t_c, kind=kind)

    @staticmethod
    def excluded(reason: ExclusionReason) -> "TCTDomainClass":
        return TCTDomainClass("excluded", reason=reason)

    @property
    def is_free(self) -> bool:
        return self.variant == "free"

    @property
    def is_single_collision(self) -> bool:
        return self.variant == "single_collision"

    @property
    def is_excluded(self) -> bool:
        return self.variant == "excluded"

    def signature(self):
        """Hashable branch label used for finite-difference stencil checks."""
        if self.is_single_collision:
            return ("single_collision", self.pair.i, self.pair.j, self.kind.value)
        if self.is_excluded:
            return ("excluded", self.reason.value)
        return ("free",)


@dataclass(frozen=True)
class TCTResult:
    final: Configuration
    classification: TCTDomainClass
    collision_record: Optional[tuple] = None  # (pair, t_c, ScatteringOutcome)


@dataclass(frozen=True)
class TCTStack:
    """Row by row, what each state of a stack gives alone: its classification
    (None when it raises, with the error in errors), its state at tau (NaN
    when excluded or raising) and its collision's contact direction."""

    classifications: list[Optional[TCTDomainClass]]
    errors: list[Optional[IHSEError]]
    positions: np.ndarray  # (S, N, d)
    velocities: np.ndarray  # (S, N, d)
    omega: np.ndarray  # (S, d)

    def one(self) -> TCTDomainClass:
        """The classification of a one-state stack; raises its error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return self.classifications[0]


def tct_stack(
    positions: np.ndarray, velocities: np.ndarray, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> TCTStack:
    """Classify and flow a stack (S, N, d) of states over [0, tau] in one pass
    of array operations, each row with the bits its state gets alone;
    classify_tct_domain and tct_flow are its S=1 view."""
    if tau <= 0:
        raise UsageError("tau must be positive")
    s, n, d = positions.shape
    i, j = pair_indices(n)
    invalid, boundary = domain_masks(positions, tol.contact_tol)
    interior = ~(invalid | boundary).any(axis=-1)
    time, k, unique, graze = first_contacts(positions, velocities, tol=tol)
    rows = np.flatnonzero(interior & (graze > tau) & (time <= tau) & unique)
    final_x, final_v, omega = positions + tau * velocities, velocities.copy(), np.full((s, d), np.nan)
    collided = {}
    if rows.size:
        # Collide at the contact, then rescan the remaining time.
        pair, t = k[rows], time[rows]
        x, v, contact, _, emitting, check = collide_stack(positions[rows], velocities[rows], pair, t, params, tol=tol)
        remaining = tau - t
        again = np.flatnonzero((check < 0) & (remaining > 0))
        recollides = np.zeros(rows.size, dtype=bool)
        if again.size:
            recent = np.arange(i.size) == pair[again, None]
            t2, _, _, graze2 = first_contacts(x[again], v[again], tol=tol, recent=recent)
            recollides[again] = np.minimum(t2, graze2) <= remaining[again]
        final_x[rows], final_v[rows], omega[rows] = x + remaining[:, None, None] * v, v, contact
        collided = dict(zip(rows.tolist(), zip(check.tolist(), recollides.tolist(), emitting.tolist())))
    classifications, errors = [], []
    for row in range(s):
        reason = error = classification = None
        if not interior[row]:
            reason = ExclusionReason.BOUNDARY_START
        elif graze[row] <= tau:
            reason = ExclusionReason.GRAZING
        elif not time[row] <= tau:
            classification = TCTDomainClass.free()
        elif not unique[row]:
            reason = ExclusionReason.SIMULTANEOUS
        else:
            failed_check, recollide, emits = collided[row]
            if failed_check == CRITICAL_BAND:
                reason = ExclusionReason.CRITICAL_ENERGY
            elif failed_check >= 0:
                error_type, message = SCATTER_CHECKS[failed_check]
                error = error_type(message)
            elif recollide:
                reason = ExclusionReason.RECOLLISION
            else:
                kind = CollisionKind.INELASTIC if emits else CollisionKind.ELASTIC
                pair_index = PairIndex(int(i[k[row]]) + 1, int(j[k[row]]) + 1)
                classification = TCTDomainClass.single_collision(pair_index, float(time[row]), kind)
        if reason is not None:
            classification = TCTDomainClass.excluded(reason)
        if classification is None or classification.is_excluded:
            final_x[row] = final_v[row] = np.nan
        classifications.append(classification)
        errors.append(error)
    return TCTStack(classifications, errors, final_x, final_v, omega)


def classify_tct_domain(
    cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> TCTDomainClass:
    """Classify an initial configuration over the horizon [0, tau].

    Checks run in order: interior start, grazing encounters anywhere inside
    the horizon, existence and uniqueness of the first collision, the
    critical energy band, and finally a full rescan of the post-collisional
    state for any further collision or graze inside the remaining time
    (covering pairs that do and do not involve the scattered particles
    alike).
    """
    return tct_stack(cfg.positions[None], cfg.velocities[None], tau, params, tol=tol).one()


def tct_flow(cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()) -> TCTResult:
    """Evolve the configuration over [0, tau]: free flight, or transport to
    the single collision, scatter, and transport the remaining time."""
    stack = tct_stack(cfg.positions[None], cfg.velocities[None], tau, params, tol=tol)
    classification = stack.one()
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    final = Configuration(stack.positions[0], stack.velocities[0])
    if classification.is_free:
        return TCTResult(final, classification)
    i, j = classification.pair.zero_based()
    outcome = scatter(cfg.velocities[i], cfg.velocities[j], stack.omega[0], params, tol=tol)
    return TCTResult(final, classification, (classification.pair, classification.t_c, outcome))


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
    return 1.0 + float(grad_x @ dv)


def analytic_flow_jacobian_det(
    cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> tuple[float, float, float]:
    """(det, prefactor, det_N) of the flow's Jacobian at cfg over [0, tau].

    Collision-free flow is volume preserving (all factors 1).  With one
    collision, det = prefactor * det_N where the prefactor comes from the
    analytic contact-time gradients (-1 elastic, -sqrt(x) emitting, with
    x = 1 - 4 eps0 / s^2) and det_N is the closed-form scattering
    determinant scattering_velocity_det_analytic (-1 elastic, -x^((d-2)/2)
    emitting), in any dimension d.  So det is 1 for an elastic collision and
    x^((d-1)/2) for an emitting one.
    """
    classification = classify_tct_domain(cfg, tau, params, tol=tol)
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    return classified_flow_det(cfg, classification, params, tol=tol)


def classified_flow_det(
    cfg: Configuration, classification: TCTDomainClass, params: ModelParams, *, tol: Tolerances
) -> tuple[float, float, float]:
    """analytic_flow_jacobian_det of a state already classified as free or
    single collision over its horizon (by tct_stack, classify_tct_domain or
    tct_flow), without classifying it again."""
    if classification.is_free:
        return 1.0, 1.0, 1.0
    prefactor = flow_jacobian_prefactor(cfg, classification.pair, params, tol=tol)
    _, w = cfg.pair_state(classification.pair)
    det_n = scattering_velocity_det_analytic(float(w @ w), params)
    return prefactor * det_n, prefactor, det_n


def contraction_factor(rel_speed_sq: float, params: ModelParams) -> float:
    """Per-collision phase-space volume factor |prefactor * det_N| =
    sqrt(x) * x^((d-2)/2) = x^((d-1)/2) of an emitting collision with
    pre-collisional squared relative speed s^2, x = 1 - 4 eps0 / s^2, in
    dimension params.dimension; sqrt(x) in d=2."""
    if not rel_speed_sq > 4.0 * params.epsilon0:
        raise IHSEError("relative speed below the emission threshold")
    prefactor = -math.sqrt(1.0 - 4.0 * params.epsilon0 / rel_speed_sq)
    return prefactor * scattering_velocity_det_analytic(rel_speed_sq, params)
