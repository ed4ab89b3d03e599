"""One-collision (transport-collision-transport) dynamics on a bounded time
horizon: domain classification, the composed flow, and the analytic flow
Jacobian determinant factored as prefactor * det(N).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Configuration,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    free_transport,
    validate_configuration,
)
from .collision import collision_time_gradients, first_collision, predict_pair
from .collision import contact_direction  # noqa: F401  (re-exported as ihse.tct.contact_direction)
from .scattering import CollisionKind, CriticalEnergyError
from .simulator import Step, collide, event_step

ELASTIC_DET_N = -1.0  # exact: reflection block has one -1 eigenvalue
INELASTIC_DET_N_2D = -1.0  # exact in d=2: emission rescales and mirrors


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


class UnsupportedDimensionError(IHSEError):
    """No closed-form determinant is claimed for this case."""


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


def _classify(cfg: Configuration, tau: float, params: ModelParams, tol: Tolerances) -> tuple[TCTDomainClass, Step]:
    """The classification and the event step it rests on."""
    if tau <= 0:
        raise UsageError("tau must be positive")
    if not validate_configuration(cfg, tol.contact_tol).is_interior:
        return TCTDomainClass.excluded(ExclusionReason.BOUNDARY_START), Step(None)
    step = event_step(cfg, tau, params, tol=tol)
    scan = step.scan
    if scan is None:
        return TCTDomainClass.free(), step
    if scan.graze is not None:
        return TCTDomainClass.excluded(ExclusionReason.GRAZING), step
    if not scan.unique:
        return TCTDomainClass.excluded(ExclusionReason.SIMULTANEOUS), step
    if step.outcome is None:
        return TCTDomainClass.excluded(ExclusionReason.CRITICAL_ENERGY), step
    remaining = tau - scan.time
    if remaining > 0 and first_collision(step.state, remaining, tol=tol, recent_pair=scan.pair) is not None:
        return TCTDomainClass.excluded(ExclusionReason.RECOLLISION), step
    return TCTDomainClass.single_collision(scan.pair, scan.time, step.outcome.kind), step


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
    return _classify(cfg, tau, params, tol)[0]


def tct_flow(cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()) -> TCTResult:
    """Evolve the configuration over [0, tau]: free flight, or transport to
    the single collision, scatter, and transport the remaining time."""
    classification, step = _classify(cfg, tau, params, tol)
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    if classification.is_free:
        return TCTResult(free_transport(cfg, tau), classification)
    final = free_transport(step.state, tau - classification.t_c)
    return TCTResult(final, classification, (classification.pair, classification.t_c, step.outcome))


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
    analytic contact-time gradients and det_N is the closed-form scattering
    determinant: -1 for elastic collisions in any dimension and for emitting
    collisions in d=2.  Emitting collisions in d != 2 have no closed form
    here and raise UnsupportedDimensionError.
    """
    classification = classify_tct_domain(cfg, tau, params, tol=tol)
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    if classification.is_free:
        return 1.0, 1.0, 1.0
    prefactor = flow_jacobian_prefactor(cfg, classification.pair, params, tol=tol)
    if classification.kind is CollisionKind.ELASTIC:
        det_n = ELASTIC_DET_N
    elif cfg.dimension == 2:
        det_n = INELASTIC_DET_N_2D
    else:
        raise UnsupportedDimensionError(
            "no closed-form determinant for emitting collisions outside d=2; use the finite-difference oracle"
        )
    return prefactor * det_n, prefactor, det_n


def contraction_factor(rel_speed_sq: float, params: ModelParams) -> float:
    """Per-collision volume factor sqrt(1 - 4 eps0 / s^2) of an emitting
    collision with pre-collisional squared relative speed s^2."""
    if not rel_speed_sq > 4.0 * params.epsilon0:
        raise IHSEError("relative speed below the emission threshold")
    return math.sqrt(1.0 - 4.0 * params.epsilon0 / rel_speed_sq)
