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
    dot,
    pair_index_table,
    reach_error,
    reduce_rows,
    squared_separations,
    within_reach,
)
from .collision import collision_time_gradients, first_contacts, scan_errstate
from .collision import contact_direction  # noqa: F401  (re-exported as ihse.tct.contact_direction)
from .scattering import (
    CRITICAL_BAND,
    SCATTER_CHECKS,
    CollisionKind,
    ScatteringOutcome,
    check_error,
    scattering_velocity_det_analytic,
)
from .simulator import collide_stack


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


@dataclass(frozen=True)
class TCTResult:
    final: Configuration
    classification: TCTDomainClass
    outcome: Optional[ScatteringOutcome] = None  # the collision's, None when free


# tct_stack labels each row with one int: 2 k + 1 for a single emitting
# collision of the pair at position k of pair_indices and 2 k for an elastic
# one, FREE, EXCLUDED[reason] (-2 - n for REASONS[n]), RAISES - c when the
# row's scatter fails check c of SCATTER_CHECKS and so raises its error, or
# OUT_OF_REACH when the state could overflow the contact roots over [0, tau].
FREE = -1
REASONS = tuple(ExclusionReason)
EXCLUDED = {reason: -2 - n for n, reason in enumerate(REASONS)}
RAISES = -2 - len(REASONS)
OUT_OF_REACH = RAISES - len(SCATTER_CHECKS)
# The label of a collided row that fails scatter check c: the critical band
# excludes the row, and any other failed check raises.
FAILED_CHECK = np.array(
    [EXCLUDED[ExclusionReason.CRITICAL_ENERGY] if c == CRITICAL_BAND else RAISES - c for c in range(len(SCATTER_CHECKS))]
)


@dataclass(frozen=True)
class TCTStack:
    """Row by row, what each state of a stack gives alone: its label (see
    FREE), its first contact time, its state at tau (NaN when excluded or
    raising), its collision's contact direction, and the sigma and kappa
    of the emitting law (NaN unless the row is a single emitting
    collision)."""

    label: np.ndarray  # (S,) int
    t_c: np.ndarray  # (S,)
    positions: np.ndarray  # (S, N, d)
    velocities: np.ndarray  # (S, N, d)
    omega: np.ndarray  # (S, d)
    sigma: np.ndarray  # (S, d)
    kappa: np.ndarray  # (S,)

    def error(self, row: int) -> Optional[IHSEError]:
        """The error the row's state raises alone, or None."""
        check = RAISES - self.label.item(row)
        if check < 0:
            return None
        if check == len(SCATTER_CHECKS):
            return reach_error("tau", "a coordinate")
        return check_error(check)

    def labels(self) -> list:
        """Per row, its label, or instead the error its state raises alone."""
        return [self.error(row) if label <= RAISES else label for row, label in enumerate(self.label.tolist())]

    def one(self, row: int = 0) -> TCTDomainClass:
        """The classification of a row, by default the state of a one-state
        stack, built from its label; raises the row's error."""
        label = self.label.item(row)
        if label <= RAISES:
            raise self.error(row)
        if label == FREE:
            return TCTDomainClass.free()
        if label < 0:
            return TCTDomainClass.excluded(REASONS[-2 - label])
        k, emits = divmod(label, 2)
        kind = CollisionKind.INELASTIC if emits else CollisionKind.ELASTIC
        return TCTDomainClass.single_collision(pair_index_table(self.positions.shape[1])[k], self.t_c.item(row), kind)


def tct_stack(
    positions: np.ndarray, velocities: np.ndarray, tau: float, epsilon0, *, tol: Tolerances = Tolerances()
) -> TCTStack:
    """Classify and flow a stack (S, N, d) of states over [0, tau] in one pass
    of array operations, each row with the bits its state gets alone at its
    quantum: epsilon0 is a float, or one per row (S,), as when the stack
    holds the states of several models.  classify_tct_domain and tct_flow
    are its S=1 view.  A state that could overflow the contact roots
    (within_reach) is its row's UsageError."""
    if not 0 < tau < math.inf:
        raise UsageError("tau must be positive and finite")
    s, _, d = positions.shape
    # One error state for the call: rows out of reach may overflow here, and
    # the scans leave theirs to the caller.
    with scan_errstate():
        invalid, boundary = domain_masks(squared_separations(positions), tol.contact_tol)
        time, k, unique, graze, _ = first_contacts(positions, velocities, tol=tol)
        final_x = positions + tau * velocities
        # A contact inside the horizon is simultaneous until it is found unique;
        # the checks before it overrule it.
        simultaneous = EXCLUDED[ExclusionReason.SIMULTANEOUS]
        label = np.where(time <= tau, simultaneous, FREE)
        label[graze <= tau] = EXCLUDED[ExclusionReason.GRAZING]
        label[reduce_rows(np.logical_or, invalid | boundary, False)] = EXCLUDED[ExclusionReason.BOUNDARY_START]
        label[~within_reach(positions, velocities, tau)] = OUT_OF_REACH
        rows = ((label == simultaneous) & unique).nonzero()[0]
        final_v, omega = velocities.copy(), np.full((s, d), np.nan)
        sigma, kappa = np.full((s, d), np.nan), np.full(s, np.nan)
        if rows.size:
            # Collide at the contact, then rescan the remaining time.
            pair, t = k[rows], time[rows]
            quantum = np.asarray(epsilon0)[rows] if np.ndim(epsilon0) else epsilon0
            x, v, omega[rows], _, emitting, check, row_sigma, row_kappa = collide_stack(
                positions[rows], velocities[rows], pair, t, quantum, tol=tol
            )
            if row_kappa is not None:  # the emitting law ran: keep it on the rows that emit
                sigma[rows[emitting]], kappa[rows[emitting]] = np.array(row_sigma).T[emitting], row_kappa[emitting]
            remaining = tau - t
            code = 2 * pair + emitting
            failed = check >= 0
            code[failed] = FAILED_CHECK[check[failed]]
            again = (~failed & (remaining > 0)).nonzero()[0]
            if again.size:
                t2, _, _, graze2, _ = first_contacts(x[again], v[again], tol=tol, recent=pair[again])
                code[again[np.minimum(t2, graze2) <= remaining[again]]] = EXCLUDED[ExclusionReason.RECOLLISION]
            final_x[rows], final_v[rows], label[rows] = x + remaining[:, None, None] * v, v, code
    dropped = label < FREE
    final_x[dropped] = final_v[dropped] = sigma[dropped] = kappa[dropped] = np.nan
    return TCTStack(label, time, final_x, final_v, omega, sigma, kappa)


def classify_tct_domain(
    cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()
) -> TCTDomainClass:
    """Classify an initial configuration over the horizon [0, tau].

    Checks run in order: interior start, grazing encounters anywhere inside
    the horizon, existence and uniqueness of the first collision, the
    critical energy band, and finally a full rescan of the post-collisional
    state for any further collision or graze inside the remaining time
    (covering pairs that do and do not involve the scattered particles
    alike).  A state that could overflow the contact roots is a UsageError.
    """
    return tct_stack(cfg.positions[None], cfg.velocities[None], tau, params.epsilon0, tol=tol).one()


def tct_flow(cfg: Configuration, tau: float, params: ModelParams, *, tol: Tolerances = Tolerances()) -> TCTResult:
    """Evolve the configuration over [0, tau]: free flight, or transport to
    the single collision, scatter, and transport the remaining time; a state
    that could overflow the contact roots is a UsageError."""
    stack = tct_stack(cfg.positions[None], cfg.velocities[None], tau, params.epsilon0, tol=tol)
    classification = stack.one()
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    final = Configuration(stack.positions[0], stack.velocities[0])
    if classification.is_free:
        return TCTResult(final, classification)
    i, j = classification.pair.zero_based()
    v, v_post = cfg.velocities, stack.velocities[0]
    law = (stack.sigma[0], stack.kappa.item(0)) if classification.kind is CollisionKind.INELASTIC else (None, None)
    outcome = ScatteringOutcome.build(v[i], v[j], stack.omega[0], v_post[i], v_post[j], *law)
    return TCTResult(final, classification, outcome)


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
    stack = tct_stack(cfg.positions[None], cfg.velocities[None], tau, params.epsilon0, tol=tol)
    return classified_flow_det(cfg, stack.one(), stack.velocities[0], params, tol=tol)


def classified_flow_det(
    cfg: Configuration,
    classification: TCTDomainClass,
    velocities: np.ndarray,
    params: ModelParams,
    *,
    tol: Tolerances = Tolerances(),
) -> tuple[float, float, float]:
    """analytic_flow_jacobian_det of a state already classified as free or
    single collision over its horizon (by tct_stack, classify_tct_domain or
    tct_flow), without classifying it again.  An elastic collision's factors
    are the law's exact (1, -1, -1), as w' = R w.  velocities are the state's
    at tau, the V' of an emitting prefactor 1 + grad_X(t_c) . (V - V') with
    grad_X(t_c) from collision_time_gradients.  An excluded classification
    raises its ExcludedConfigurationError."""
    if classification.is_excluded:
        raise ExcludedConfigurationError(classification.reason)
    if classification.is_free:
        return 1.0, 1.0, 1.0
    if classification.kind is CollisionKind.ELASTIC:
        return 1.0, -1.0, -1.0
    grad_x, _ = collision_time_gradients(cfg, classification.pair, tol=tol)
    prefactor = 1.0 + dot(grad_x, (cfg.velocities - velocities).ravel())
    _, w = cfg.pair_state(classification.pair)
    det_n = scattering_velocity_det_analytic(dot(w, w), params, cfg.dimension)
    return prefactor * det_n, prefactor, det_n


def contraction_factor(rel_speed_sq: float, params: ModelParams, d: int) -> float:
    """Per-collision phase-space volume factor |prefactor * det_N| =
    sqrt(x) * x^((d-2)/2) = x^((d-1)/2) of an emitting collision in
    dimension d with pre-collisional squared relative speed s^2,
    x = 1 - 4 eps0 / s^2; sqrt(x) in d=2."""
    if not rel_speed_sq > 4.0 * params.epsilon0:
        raise IHSEError("relative speed below the emission threshold")
    prefactor = -math.sqrt(1.0 - 4.0 * params.epsilon0 / rel_speed_sq)
    return prefactor * scattering_velocity_det_analytic(rel_speed_sq, params, d)
