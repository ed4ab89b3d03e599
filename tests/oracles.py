"""Forms that only the tests call, kept beside the engine as its oracles.

The radial and spherical forms of the emitting collision and their d=3
Cartesian map (C07) are a separate model: the d=3 cubic-radius map
preserves velocity measure but loses an energy that depends on the
radius, not the engine's fixed eps0.  sigma_direction is the emitting
law's reflected direction without the law's other checks, and
scattering_velocity_jacobian is the velocity map's analytic Jacobian,
whose determinant det(2A) C03 compares with
ihse.scattering.scattering_velocity_det_analytic.  low_energy_ensemble
draws the below-threshold states of C09 and the golden digest.
count_hits_block is the Monte Carlo block kernel as first written, with
arrays allocated per block, the reference for measure_mc._BlockKernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ihse.core import Configuration, IHSEError, ModelParams, UsageError, dot, kinetic_energy
from ihse.measure_mc import SPEED_BAND_WIDTH, PathologicalSetSpec, _pair_distances
from ihse.rng import sample_generator, uniform_ball
from ihse.scattering import (
    ZERO_RELATIVE_SPEED,
    BelowThresholdError,
    ZeroRelativeVelocityError,
    check_unit,
)
from ihse.simulator import random_configuration


@dataclass(frozen=True)
class RadialCoordinates:
    """Center-of-mass relative velocity in polar (d=2) or spherical (d=3)
    coordinates; theta is latitude in [-pi/2, pi/2] and phi azimuth."""

    rho: float
    theta: float
    phi: Optional[float] = None

    def __post_init__(self):
        if not self.rho > 0:
            raise UsageError("rho must be positive")
        if self.phi is not None:
            if not -math.pi / 2 <= self.theta <= math.pi / 2:
                raise UsageError("theta must lie in [-pi/2, pi/2] for d=3")
            if not 0 <= self.phi < 2 * math.pi:
                raise UsageError("phi must lie in [0, 2*pi)")

    @property
    def dimension(self) -> int:
        return 2 if self.phi is None else 3


def sigma_direction(v_i, v_j, omega) -> np.ndarray:
    """Reflection of the normalized relative velocity (v_j - v_i)/|v_j - v_i|
    through the plane orthogonal to omega; always unit norm."""
    v_i = np.asarray(v_i, dtype=float)
    v_j = np.asarray(v_j, dtype=float)
    omega = np.asarray(omega, dtype=float)
    check_unit(omega)
    w = v_j - v_i
    if (speed := math.sqrt(dot(w, w))) < ZERO_RELATIVE_SPEED:
        raise ZeroRelativeVelocityError("relative velocity is zero")
    u = w / speed
    return u - 2.0 * dot(u, omega) * omega


def radial_emission_map(coords: RadialCoordinates, params: ModelParams) -> RadialCoordinates:
    """Center-of-mass form of the emitting collision.

    d=2: (rho, theta) -> (sqrt(rho^2 - 4 eps0), -theta), exactly the
    dispatched law conjugated into polar coordinates about the contact
    plane.  d=3: (rho, theta, phi) -> ((rho^3 - 4 eps0)^(1/3), -theta, phi),
    the cubic-radius variant whose induced Cartesian map is measure
    preserving in three dimensions.  It loses an energy that depends on rho,
    not a fixed eps0, so it is a separate model: the dispatched law contracts
    velocity measure in d=3 (see scattering_velocity_det_analytic).
    """
    eps0 = params.epsilon0
    if coords.dimension == 2:
        if not coords.rho**2 > 4.0 * eps0:
            raise BelowThresholdError("rho^2 must exceed 4*epsilon0")
        return RadialCoordinates(math.sqrt(coords.rho**2 - 4.0 * eps0), -coords.theta)
    if not coords.rho**3 > 4.0 * eps0:
        raise BelowThresholdError("rho^3 must exceed 4*epsilon0")
    return RadialCoordinates((coords.rho**3 - 4.0 * eps0) ** (1.0 / 3.0), -coords.theta, coords.phi)


def spherical_to_cartesian(coords: RadialCoordinates) -> np.ndarray:
    """Cartesian vector for d=3 spherical coordinates (latitude convention)."""
    if coords.dimension != 3:
        raise UsageError("expected d=3 coordinates")
    ct = math.cos(coords.theta)
    return coords.rho * np.array([ct * math.cos(coords.phi), ct * math.sin(coords.phi), math.sin(coords.theta)])


def cartesian_to_spherical(v) -> RadialCoordinates:
    """Inverse of spherical_to_cartesian; phi normalized into [0, 2*pi)."""
    v = np.asarray(v, dtype=float)
    rho = math.sqrt(dot(v, v))
    if rho <= 0:
        raise UsageError("zero vector has no spherical representation")
    theta = math.asin(max(-1.0, min(1.0, v[2] / rho)))
    phi = math.atan2(v[1], v[0]) % (2 * math.pi)
    return RadialCoordinates(rho, theta, phi)


def emission_map_cartesian_3d(v, params: ModelParams) -> np.ndarray:
    """Cartesian form of the d=3 radial emission map: rescale the radius to
    (rho^3 - 4 eps0)^(1/3) and mirror the z component (theta -> -theta).
    Measure preserving, but not the engine's fixed-eps0 law."""
    v = np.asarray(v, dtype=float)
    rho = math.sqrt(dot(v, v))
    if not rho**3 > 4.0 * params.epsilon0:
        raise BelowThresholdError("rho^3 must exceed 4*epsilon0")
    scale = (rho**3 - 4.0 * params.epsilon0) ** (1.0 / 3.0) / rho
    return scale * np.array([v[0], v[1], -v[2]])


def scattering_velocity_jacobian(v_i, v_j, omega, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of the velocity map (v_i, v_j) -> (v_i', v_j') at
    fixed contact direction, as a 2d x 2d matrix in block form
    [[B+, B-], [B-, B+]] with B+/- = I/2 +/- A; its determinant is det(2A),
    which scattering_velocity_det_analytic gives in closed form.

    For the elastic branch A = I/2 - omega (x) omega.  For the emitting
    branch, with w = v_j - v_i, u = w/|w| and kappa^2 = |w|^2/4 - eps0:

        A = (kappa/|w|) [ I + (|w|^2/(4 kappa^2) - 1) u(x)u
                            + (u.omega)(2 - |w|^2/(2 kappa^2)) omega(x)u
                            - 2 omega(x)omega ]
    """
    v_i = np.asarray(v_i, dtype=float)
    v_j = np.asarray(v_j, dtype=float)
    omega = np.asarray(omega, dtype=float)
    d = omega.shape[0]
    ident = np.eye(d)
    w = v_j - v_i
    w2 = dot(w, w)
    if w2 > 4.0 * params.epsilon0:
        speed = math.sqrt(w2)
        u = w / speed
        kappa_sq = w2 / 4.0 - params.epsilon0
        kappa = math.sqrt(kappa_sq)
        a_mat = (kappa / speed) * (
            ident
            + (w2 / (4.0 * kappa_sq) - 1.0) * np.outer(u, u)
            + dot(u, omega) * (2.0 - w2 / (2.0 * kappa_sq)) * np.outer(omega, u)
            - 2.0 * np.outer(omega, omega)
        )
    else:
        a_mat = 0.5 * ident - np.outer(omega, omega)
    b_plus = 0.5 * ident + a_mat
    b_minus = 0.5 * ident - a_mat
    return np.block([[b_plus, b_minus], [b_minus, b_plus]])


def low_energy_ensemble(seed: int, index: int, n_particles: int, d: int, params: ModelParams) -> Configuration:
    """Random interior d-dimensional configuration (|X| <= 4, |V| <= 1) with
    total kinetic energy strictly below 2*epsilon0: scaled to a fraction of
    that bound drawn uniformly from [0.3, 0.95)."""
    cfg = random_configuration(seed, index, n_particles, d, 4.0, 1.0)
    gen = sample_generator(seed ^ 0x5DEECE66D, index)
    # (0.95 - 0.3) rounds to 0.6499999999999999, not 0.65: keep the expression.
    target = (0.3 + (0.95 - 0.3) * gen.random()) * 2.0 * params.epsilon0
    ke = kinetic_energy(cfg)
    if ke <= 0:
        raise IHSEError("degenerate zero-velocity draw")
    scale = math.sqrt(target / ke)
    return Configuration(cfg.positions, scale * cfg.velocities)


def count_hits_block(spec: PathologicalSetSpec, gen: np.random.Generator, count: int) -> int:
    """Hits among one block of count draws from gen.

    Both families draw the positions first.  Family E reads nothing else
    and draws nothing more; family P then draws the velocities from the same
    stream, so its draws are those of a kernel that always drew both."""
    n, d = spec.n_particles, 2
    x = uniform_ball(gen, count, n * d, spec.position_radius).reshape(count, n, d)
    xdist = _pair_distances(x)
    interior = (xdist > 1.0).all(axis=1)
    if spec.family == "E":
        proximity = 1.0 + 1.5 * math.sqrt(2.0) * spec.delta * spec.R2
        hits = interior & ((xdist <= proximity).sum(axis=1) >= 2)
        return int(hits.sum())
    v = uniform_ball(gen, count, n * d, spec.R2).reshape(count, n, d)
    proximity = 1.0 + math.sqrt(2.0) * spec.delta * spec.R2
    vdist = _pair_distances(v)
    eps0 = spec.params.epsilon0
    lo = 2.0 * math.sqrt(eps0)
    if spec.band == SPEED_BAND_WIDTH:
        hi = lo * (1.0 + (math.sqrt(2.0) - 1.0) * spec.mu)
        in_band = (vdist >= lo) & (vdist <= hi)
    else:
        hi_sq = 4.0 * eps0 / (1.0 - spec.mu)
        in_band = (vdist >= lo) & (vdist**2 < hi_sq)
    hits = interior & ((xdist <= proximity) & in_band).any(axis=1)
    return int(hits.sum())
