"""The array form of jacobian_lab's case draws, kept as the oracle of the
engine's draws on Python floats: random_tct_cases with these draws in place
of jacobian_lab._case_draws must give the same cases, bit for bit
(tests/test_jacobian_lab.py).  The functions below are the engine's before
it drew on Python floats, unchanged."""

import math

import numpy as np

from ihse.core import Configuration, IHSEError, ModelParams, dot, squared_separations
from ihse.scattering import CollisionKind


def _case_draws(gen: np.random.Generator, n_particles: int, kind, d: int, fixed_eps0):
    """random_tct_case's draws from gen, as a generator.  It yields each
    drawn state as (positions, velocities) and is sent back whether it
    passes _prechecks; a state that passes gets its quantum, is yielded as
    the candidate (cfg, params) and is sent back the candidate's
    classification.  Returns the accepted (cfg, params)."""
    for _ in range(2000):
        positions = _spread_positions(gen, n_particles, d, min_gap=3.6, spread=2.0 + 1.5 * n_particles)
        # Pull particle 1 onto a shell close to particle 2 so contact falls
        # well inside the horizon.
        shell = 1.3 + 0.9 * gen.random()
        positions[0] = positions[1] + shell * unit_vector(gen, d)
        velocities = 0.2 * gen.standard_normal((n_particles, d))
        # Aim particle 1 at particle 2 with a sub-diameter impact parameter.
        gap = positions[1] - positions[0]
        dist = math.sqrt(dot(gap, gap))
        direction = gap / dist
        tangent = unit_vector(gen, d)
        tangent -= dot(tangent, direction) * direction
        t_norm = math.sqrt(dot(tangent, tangent))
        if t_norm > 1e-9:
            tangent /= t_norm
        else:
            tangent = np.zeros(d)
        speed = 1.5 + gen.random()
        impact = 0.5 * gen.random()
        velocities[0] = velocities[1] + speed * direction + impact * tangent
        if not (yield positions, velocities):
            continue
        w = velocities[0] - velocities[1]
        s2 = dot(w, w)
        if fixed_eps0 is not None:
            eps0 = fixed_eps0
            if abs(s2 - 4.0 * eps0) <= 0.15 * max(1.0, s2):
                continue
            drawn = CollisionKind.INELASTIC if s2 > 4.0 * eps0 else CollisionKind.ELASTIC
            if kind is not None and drawn is not kind:
                continue
        else:
            target = kind
            if target is None:
                target = CollisionKind.INELASTIC if gen.random() < 0.5 else CollisionKind.ELASTIC
            if target is CollisionKind.INELASTIC:
                eps0 = s2 * (0.15 + 0.6 * gen.random()) / 4.0
            else:
                eps0 = s2 * (0.3 + 0.5 * gen.random())
        cfg, params = Configuration(positions, velocities), ModelParams(eps0)
        classification = yield cfg, params
        if not classification.is_single_collision:
            continue
        if kind is not None and classification.kind is not kind:
            continue
        return cfg, params
    raise IHSEError("failed to draw a one-collision configuration within the retry budget")


def _spread_positions(gen: np.random.Generator, n: int, d: int, *, min_gap: float, spread: float) -> np.ndarray:
    """n points uniform in the cube [-spread, spread]^d with every pairwise
    gap at least min_gap, at most 500 tries."""
    for _ in range(500):
        pts = spread * gen.uniform(-1.0, 1.0, size=(n, d))
        if (np.sqrt(squared_separations(pts)) >= min_gap).all():
            return pts
    raise IHSEError("failed to spread particles")


def unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Single uniform draw from the unit sphere."""
    while True:
        x = gen.standard_normal(dim)
        n = math.sqrt(dot(x, x))
        if n > 1e-12:
            return x / n
