"""Monte Carlo estimation of the pathological-set measures (near-multiple
collisions, near-critical relative speeds) and ensemble phase-space volume
evolution under the multi-collision flow, checked against the product of
per-event analytic contraction factors.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Configuration, IHSEError, ModelParams, Tolerances, UsageError, check_reach
from .core import pair_indices
from .jacobian_lab import _stack_map, fd_determinant
from .rng import BLOCK_SIZE, block_generator, blocks, uniform_ball
from .simulator import simulate_stack
from .tct import contraction_factor

SPEED_BAND_WIDTH = "relative_speed_band"  # band 2 sqrt(e0) <= |w| <= 2 sqrt(e0)(1 + (sqrt(2)-1) mu)
SPEED_BAND_CUTOFF = "jacobian_cutoff"  # band 4 e0 <= |w|^2 < 4 e0 / (1 - mu)


@dataclass(frozen=True)
class PathologicalSetSpec:
    """Which pathological set to sample: double-proximity sets (family "E")
    or proximity-with-near-critical-speed sets (family "P"), at time-shift
    index k inside the truncated region |X| <= R1 + k*delta*R2, |V| <= R2.
    Only family P reads mu and the speed band form, so family E rejects a
    mu and the jacobian_cutoff band."""

    family: str  # "E" | "P"
    n_particles: int
    k: int
    delta: float
    mu: Optional[float]
    R1: float
    R2: float
    params: ModelParams
    band: str = SPEED_BAND_WIDTH

    def __post_init__(self):
        if self.family not in ("E", "P"):
            raise UsageError("family must be 'E' or 'P'")
        if self.n_particles < 2:
            raise UsageError("need at least two particles")
        if self.k < 0:
            raise UsageError("k must be >= 0")
        if not (0 < self.delta <= 1):
            raise UsageError("delta must lie in (0, 1]")
        if not (0 < self.R1 < math.inf and 0 < self.R2 < math.inf):
            raise UsageError("R1 and R2 must be positive and finite")
        if self.delta > 2.0 / (3.0 * math.sqrt(2.0) * self.R2):
            raise UsageError("delta must satisfy delta <= 2 / (3 sqrt(2) R2)")
        if self.family == "P":
            if self.mu is None:
                raise UsageError("family P requires mu")
            if not (0 < self.mu <= 0.5):
                raise UsageError("mu must lie in (0, 1/2]")
        elif self.mu is not None:
            raise UsageError("--mu has no effect on family E")
        elif self.band == SPEED_BAND_CUTOFF:
            raise UsageError(f"--band {SPEED_BAND_CUTOFF} has no effect on family E")
        if self.band not in (SPEED_BAND_WIDTH, SPEED_BAND_CUTOFF):
            raise UsageError(f"unknown speed band form: {self.band}")

    @property
    def position_radius(self) -> float:
        return self.R1 + self.k * self.delta * self.R2


@dataclass(frozen=True)
class MeasureEstimate:
    spec: PathologicalSetSpec
    n_samples: int
    hits: int
    fraction: float
    volume: float  # fraction x sampling-box volume
    ci95: float  # binomial half-width, volume units


def ball_volume(dim: int, radius: float) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def box_volume(dim: int, r_positions: float, r_velocities: float) -> float:
    """ball_volume(dim, r_positions) * ball_volume(dim, r_velocities), the
    volume of the sampling box.  Where a factor overflows, the product is
    taken from logarithms instead, inf when it is not a finite float."""
    try:
        box = ball_volume(dim, r_positions) * ball_volume(dim, r_velocities)
    except OverflowError:  # pi**(dim/2), gamma or radius**dim
        box = math.inf
    if box < math.inf:
        return box
    log_ball = dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)
    log_box = 2.0 * log_ball + dim * (math.log(r_positions) + math.log(r_velocities))
    return math.exp(log_box) if log_box < math.log(sys.float_info.max) else math.inf


def _pair_distances(points: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise distances for a block of stacked configurations (block, N, d),
    shape (block, n_pairs), in pair_indices order; the transpose of out, an
    (n_pairs, block) float array whose rows are contiguous, when given.

    Each pair is computed column by column: the square of its component-0
    difference, plus the square of each further component in order, then
    the root.  For d < 8 that is the left-to-right sum numpy's axis-wise
    norm takes (the order of core.squared_norms), so a distance on a set's
    boundary rounds as it always has.  Unlike squared_norms' row layout,
    the result is a view of a pair-major buffer: each pair's column is
    contiguous, and the reductions over the pairs that follow run one column
    at a time, which on a block is many times faster than over rows.  A
    distance too large for its square is inf, beyond every threshold.
    """
    count, n, d = points.shape
    i, j = pair_indices(n)
    dist = np.empty((i.size, count)) if out is None else out
    with np.errstate(over="ignore"):
        for row, a, b in zip(dist, i.tolist(), j.tolist()):
            np.subtract(points[:, a, 0], points[:, b, 0], out=row)
            np.square(row, out=row)
            for c in range(1, d):
                diff = points[:, a, c] - points[:, b, c]
                row += np.square(diff, out=diff)
            np.sqrt(row, out=row)
    return dist.T


class _BlockKernel:
    """Hit counter for the blocks of one estimate, run by one thread.  Its
    draws and pair distances are written into BLOCK_SIZE-row arrays it keeps
    from block to block, one block in views [:count] of them, so no block
    frees an array the next one must page back in.

    Both families draw the positions first.  Family E reads nothing else
    and draws nothing more; family P then draws the velocities from the same
    stream, so its draws are those of a kernel that always drew both."""

    def __init__(self, spec: PathologicalSetSpec):
        self.spec = spec
        n = spec.n_particles
        self.x = np.empty((BLOCK_SIZE, 2 * n))
        self.xdist = np.empty((n * (n - 1) // 2, BLOCK_SIZE))
        if spec.family == "P":
            self.v = np.empty_like(self.x)
            self.vdist = np.empty_like(self.xdist)

    def hits(self, gen: np.random.Generator, count: int) -> int:
        """Hits among one block of count draws from gen."""
        spec = self.spec
        n, d = spec.n_particles, 2
        x = uniform_ball(gen, count, n * d, spec.position_radius, out=self.x[:count]).reshape(count, n, d)
        xdist = _pair_distances(x, out=self.xdist[:, :count])
        interior = (xdist > 1.0).all(axis=1)
        if spec.family == "E":
            proximity = 1.0 + 1.5 * math.sqrt(2.0) * spec.delta * spec.R2
            hits = interior & ((xdist <= proximity).sum(axis=1) >= 2)
            return int(hits.sum())
        v = uniform_ball(gen, count, n * d, spec.R2, out=self.v[:count]).reshape(count, n, d)
        proximity = 1.0 + math.sqrt(2.0) * spec.delta * spec.R2
        vdist = _pair_distances(v, out=self.vdist[:, :count])
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


def estimate_pathological_measure(
    spec: PathologicalSetSpec,
    n_samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> MeasureEstimate:
    """Hit-or-miss estimate of the set's Lebesgue measure.

    Sampling is uniform on the product of stacked-norm balls
    B(0, R1 + k delta R2) x B(0, R2); draws whose configuration is not
    interior cannot belong to the set and count as misses.  Blocks of
    rng.BLOCK_SIZE draws are keyed by (seed, block index), so the result is
    independent of thread count and evaluation order.  The blocks are dealt
    to min(threads, blocks) workers in turn, each with its own _BlockKernel,
    and their integer hits summed.  A box whose volume
    (box_volume) is not a finite float is a UsageError, raised before any
    draw.
    """
    if n_samples <= 0:
        raise UsageError("n_samples must be positive")
    n, d = spec.n_particles, 2
    box = box_volume(n * d, spec.position_radius, spec.R2)
    if not box < math.inf:
        raise UsageError(
            f"the sampling box |X| <= {spec.position_radius!r}, |V| <= {spec.R2!r} in {n * d} dimensions each"
            " has no finite volume"
        )
    work = list(blocks(n_samples))
    workers = min(threads, len(work))

    def run(share):
        kernel = _BlockKernel(spec)
        return sum(kernel.hits(block_generator(seed, index), count) for index, count in share)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(run, [work[t::workers] for t in range(workers)]))
    else:
        hits = run(work)
    fraction = hits / n_samples
    ci95 = 1.96 * math.sqrt(max(fraction * (1.0 - fraction), 0.0) / n_samples) * box
    return MeasureEstimate(spec, n_samples, hits, fraction, fraction * box, ci95)


def ensemble_volume_evolution(
    center: Configuration,
    radius: float,
    tau: float,
    params: ModelParams,
    *,
    tol: Tolerances = Tolerances(),
) -> tuple[float, float]:
    """(predicted, measured) local volume factor of the flow over [0, tau]
    around a trajectory.

    predicted multiplies the analytic per-event factors along the center
    trajectory: contraction_factor, (1 - 4 eps0 / s^2)^((d-1)/2), per
    emitting collision and 1 per elastic collision, in any dimension d.
    measured is |det| of the finite-difference Jacobian of the full flow
    map at the center with step radius/10; every stencil point must
    reproduce the center's event sequence (same pairs, kinds, order),
    otherwise BranchCrossingError is raised so the caller can shrink the
    radius.  The center and every stencil point at both FD steps are one
    simulate_stack call, the center as row 0: its error, or a halt on a
    pathology, comes before any finite-difference failure.  A radius whose
    stencil could overflow the contact roots over [0, tau] (check_reach) is
    a UsageError, raised before any trajectory runs.
    """
    if not (radius > 0 and tau > 0):
        raise UsageError("radius and tau must be positive")
    check_reach(center, tau, "tau", f"--radius {radius!r}", radius / 10.0)
    n, d = center.n_particles, center.dimension
    records = []

    def flow(z):
        stack, values, labels = _stack_map(lambda x, v: simulate_stack(x, v, tau, params, tol=tol), z, n, d)
        if stack.halted[0] is not None:
            raise IHSEError(f"center trajectory halted on pathology: {stack.halted[0].reason}")
        records.extend(stack.events[0])
        return values, labels

    det = fd_determinant(flow, center.to_vector(), radius / 10.0)
    predicted = 1.0
    for _, _, emits, _, _, rel_speed_sq in records:
        if emits:
            predicted *= contraction_factor(rel_speed_sq, params, d)
    return predicted, abs(det)
