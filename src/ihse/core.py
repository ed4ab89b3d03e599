"""Domain types for systems of unit-diameter spheres: configurations,
phase-space membership, free transport, and conserved-quantity diagnostics.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Default numerical tolerances.  Lengths are in units of the particle
# diameter, which is fixed at 1, so absolute tolerances are meaningful.
CONTACT_TOL = 1e-9
GRAZING_TOL = 1e-12
SIMULTANEITY_TOL = 1e-10
CRIT_TOL = 1e-10
FD_STEP = 1e-6
MAX_EVENTS = 10**6


class IHSEError(Exception):
    """Base class for errors raised by this package."""


class UsageError(IHSEError):
    """Invalid arguments: wrong shapes, non-finite input, bad parameters."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance block: the one carrier of every tolerance from
    the CLI down to the event engine and the finite-difference oracles."""

    grazing_tol: float = GRAZING_TOL
    simultaneity_tol: float = SIMULTANEITY_TOL
    crit_tol: float = CRIT_TOL
    contact_tol: float = CONTACT_TOL
    fd_step: float = FD_STEP
    max_events: int = MAX_EVENTS

    def __post_init__(self):
        for name in ("grazing_tol", "simultaneity_tol", "crit_tol", "fd_step"):
            if not getattr(self, name) > 0:
                raise UsageError(f"{name} must be positive")
        if not self.contact_tol >= 0:
            raise UsageError("contact_tol must be >= 0")
        for name in ("grazing_tol", "simultaneity_tol", "crit_tol", "contact_tol", "fd_step"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if self.max_events <= 0:
            raise UsageError("max_events must be positive")


@dataclass(frozen=True)
class ModelParams:
    """The model: the energy quantum lost per emitting collision, no more.
    The particle diameter is fixed at 1; the dimension is the state's.

    ``epsilon0 = math.inf`` is the elastic-only sentinel: every collision
    falls below the emission threshold.
    """

    epsilon0: float

    def __post_init__(self):
        if not self.epsilon0 > 0:
            raise UsageError("epsilon0 must be > 0")


@dataclass(frozen=True, order=True, slots=True)
class PairIndex:
    """Ordered particle pair, 1-based, i < j."""

    i: int
    j: int

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise UsageError(f"pair indices must satisfy 1 <= i < j, got ({self.i}, {self.j})")

    def zero_based(self) -> tuple[int, int]:
        return self.i - 1, self.j - 1

    def as_list(self) -> list[int]:
        return [self.i, self.j]


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based index arrays (i, j), i < j, of all pairs of n particles in
    lexicographic order: the one source of pair order for every all-pairs
    array.  Cached per n and read-only."""
    i, j = np.triu_indices(n, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def pair_position(n: int, pair: PairIndex) -> int:
    """Index of pair in the pair_indices(n) order; -1 for a pair beyond n."""
    a, b = pair.zero_based()
    return a * (2 * n - a - 1) // 2 + b - a - 1 if b < n else -1


@functools.cache
def pair_index_table(n: int) -> tuple[PairIndex, ...]:
    """The PairIndex of every pair of n particles, in pair_indices order:
    the one place pair records are built.  Cached per n."""
    i, j = pair_indices(n)
    return tuple(PairIndex(a + 1, b + 1) for a, b in zip(i.tolist(), j.tolist()))


def all_pairs(n: int) -> list[PairIndex]:
    """All ordered pairs (i, j), 1 <= i < j <= n, in lexicographic order."""
    return list(pair_index_table(n))


def check_dimension(d: int) -> None:
    if d < 2:
        raise UsageError("dimension must be an integer >= 2")


class Configuration:
    """Positions and velocities of N spheres in dimension d.

    Arrays are stored as float64 with shape (N, d) and frozen after
    construction; all operations on configurations return new objects.
    """

    __slots__ = ("positions", "velocities")

    def __init__(self, positions, velocities):
        try:
            x = np.array(positions, dtype=float)
            v = np.array(velocities, dtype=float)
        except OverflowError as exc:  # an int beyond the floats
            raise UsageError("positions and velocities must be finite") from exc
        except ValueError as exc:  # ragged rows, or text that is not a number
            raise UsageError("positions/velocities must be (N, d) arrays of numbers") from exc
        if x.ndim != 2 or v.shape != x.shape:
            raise UsageError(f"positions/velocities must share shape (N, d), got {x.shape} and {v.shape}")
        if x.shape[0] < 1:
            raise UsageError("need at least one particle")
        check_dimension(x.shape[1])
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise UsageError("positions and velocities must be finite")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def pair_state(self, pair: PairIndex):
        """Relative position x_i - x_j and relative velocity v_i - v_j."""
        i, j = pair.zero_based()
        return self.positions[i] - self.positions[j], self.velocities[i] - self.velocities[j]

    def min_separation(self) -> float:
        return math.sqrt(squared_separations(self.positions).min(initial=math.inf))

    def to_vector(self) -> np.ndarray:
        """Flat phase-space vector: positions then velocities, particle-major."""
        return np.concatenate([self.positions.ravel(), self.velocities.ravel()])

    @staticmethod
    def from_vector(z, n_particles: int, dimension: int) -> "Configuration":
        z = np.asarray(z, dtype=float)
        m = n_particles * dimension
        if z.shape != (2 * m,):
            raise UsageError(f"expected vector of length {2 * m}, got shape {z.shape}")
        return Configuration(z[:m].reshape(n_particles, dimension), z[m:].reshape(n_particles, dimension))

    def to_json_dict(self) -> dict:
        return {
            "d": self.dimension,
            "particles": [{"x": x, "v": v} for x, v in zip(self.positions.tolist(), self.velocities.tolist())],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Configuration":
        """The configuration of a document: an integer "d" and per particle
        an "x" and a "v" list of numbers (no strings, booleans or nulls)."""
        try:
            d = doc["d"]
            particles = doc["particles"]
            x = [p["x"] for p in particles]
            v = [p["v"] for p in particles]
            kinds = set(map(type, itertools.chain.from_iterable(x + v)))
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed configuration document: {exc}") from exc
        if type(d) is not int:
            raise UsageError(f"declared dimension must be an integer, got {d!r}")
        if not kinds <= {int, float}:
            raise UsageError("coordinates must be numbers")
        cfg = Configuration(x, v)
        if cfg.dimension != d:
            raise UsageError(f"declared dimension {d} does not match particle data ({cfg.dimension})")
        return cfg

    def __eq__(self, other):
        return (
            isinstance(other, Configuration)
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.velocities, other.velocities)
        )

    def __repr__(self):
        return f"Configuration(N={self.n_particles}, d={self.dimension})"


class DomainKind(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    INVALID = "invalid"


@dataclass(frozen=True)
class DomainStatus:
    """Phase-space membership: interior (all gaps > 1), boundary (some pair
    at contact within tolerance), or invalid (overlapping pair)."""

    kind: DomainKind
    pairs: tuple[PairIndex, ...] = field(default=())

    @property
    def is_interior(self) -> bool:
        return self.kind is DomainKind.INTERIOR


def pair_differences(values: np.ndarray) -> np.ndarray:
    """values[i] - values[j] for every pair (i, j) in pair_indices order,
    taken over the particle axis of an (..., N, d) array."""
    i, j = pair_indices(values.shape[-2])
    diff = values.take(i, axis=-2)
    return np.subtract(diff, values.take(j, axis=-2), out=diff)


def dot(x: np.ndarray, y: np.ndarray):
    """Inner product over the last axis: the products of the coordinate
    columns added left to right, with elementwise operations only, so it
    rounds the same way on every host (no BLAS kernel, no fused
    multiply-add).  x and y are (..., d) arrays of broadcastable leading
    shapes, d >= 2 as for every state, giving an array of the leading shape;
    two (d,) vectors give a Python float, added on their tolist() values.  A
    pair gets the same bits alone as in its row of a stack."""
    if x.ndim > 1 or y.ndim > 1:
        products = x * y
        total = products[..., 0] + products[..., 1]
        for column in range(2, products.shape[-1]):
            total += products[..., column]
        return total
    return dot_floats(x.tolist(), y.tolist())


def dot_floats(x: list, y: list):
    """dot of two vectors given as their coordinate columns, the products
    added left to right: lists of Python floats give a float, and columns
    of arrays (any of them may be a float shared by every row) an array
    with dot's bits for each row."""
    total = x[0] * y[0]
    for column in range(1, len(x)):
        total += x[column] * y[column]
    return total


def reduce_rows(ufunc: np.ufunc, values: np.ndarray, initial) -> np.ndarray:
    """ufunc.reduce(values, axis=-1, initial=initial) of an (S, K) array, bit
    for bit, for an ufunc whose result does not depend on the order it
    meets its terms in (np.minimum, np.maximum, np.logical_or; a row holding
    a NaN gives NaN either way).  numpy reduces each row in an inner loop of
    its own, about 60 ns a row, so a short axis of many rows (K at most 16
    and at most S / 10) is reduced one column at a time, each ufunc call
    over all S rows."""
    s, k = values.shape
    if not 0 < k <= min(16, s // 10):
        return ufunc.reduce(values, axis=-1, initial=initial)
    total = values[:, 0].copy()
    for column in range(1, k):
        ufunc(total, values[:, column], out=total)
    return total


def squared_norms(values: np.ndarray) -> np.ndarray:
    """np.square(values).sum(axis=-1), bit for bit, for any shape of 2 or
    more dimensions.

    numpy adds fewer than 8 terms left to right, one row at a time, which
    costs a restarted inner loop per row; dot adds them in that order over
    all rows at once.  From 8 terms up numpy's own (pairwise) reduction
    runs, which rng.uniform_ball's draws depend on."""
    if 1 < values.shape[-1] < 8:
        return dot(values, values)
    return np.square(values).sum(axis=-1)


def squared_separations(positions: np.ndarray) -> np.ndarray:
    """Squared separation of every pair of a stack (..., N, d) of position
    sets, in pair_indices order (squared_norms of the differences); the root
    of the smallest sum equals the smallest root."""
    return squared_norms(pair_differences(positions))


def domain_masks(squared: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(invalid, boundary) pair masks from the squared_separations of a
    stack (..., N, d) of position sets, by validate_configuration's rules on
    one gap g = |x_i - x_j| - 1 per pair: invalid when g < -tol, boundary
    when |g| <= tol, so every pair with neither has g > tol (interior)."""
    gap = np.sqrt(squared) - 1.0
    return gap < -tol, np.abs(gap) <= tol


def validate_configuration(cfg: Configuration, tol: float = CONTACT_TOL) -> DomainStatus:
    """Classify a configuration against the hard-sphere domain.

    Interior when every pair separation exceeds 1 + tol; boundary pairs have
    | |x_i - x_j| - 1 | <= tol; invalid pairs overlap by more than tol.
    Invalid takes precedence over boundary.
    """
    if tol < 0:
        raise UsageError("tol must be >= 0")
    invalid, boundary = domain_masks(squared_separations(cfg.positions), tol)
    for kind, flagged in ((DomainKind.INVALID, invalid), (DomainKind.BOUNDARY, boundary)):
        hits = np.flatnonzero(flagged)
        if hits.size:
            table = pair_index_table(cfg.n_particles)
            return DomainStatus(kind, tuple(table[k] for k in hits.tolist()))
    return DomainStatus(DomainKind.INTERIOR)


def free_transport(cfg: Configuration, t: float) -> Configuration:
    """Straight-line transport by time t (may be negative); no collision check."""
    if not math.isfinite(t):
        raise UsageError("transport time must be finite")
    return Configuration(cfg.positions + t * cfg.velocities, cfg.velocities)


def within_reach(positions: np.ndarray, velocities: np.ndarray, horizon: float, spread: float = 0.0) -> np.ndarray:
    """Per state of a stack (..., N, d): whether no run over [0, horizon]
    from within spread of the state per coordinate can overflow the contact
    quadratic's b*b or a*c (fourth degree in the coordinates).  Kinetic
    energy never grows, so no coordinate leaves reach and no |r|^2 or |w|^2
    tops square.  A non-finite state is out of reach."""
    n, d = positions.shape[-2:]
    coordinates = np.maximum(np.abs(positions), np.abs(velocities)).reshape(-1, n * d)
    top = reduce_rows(np.maximum, coordinates, -np.inf).reshape(positions.shape[:-2])
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (top + spread) * (1.0 + horizon * math.sqrt(n * d))
        square = d * (2.0 * reach) * (2.0 * reach)
        return np.isfinite(square * square)


def reach_error(name: str, subject: str) -> UsageError:
    """The error of a state out of reach (within_reach) over [0, name]."""
    return UsageError(f"{subject} is too large: the contact roots would overflow over [0, {name}]")


def check_reach(cfg: Configuration, horizon: float, name: str, subject: str, spread: float = 0.0) -> None:
    """UsageError unless 0 < horizon < inf and cfg is within_reach over
    [0, horizon], with spread."""
    if not 0 < horizon < math.inf:
        raise UsageError(f"{name} must be positive and finite")
    if not within_reach(cfg.positions, cfg.velocities, horizon, spread):
        raise reach_error(name, subject)


def conserved_quantities(cfg: Configuration) -> tuple[np.ndarray, float]:
    """Total momentum (d-vector) and kinetic energy sum |v_i|^2 / 2."""
    momentum = cfg.velocities.sum(axis=0)
    kinetic = 0.5 * float((cfg.velocities**2).sum())
    return momentum, kinetic


def kinetic_energy(cfg: Configuration) -> float:
    return conserved_quantities(cfg)[1]
