"""Benchmark workloads: seeded input generators and the fixed sequence of
``ihse`` CLI invocations each workload runs.

All inputs are made here from the workload seed; the program only receives
configuration files and flags.  Each workload is a closed loop with a single
client: the next invocation starts when the previous one has returned.

Why each workload exists, and which per-layer metrics (traced run) should
move which end-to-end metric:

``cluster``
    Twelve ``simulate`` runs on dense 2-D clusters (N = 32 disks on a
    jittered lattice, spacing 1.6, Gaussian velocities plus an inward drift,
    T = 5, eps0 = 0.5): about 50 events per cluster, most of them emitting.
    Every event runs the all-pairs collision scan and the grazing scan, so
    this is the workload a vectorised kernel or an event calendar must speed
    up.
      collision.self_s, collision.first_collision.{calls,p50_us},
      collision.pair_predictions          -> norm_work_per_s (events/s), norm_wall_s
      simulator.self_s, simulator.simulate.calls, simulator.events,
      simulator.us_per_event               -> norm_work_per_s, norm_wall_s
      scattering.self_s, scattering.scatter.{calls,p50_us},
      scattering.emit_frac                 -> norm_work_per_s (small share)
      jsonio.self_s, jsonio.bytes_out, cli.self_s, cli.run.calls
                                           -> norm_wall_s (largest share here)

``oracle``
    ``jacobian --samples 10`` at 2, 3 and 4 particles (C05-style one-collision
    cases) and four ``volume --radius 1e-3 --tau 1.5`` runs on jittered
    copies of the C11 three-disk chain, alternately emitting (eps0 = 0.5) and
    elastic (eps0 = inf).  Hundreds of short N <= 4 trajectories, where fixed
    per-call costs dominate; a kernel tuned for large N can get slower here.
      core.self_s, core.{min_separation,free_transport,
      validate_configuration}.calls         -> norm_work_per_s (cases/s)
      tct.self_s, tct.{classify_tct_domain,tct_flow}.calls,
      tct.classify_tct_domain.p50_us       -> norm_work_per_s
      jacobian_lab.self_s, jacobian_lab.{oracle_calls,
      map_evals_per_oracle, case_draw_tries, branch_crossings}
                                           -> norm_work_per_s
      measure_mc.simulate_calls_per_volume -> norm_work_per_s
      simulator.*, collision.*             -> norm_work_per_s (smaller share)

``montecarlo``
    ``measure --N 3 --delta 0.3 --R1 3 --R2 1 --eps0 0.01 --samples 1000000``
    for family E and family P (``--mu 0.25``), each at ``IHSE_THREADS=1`` and
    at ``IHSE_THREADS=min(2, nproc)``.  Only ``rng`` and ``measure_mc`` work;
    the event engine never runs.  E and P use the block kernel differently
    (P also computes velocity distances).  The 1-thread runs are the
    single-threaded baseline and check thread-count invariance.
      measure_mc.self_s, measure_mc.estimate.calls, measure_mc.hit_frac,
      measure_mc.parallel_efficiency       -> norm_work_per_s (draws/s)
      rng.self_s, rng.{uniform_ball,block_generator}.calls
                                           -> norm_work_per_s
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

CLUSTER_COUNT = 12
CLUSTER_PARTICLES = 32
CLUSTER_SPACING = 1.6
CLUSTER_JITTER = 0.2
CLUSTER_DRIFT = 0.5
CLUSTER_T = "5"
CLUSTER_EPS0 = "0.5"

C11_CHAIN_POSITIONS = ((3.0, 0.0), (0.0, 0.0), (6.0, 0.0))
C11_CHAIN_VELOCITIES = ((0.0, 0.0), (3.0, 0.0), (-1.0, 0.0))
CHAIN_JITTER = 0.05
CHAIN_COUNT = 4
CHAIN_EPS0 = ("0.5", "inf")  # alternately emitting and elastic

JACOBIAN_PARTICLES = (2, 3, 4)
MEASURE_FLAGS = ("--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01")
MEASURE_SAMPLES = 1_000_000

# Stream tags keep the generators of different inputs independent.
TAG_CLUSTER, TAG_CHAIN, TAG_JACOBIAN, TAG_MEASURE = 1, 2, 3, 4


def generator(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Deterministic stream for one generated input."""
    return np.random.default_rng([seed, tag, index])


def derived_seed(seed: int, tag: int, index: int = 0) -> int:
    """Seed handed to the program for one invocation (``jacobian``, ``measure``)."""
    return int(generator(seed, tag, index).integers(0, 2**31 - 1))


def configuration_doc(positions: np.ndarray, velocities: np.ndarray) -> dict:
    """Configuration in the CLI's ``--config`` JSON format."""
    return {
        "d": int(positions.shape[1]),
        "particles": [{"x": [float(c) for c in x], "v": [float(c) for c in v]} for x, v in zip(positions, velocities)],
    }


def dense_cluster(seed: int, index: int) -> dict:
    """N = 32 disks on the sites of a square lattice nearest its centre,
    jittered by at most CLUSTER_JITTER per coordinate (so every gap stays
    above 1), with unit Gaussian velocities plus an inward drift."""
    gen = generator(seed, TAG_CLUSTER, index)
    side = math.ceil(math.sqrt(CLUSTER_PARTICLES + 4))
    centre = (side - 1) / 2.0
    sites = sorted(
        ((a, b) for a in range(side) for b in range(side)),
        key=lambda p: ((p[0] - centre) ** 2 + (p[1] - centre) ** 2, p),
    )
    positions = np.array(sites[:CLUSTER_PARTICLES], dtype=float) * CLUSTER_SPACING
    positions += gen.uniform(-CLUSTER_JITTER, CLUSTER_JITTER, positions.shape)
    velocities = gen.standard_normal(positions.shape)
    inward = positions.mean(axis=0) - positions
    velocities += CLUSTER_DRIFT * inward / np.linalg.norm(inward, axis=1, keepdims=True)
    return configuration_doc(positions, velocities)


def c11_chain(seed: int, index: int) -> dict:
    """The C11 three-disk chain with every coordinate jittered by at most
    CHAIN_JITTER; it keeps the two head-on collisions of the original."""
    gen = generator(seed, TAG_CHAIN, index)
    positions = np.array(C11_CHAIN_POSITIONS) + gen.uniform(-CHAIN_JITTER, CHAIN_JITTER, (3, 2))
    velocities = np.array(C11_CHAIN_VELOCITIES) + gen.uniform(-CHAIN_JITTER, CHAIN_JITTER, (3, 2))
    return configuration_doc(positions, velocities)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``ihse <argv> --output <file>`` with ``env`` set."""

    key: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    work: Callable[[dict], int]
    env: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    """A workload's invocations for one seed, with the warm-up calls made
    during set-up and a check across the documents of one pass."""

    invocations: tuple[Invocation, ...]
    warmups: tuple[Invocation, ...]
    cross_check: Callable[[dict], dict] = lambda docs: {}


@dataclass(frozen=True)
class Workload:
    work_unit: str  # what norm_work_per_s counts; also its name in the details
    build: Callable[[int, Path], Plan]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def simulate_invocation(key: str, config: str) -> Invocation:
    argv = ("simulate", "--config", config, "--T", CLUSTER_T, "--eps0", CLUSTER_EPS0)
    return Invocation(key, argv, checks.check_simulate, checks.simulate_work)


def build_cluster(seed: int, workdir: Path) -> Plan:
    configs = [_write(workdir / f"cluster{k:02d}.json", dense_cluster(seed, k)) for k in range(CLUSTER_COUNT)]
    invocations = tuple(simulate_invocation(f"simulate/cluster{k:02d}", c) for k, c in enumerate(configs))
    return Plan(invocations, (simulate_invocation("warmup/simulate", configs[0]),))


def jacobian_invocation(key: str, n: int, samples: int, seed: int) -> Invocation:
    argv = ("jacobian", "--samples", str(samples), "--n-particles", str(n), "--seed", str(seed))
    return Invocation(key, argv, checks.check_jacobian, checks.jacobian_work)


def volume_invocation(key: str, config: str, eps0: str) -> Invocation:
    argv = ("volume", "--config", config, "--radius", "1e-3", "--tau", "1.5", "--eps0", eps0)
    return Invocation(key, argv, checks.check_volume, checks.volume_work)


def build_oracle(seed: int, workdir: Path) -> Plan:
    jacobians = [
        jacobian_invocation(f"jacobian/n{n}", n, 10, derived_seed(seed, TAG_JACOBIAN, n)) for n in JACOBIAN_PARTICLES
    ]
    chains = [_write(workdir / f"chain{k}.json", c11_chain(seed, k)) for k in range(CHAIN_COUNT)]
    volumes = [
        volume_invocation(f"volume/chain{k}-eps{CHAIN_EPS0[k % 2]}", c, CHAIN_EPS0[k % 2]) for k, c in enumerate(chains)
    ]
    warmups = (
        jacobian_invocation("warmup/jacobian", 2, 1, derived_seed(seed, TAG_JACOBIAN, 0)),
        volume_invocation("warmup/volume", chains[0], CHAIN_EPS0[0]),
    )
    return Plan(tuple(jacobians + volumes), warmups)


def measure_threads() -> int:
    return min(2, os.cpu_count() or 1)


def measure_invocation(key: str, family: str, samples: int, seed: int, threads: int) -> Invocation:
    argv = ("measure", "--family", family, *MEASURE_FLAGS, "--samples", str(samples), "--seed", str(seed))
    if family == "P":
        argv += ("--mu", "0.25")
    return Invocation(key, argv, checks.check_measure, checks.measure_work, {"IHSE_THREADS": str(threads)})


def build_montecarlo(seed: int, workdir: Path) -> Plan:
    threads = measure_threads()
    invocations = tuple(
        measure_invocation(f"measure/{family}-t{t}", family, MEASURE_SAMPLES, derived_seed(seed, TAG_MEASURE, i), t)
        for i, family in enumerate("EP")
        for t in (1, threads)
    )
    warmups = (measure_invocation("warmup/measure", "P", 2 * 4096, derived_seed(seed, TAG_MEASURE, 0), threads),)
    return Plan(invocations, warmups, checks.check_thread_invariance)


# Why each workload is here, and what its layers should move: module docstring.
WORKLOADS = {
    "cluster": Workload("events", build_cluster),
    "oracle": Workload("cases", build_oracle),
    "montecarlo": Workload("mc_samples", build_montecarlo),
}
