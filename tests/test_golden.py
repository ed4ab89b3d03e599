"""Bit-identity pins of the event engine.

GOLDEN_SHA256 covers, for fixed ensembles of the acceptance criteria, every
event's pair, kind and exact time (as a hex float) plus the final state's
raw bytes, and the one-collision classification signatures.  Any change to
event order, event times or post-collision states changes the digest.

DETAIL_SHA256 covers what the first leaves out: reported minimum
separations and every event's energies and squared relative speed, a d=3
ensemble and dense d=2/d=3 clusters (also under loose tolerances), domain
statuses at three contact tolerances, single-pair predictions, discriminants
and contact-time gradients, all-pairs scans with and without a recent pair,
rejection-sampled draws, and scattering outcomes.

Both digests hash exact floating-point bits.  Every inner product the
engine takes, and every one these tests take to build their inputs, is
core.dot's: elementwise products added left to right, never BLAS.  So the
digests do not depend on the kernel OpenBLAS picks by CPU: they pass with
OPENBLAS_CORETYPE unset and set to SkylakeX, Haswell, Zen and Prescott
(numpy 2.4 with its bundled OpenBLAS 0.3.31 on an AVX-512 x86-64 host).  They were re-pinned once when the engine moved off BLAS dot
products; no event's pair or kind, and no halt, changed then.
"""

import hashlib
import math

import numpy as np

from ihse import (
    CollisionKind,
    Configuration,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    all_pairs,
    classify_tct_domain,
    collision_time_gradients,
    first_collision,
    inelastic_emission,
    predict_pair,
    scatter,
    simulate,
    validate_configuration,
)
from ihse.core import dot
from ihse.jacobian_lab import random_tct_case
from ihse.rng import unit_vector
from ihse.simulator import collision_rich_configuration, random_configuration

from oracles import low_energy_ensemble, sigma_direction

GOLDEN_SHA256 = "0f27765fb4959451282e352d6cdfd52079019c95660f554aed39959c4d68acba"
DETAIL_SHA256 = "298c0ac39b8edd3eb94ff177141e63e3c0acb801922911fcc3b8abac9e966878"


def _feed_report(digest, report):
    for event in report.events:
        digest.update(f"{event.pair.i},{event.pair.j},{event.kind.value},{event.time.hex()};".encode())
    if report.halted is not None:
        digest.update(f"halted:{report.halted.reason},{report.halted.time.hex()};".encode())
    digest.update(report.final.positions.tobytes())
    digest.update(report.final.velocities.tobytes())


def _signature(classification) -> tuple:
    """Hashable branch label of a one-collision classification: pair and
    kind of a single collision, the reason of an exclusion, or free."""
    if classification.is_single_collision:
        return ("single_collision", classification.pair.i, classification.pair.j, classification.kind.value)
    if classification.is_excluded:
        return ("excluded", classification.reason.value)
    return ("free",)


def test_engine_digest_is_pinned():
    digest = hashlib.sha256()
    params = ModelParams(0.35)
    for index in range(100):  # C08 ensembles
        cfg = collision_rich_configuration(808, index, 3 + index % 3, 2, 4.0, 1.5, 1.2)
        _feed_report(digest, simulate(cfg, 10.0, params))
    params = ModelParams(0.2)
    for index in range(200):  # C09 runs
        _feed_report(digest, simulate(low_energy_ensemble(909, index, 3, 2, params), 50.0, params))
    chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])  # C11
    _feed_report(digest, simulate(chain, 1.5, ModelParams(0.5)))
    _feed_report(digest, simulate(chain, 1.5, ModelParams(math.inf)))
    for index in range(60):  # C05 cases
        kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
        cfg, params = random_tct_case(505, index, 2 + index % 3, kind=kind, tau=1.0)
        digest.update(repr(_signature(classify_tct_domain(cfg, 1.0, params))).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _cluster(gen, side, spacing, jitter, drift, d):
    """Jittered square or cubic lattice with Gaussian velocities plus an inward drift."""
    sites = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)
    positions = spacing * sites + gen.uniform(-jitter, jitter, sites.shape)
    velocities = gen.standard_normal(sites.shape)
    inward = positions.mean(axis=0) - positions
    velocities += drift * inward / np.linalg.norm(inward, axis=1, keepdims=True)
    return Configuration(positions, velocities)


def _grazing_aimed(gen, n, d):
    """Spread configuration whose pair (1, 2) approaches tangentially."""
    positions = 6.0 * gen.uniform(-1.0, 1.0, (n, d))
    positions[1] = positions[0] + (2.0 + gen.random()) * unit_vector(gen, d)
    velocities = gen.standard_normal((n, d))
    r = positions[0] - positions[1]
    length = math.sqrt(dot(r, r))
    axis = r / length
    perp = unit_vector(gen, d)
    perp -= dot(perp, axis) * axis
    perp /= math.sqrt(dot(perp, perp))
    velocities[0] = velocities[1] + (0.5 + gen.random()) * (
        -axis * math.sqrt(length**2 - 1.0) / length + perp / length
    )
    return Configuration(positions, velocities)


def _feed_details(digest, report):
    digest.update(f"min_sep:{report.min_separation.hex()};".encode())
    for e in report.events:
        digest.update(f"{e.pair.as_list()},{e.kind.value},{e.time.hex()},".encode())
        digest.update(f"{e.ke_before.hex()},{e.ke_after.hex()},{e.rel_speed_sq.hex()};".encode())
    _feed_report(digest, report)


def _feed_prediction(digest, pred):
    time = "none" if pred.time is None else pred.time.hex()
    digest.update(f"{pred.pair.as_list()},{pred.discriminant.hex()},{time},{pred.grazing};".encode())


def _feed_scan(digest, scan):
    if scan is None:
        digest.update(b"scan:none;")
        return
    time = "none" if scan.time is None else scan.time.hex()
    pair = "none" if scan.pair is None else scan.pair.as_list()
    graze = "none" if scan.graze is None else scan.graze.hex()
    digest.update(f"scan:{time},{pair},{scan.unique},{graze};".encode())


def test_engine_detail_digest_is_pinned():
    digest = hashlib.sha256()
    params = ModelParams(0.35)
    for index in range(40):  # C08 ensembles: separations and energy bookkeeping
        cfg = collision_rich_configuration(808, index, 3 + index % 3, 2, 4.0, 1.5, 1.2)
        _feed_details(digest, simulate(cfg, 10.0, params))
    params = ModelParams(0.3)
    for index in range(60):  # d=3 collision-rich ensemble
        cfg = collision_rich_configuration(303, index, 3 + index % 6, 3, 3.5, 1.5, 1.2)
        digest.update(cfg.positions.tobytes() + cfg.velocities.tobytes())
        _feed_details(digest, simulate(cfg, 10.0, params))
    gen = np.random.default_rng(2024)
    clusters = [_cluster(gen, 6, 1.6, 0.2, 0.5, 2) for _ in range(3)] + [_cluster(gen, 3, 1.5, 0.15, 0.5, 3)]
    loose = Tolerances(grazing_tol=1e-6, simultaneity_tol=1e-4, crit_tol=1e-3)
    for k, cfg in enumerate(clusters):  # dense N=36 (d=2) and N=27 (d=3) clusters
        dim = cfg.dimension
        _feed_details(digest, simulate(cfg, 5.0, ModelParams(0.5)))
        _feed_details(digest, simulate(cfg, 5.0, ModelParams(0.05 + 0.1 * k), tol=loose))
    probes = []
    for index in range(40):
        n, d = 2 + index % 9, 2 + index % 2
        probes.append(random_configuration(707, index, n, d, 1.0 + 0.8 * n, 1.0))
        probes.append(_grazing_aimed(gen, n, d))
        spread = gen.uniform(-1.0, 1.0, (n, d)) * (0.6 + 0.2 * n)
        probes.append(Configuration(spread, gen.standard_normal((n, d))))
    probes.append(Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.5, 0.5]], np.zeros((4, 2))))
    for cfg in probes:  # random, grazing-aimed and overlapping configurations
        digest.update(cfg.positions.tobytes() + cfg.velocities.tobytes())
        digest.update(f"min_sep:{cfg.min_separation().hex()};".encode())
        for contact_tol in (0.0, 1e-9, 0.05):
            status = validate_configuration(cfg, contact_tol)
            digest.update(f"{status.kind.value},{[p.as_list() for p in status.pairs]};".encode())
        for tol in (Tolerances(), loose):
            for pair in all_pairs(cfg.n_particles):
                pred = predict_pair(cfg, pair, tol=tol)
                _feed_prediction(digest, pred)
                digest.update(predict_pair(cfg, pair).discriminant.hex().encode())
                if pred.time is not None and not pred.grazing:
                    gx, gv = collision_time_gradients(cfg, pair, tol=tol)
                    digest.update(gx.tobytes() + gv.tobytes())
            if cfg.n_particles > 1:
                for horizon in (0.5, 2.0, 50.0):
                    _feed_scan(digest, first_collision(cfg, horizon, tol=tol))
                    _feed_scan(digest, first_collision(cfg, horizon, tol=tol, recent_pair=PairIndex(1, 2)))
    for index in range(30):  # rejection-sampled draws
        kind = (CollisionKind.ELASTIC, CollisionKind.INELASTIC, None)[index % 3]
        cfg, case_params = random_tct_case(606, index, 2 + index % 4, kind=kind, tau=1.0, d=2 + index % 2)
        digest.update(cfg.positions.tobytes() + cfg.velocities.tobytes() + case_params.epsilon0.hex().encode())
        n = 4 + index % 5
        tight = random_configuration(616, index, n, 2 + index % 2, 0.8 * n, 1.0)
        digest.update(tight.positions.tobytes() + tight.velocities.tobytes())
    for index in range(300):  # scattering law on pre-collisional pairs
        d = 2 + index % 2
        omega = unit_vector(gen, d)
        v_i = gen.standard_normal(d) + omega
        v_j = gen.standard_normal(d) - omega
        if dot(v_j - v_i, omega) >= 0.0:
            v_i, v_j = v_j, v_i
        eps0 = (0.05, 0.5, 2.0)[index % 3]
        try:
            outcome = scatter(v_i, v_j, omega, ModelParams(eps0))
        except IHSEError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(f"{outcome.kind.value},{outcome.energy_loss.hex()},{outcome.kappa!r};".encode())
        digest.update(outcome.v_i_post.tobytes() + outcome.v_j_post.tobytes())
        if outcome.sigma is not None:
            digest.update(outcome.sigma.tobytes() + sigma_direction(v_i, v_j, omega).tobytes())
            for part in inelastic_emission(v_i, v_j, omega, eps0):
                digest.update(np.asarray(part).tobytes())
    assert digest.hexdigest() == DETAIL_SHA256
