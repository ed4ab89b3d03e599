"""Bit-identity pin of the event engine.

The digest covers, for fixed ensembles of the acceptance criteria, every
event's pair, kind and exact time (as a hex float) plus the final state's
raw bytes, and the one-collision classification signatures.  Any change to
event order, event times or post-collision states changes the digest.
"""

import hashlib
import math

from ihse import CollisionKind, Configuration, ModelParams, classify_tct_domain, simulate
from ihse.jacobian_lab import random_tct_case
from ihse.measure_mc import low_energy_ensemble
from ihse.simulator import collision_rich_configuration

GOLDEN_SHA256 = "afbee89ad45ba93650baabd223af86f25f1c6034b8f36e0a3a8d3c282a247ad6"


def _feed_report(digest, report):
    for event in report.events:
        digest.update(f"{event.pair.i},{event.pair.j},{event.kind.value},{event.time.hex()};".encode())
    if report.halted is not None:
        digest.update(f"halted:{report.halted.reason},{report.halted.time.hex()};".encode())
    digest.update(report.final.positions.tobytes())
    digest.update(report.final.velocities.tobytes())


def test_engine_digest_is_pinned():
    digest = hashlib.sha256()
    params = ModelParams(0.35, 2)
    for index in range(100):  # C08 ensembles
        cfg = collision_rich_configuration(808, index, 3 + index % 3, 2, 4.0, 1.5, 1.2)
        _feed_report(digest, simulate(cfg, 10.0, params))
    params = ModelParams(0.2, 2)
    for index in range(200):  # C09 runs
        _feed_report(digest, simulate(low_energy_ensemble(909, index, 3, params), 50.0, params))
    chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])  # C11
    _feed_report(digest, simulate(chain, 1.5, ModelParams(0.5, 2)))
    _feed_report(digest, simulate(chain, 1.5, ModelParams(math.inf, 2)))
    for index in range(60):  # C05 cases
        kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
        cfg, params = random_tct_case(505, index, 2 + index % 3, kind=kind, tau=1.0)
        digest.update(repr(classify_tct_domain(cfg, 1.0, params).signature()).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
