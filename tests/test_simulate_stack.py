"""The lockstep multi-collision loop against one state at a time: every row
of ``simulate_stack`` must carry what ``simulate`` gives the same state
alone, bit for bit: the final state, every event (time, pair, kind,
energies, relative speed), the halt reason and time, the minimum
separation, and the exception type and message of a run that raises."""

import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import Configuration, IHSEError, ModelParams, PairIndex, Tolerances, UsageError, simulate, simulator
from ihse.core import pair_index_table, pair_position
from ihse import collision, scattering
from ihse.jacobian_lab import _stack_map
from ihse.scattering import GrazingContactError
from ihse.simulator import (
    PATHOLOGY_CRITICAL_ENERGY,
    PATHOLOGY_GRAZING,
    PATHOLOGY_MAX_EVENTS,
    PATHOLOGY_SIMULTANEOUS,
    collision_rich_configuration,
    simulate_stack,
)

from test_cli import count_calls

# The C11 double-emitting chain: particle 2 hits 1, which then hits 3.
CHAIN_X, CHAIN_V = [[3.0, 0.0], [0.0, 0.0], [6.0, 0.0]], [[0.0, 0.0], [3.0, 0.0], [-1.0, 0.0]]
HALTS = {PATHOLOGY_GRAZING, PATHOLOGY_SIMULTANEOUS, PATHOLOGY_CRITICAL_ENERGY, PATHOLOGY_MAX_EVENTS}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _fingerprint(report):
    """Everything a report holds, floats as hex so that equality is bitwise."""
    events = tuple(
        (_hex(e.time), e.pair, e.kind, _hex(e.ke_before), _hex(e.ke_after), _hex(e.rel_speed_sq)) for e in report.events
    )
    halted = None if report.halted is None else (report.halted.reason, _hex(report.halted.time))
    final = (report.final.positions.tobytes(), report.final.velocities.tobytes())
    return events, final, report.n_elastic, report.n_inelastic, _hex(report.min_separation), halted


def _assert_rows_match(positions, velocities, T, params, tol) -> Counter:
    """Compare every row with simulate alone; count how each row ended."""
    stack = simulate_stack(positions, velocities, T, params, tol=tol)
    assert len(stack.errors) == len(positions)
    endings = Counter()
    for row, (x, v) in enumerate(zip(positions, velocities)):
        try:
            report = simulate(Configuration(x, v), T, params, tol=tol)
        except IHSEError as exc:
            error = stack.errors[row]
            assert (type(error), str(error)) == (type(exc), str(exc)), row
            assert stack.report(row) is None
            assert np.isnan(stack.positions[row]).all() and np.isnan(stack.velocities[row]).all()
            endings[type(exc).__name__] += 1
            continue
        assert stack.errors[row] is None, (row, stack.errors[row])
        assert _fingerprint(stack.report(row)) == _fingerprint(report), row
        assert stack.positions[row].tobytes() == report.final.positions.tobytes()
        assert stack.velocities[row].tobytes() == report.final.velocities.tobytes()
        endings[report.halted.reason if report.halted is not None else f"{len(report.events)} events"] += 1
    return endings


def _pad(rows, n, d):
    """Embed N'-particle planar states in (n, d): zero extra coordinates, and
    extra particles at rest far apart where nothing reaches them."""
    rows = np.asarray(rows, dtype=float)
    out = np.zeros(rows.shape[:1] + (n, d))
    out[:, : rows.shape[1], : rows.shape[2]] = rows
    for extra in range(rows.shape[1], n):
        out[:, extra, 0] = 1000.0 * (extra + 1)
    return out


def _pathology_rows(eps0):
    """(positions, velocities) of planar states that halt on grazing,
    simultaneity and (for finite eps0) the critical band, one that starts
    overlapped, one that starts at contact, and one whose contact scatter
    rejects as grazing when grazing_tol is 0.1."""
    s = math.sqrt(eps0) if math.isfinite(eps0) else 1.0
    rows = [
        ([[0, 0], [3, 1], [-40, 60], [40, 60]], [[1, 0], [0, 0], [0, 0], [0, 0]]),
        ([[0, 0], [3, 0], [0, 10], [3, 10]], [[1, 0], [0, 0], [1, 0], [0, 0]]),
        ([[0, 0], [3, 0], [-40, 60], [40, 60]], [[s, 0], [-s, 0], [0, 0], [0, 0]]),
        ([[0, 0], [0.5, 0], [-40, 60], [40, 60]], [[1, 0], [0, 0], [0, 0], [0, 0]]),
        ([[0, 0], [1, 0], [-40, 60], [40, 60]], [[0, 0], [0, 0], [0, 0], [0, 0]]),
        ([[-3, 0.995], [0, 0], [-40, 60], [40, 60]], [[10, 0], [0, 0], [0, 0], [0, 0]]),
    ]
    return [x for x, _ in rows], [v for _, v in rows]


# Particle 1 passes under particle 2 at distance 1.25 at t = 0.15, between
# any two of the sampled times 0.1, 0.2, ... of a run to T = 10.
NEAR_MISS = [[0, 0], [0.15, 1.25]], [[1, 0], [0, 0]]
# The same with two particles at rest far from it.
NEAR_MISS_ROW = NEAR_MISS[0] + [[-40, 60], [40, 60]], NEAR_MISS[1] + [[0, 0], [0, 0]]


def _stack(n, d, seed, h, draws, eps0):
    """C11 stencil at step h, collision-rich draws, the pathology rows and a
    near miss, all embedded in (n, d)."""
    centre_x, centre_v = _pad([CHAIN_X], n, d)[0], _pad([CHAIN_V], n, d)[0]
    centre = np.concatenate([centre_x.ravel(), centre_v.ravel()])
    offsets = h * np.eye(centre.size)
    points = np.vstack([centre, centre + offsets, centre - offsets])
    m = n * d
    xs, vs = [points[:, :m].reshape(-1, n, d)], [points[:, m:].reshape(-1, n, d)]
    for index in range(draws):
        cfg = collision_rich_configuration(seed, index, n, d, 1.0 + 0.9 * n, 0.5 + index % 3, 1.2 * (index % 2))
        xs.append(cfg.positions[None])
        vs.append(cfg.velocities[None])
    x, v = _pathology_rows(eps0)
    x.append(NEAR_MISS_ROW[0])
    v.append(NEAR_MISS_ROW[1])
    xs.append(_pad(x, n, d))
    vs.append(_pad(v, n, d))
    return np.concatenate(xs), np.concatenate(vs)


TOLERANCE_SETS = (
    Tolerances(),
    Tolerances(grazing_tol=0.1, simultaneity_tol=0.1, crit_tol=0.1),
    Tolerances(grazing_tol=1e-3, simultaneity_tol=0.05, crit_tol=1e-3, max_events=2),
    Tolerances(grazing_tol=0.1, simultaneity_tol=1e-10, crit_tol=0.1, max_events=1),
    Tolerances(max_events=3),
)


def test_random_stacks_match_one_state_at_a_time():
    endings = Counter()

    @given(
        n=st.sampled_from((4, 5)),
        d=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**31 - 1),
        h=st.sampled_from((1e-6, 1e-4, 1e-2, 0.1, 0.4)),
        draws=st.integers(0, 8),
        eps0=st.sampled_from((0.05, 0.5, 1.0, 4.0, math.inf)),
        tol=st.sampled_from(TOLERANCE_SETS),
        T=st.sampled_from((0.5, 1.5, 4.0, 10.0)),
    )
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def check(n, d, seed, h, draws, eps0, tol, T):
        positions, velocities = _stack(n, d, seed, h, draws, eps0)
        endings.update(_assert_rows_match(positions, velocities, T, ModelParams(eps0), tol))

    check()
    assert HALTS <= set(endings), endings
    assert {"UsageError", "GrazingContactError"} <= set(endings), endings
    assert len({key for key in endings if key.endswith(" events")}) >= 4, endings


# One row per ending over [0, 3.5] at eps0 = 1: the pathology rows, the
# C11 chain (halted by max_events at its second event), a lone collision
# and the near miss.
ENDING_PARAMS, ENDING_TOL = ModelParams(1.0), Tolerances(grazing_tol=0.1, max_events=2)


def _ending_rows():
    x, v = _pathology_rows(ENDING_PARAMS.epsilon0)
    x += [CHAIN_X + [[-40, 60]], [[0, 0], [3, 0], [-40, 60], [40, 60]], NEAR_MISS_ROW[0]]
    v += [CHAIN_V + [[0, 0]], [[1, 0], [0, 0], [0, 0], [0, 0]], NEAR_MISS_ROW[1]]
    return np.array(x, dtype=float), np.array(v, dtype=float)


def test_one_row_per_ending():
    positions, velocities = _ending_rows()
    stack = simulate_stack(positions, velocities, 3.5, ENDING_PARAMS, tol=ENDING_TOL)
    reports = [stack.report(row) for row in range(len(stack.errors))]
    halts = [None if r is None or r.halted is None else r.halted.reason for r in reports]
    assert halts[:3] == [PATHOLOGY_GRAZING, PATHOLOGY_SIMULTANEOUS, PATHOLOGY_CRITICAL_ENERGY]
    assert halts[3:] == [None] * 3 + [PATHOLOGY_MAX_EVENTS] + [None] * 2
    errors = [type(e) for e in stack.errors]
    assert errors == [type(None)] * 3 + [UsageError, UsageError, GrazingContactError] + [type(None)] * 3
    assert len(stack.report(-2).events) == 1
    assert stack.report(-1).events == () and stack.report(-1).min_separation == pytest.approx(1.25, abs=1e-12)
    # Every row's scans divide by zero and root negative discriminants (two
    # particles at rest, others passing by), rows raise before the loop (a
    # start that is not interior) and in it (a failed scatter check): each
    # run holds the scans' error state itself and hands the caller's back.
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error", RuntimeWarning)
        before = np.geterr()
        _assert_rows_match(positions, velocities, 3.5, ENDING_PARAMS, ENDING_TOL)
        assert np.geterr() == before


@pytest.mark.parametrize(
    "x, v, events",
    [
        ([[0.0, 0.0]], [[1.0, -0.5]], 0),  # a lone particle: no pair to scan
        ([[0.0, 0.0], [3.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], 1),  # a head-on pair: one pair
    ],
)
@pytest.mark.parametrize("eps0", [0.1875, math.inf])
def test_fewer_than_two_pairs_match_the_stack(x, v, events, eps0):
    # simulate's scan reduces one state on numbers, the stack's pads to
    # two pairs: both must give the same report
    endings = _assert_rows_match(np.array([x]), np.array([v]), 3.0, ModelParams(eps0), Tolerances())
    assert endings == {f"{events} events": 1}


def test_one_scan_per_event_with_a_graze_past_the_contact():
    # pair (1,2) collides at t=1; pair (3,4) crosses shallowly (discriminant
    # 16 - (16 + 0.99^2 - 1), about 0.02 <= grazing_tol) with its entry at
    # about t=3.86, past that contact: simulate scans once per event, as
    # simulate_stack does, and takes the collision without a second scan
    x = [[0.0, 0.0], [3.0, 0.0], [0.0, 10.0], [4.0, 10.99]]
    v = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    params, tol = ModelParams(0.5), Tolerances(grazing_tol=0.05)
    scans = []
    scan = simulator.first_contacts

    def counting(*args, **kwargs):
        scans.append(scan(*args, **kwargs))
        return scans[-1]

    with mock.patch.object(simulator, "first_contacts", counting):
        report = simulate(Configuration(x, v), 6.0, params, tol=tol)
    time, _, _, graze, _ = scans[0]
    assert time == 1.0 and graze > 1.0
    assert [(e.pair, e.time) for e in report.events] == [(PairIndex(1, 2), 1.0)]
    assert report.halted.reason == PATHOLOGY_GRAZING and report.halted.time == pytest.approx(3.86, abs=0.01)
    assert len(scans) <= len(report.events) + 1
    stack = simulate_stack(np.array([x]), np.array([v]), 6.0, params, tol=tol)
    assert _fingerprint(stack.report(0)) == _fingerprint(report)


def test_near_miss_between_sampled_times_is_seen():
    # The exact closest approach, 1.25, from simulate, a one-row stack and
    # a row of a larger stack; probes at T/100 steps would read 1.2509996.
    params = ModelParams(0.5)
    report = simulate(Configuration(*NEAR_MISS), 10.0, params)
    assert report.events == () and report.min_separation == pytest.approx(1.25, abs=1e-12)
    one = simulate_stack(np.array([NEAR_MISS[0]], dtype=float), np.array([NEAR_MISS[1]], dtype=float), 10.0, params)
    assert _fingerprint(one.report(0)) == _fingerprint(report)
    positions, velocities = _stack(4, 2, 5, 1e-4, 4, 0.5)
    stack = simulate_stack(positions, velocities, 10.0, params)
    assert stack.report(-1).min_separation == pytest.approx(1.25, abs=1e-12)
    _assert_rows_match(positions, velocities, 10.0, params, Tolerances())


def test_bad_horizon_raises_for_the_stack():
    positions, velocities = np.array([CHAIN_X], dtype=float), np.array([CHAIN_V], dtype=float)
    with pytest.raises(UsageError, match="T must be positive"):
        simulate_stack(positions, velocities, 0.0, ModelParams(0.5))


@pytest.mark.parametrize("T", (math.nan, math.inf))
def test_non_finite_horizon_raises_for_the_stack(T):
    positions, velocities = np.array([CHAIN_X], dtype=float), np.array([CHAIN_V], dtype=float)
    with pytest.raises(UsageError, match="T must be positive and finite"):
        simulate_stack(positions, velocities, T, ModelParams(0.5))


def _dense_cluster(seed):
    """N = 32 disks on the sites of a 6 x 6 lattice (spacing 1.6) nearest
    its centre, jittered by at most 0.2 per coordinate, with unit Gaussian
    velocities plus an inward drift of 0.5."""
    gen = np.random.default_rng(seed)
    sites = np.array([(a, b) for a in range(6) for b in range(6)], dtype=float)
    order = np.lexsort((sites[:, 1], sites[:, 0], np.square(sites - 2.5).sum(axis=1)))
    x = 1.6 * sites[order[:32]] + gen.uniform(-0.2, 0.2, (32, 2))
    inward = x.mean(axis=0) - x
    v = gen.standard_normal((32, 2)) + 0.5 * inward / np.linalg.norm(inward, axis=1, keepdims=True)
    return x, v


# The one-state scan and collide; no simulate event goes through them.
LEGACY_STEPS = [(collision, "first_collision"), (scattering, "scatter")]


def test_simulate_builds_no_state_per_event(monkeypatch):
    # One first_contacts scan of the carried arrays per event, and no
    # Configuration, first_collision or scatter per event: the run builds at
    # most two states (its final one among them).  The overlap certificate
    # takes no min_separation and makes one squared_separations call, for
    # the start (each segment's minimum comes from its scan); the ledger
    # reads the kinetic energy once.  No PairIndex is built once the N = 32
    # pair table exists: each event's pair is the table's record.
    x, v = _dense_cluster(12)
    params = ModelParams(0.5)
    calls = Counter()

    def count(owner, name, key=None):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in [(simulator, "first_contacts"), (simulator, "kinetic_energy")]:
        count(owner, name)
    for name in ("__init__", "min_separation"):
        count(Configuration, name)
    pairs = pair_index_table(32)
    count(PairIndex, "__init__", "PairIndex")
    cfg = Configuration(x, v)
    calls.clear()
    probes = count_calls(monkeypatch, simulator, "squared_separations")
    legacy = {name: count_calls(monkeypatch, module, name) for module, name in LEGACY_STEPS}
    report = simulate(cfg, 5.0, params)
    monkeypatch.undo()
    events = len(report.events)
    assert report.halted is None and events >= 30
    assert calls["first_contacts"] == events + 1
    assert calls["__init__"] <= 2
    assert calls["min_separation"] == 0
    assert calls["kinetic_energy"] == 1
    assert len(probes) == 1
    assert {name: len(made) for name, made in legacy.items()} == {"first_collision": 0, "scatter": 0}
    # No pair record for the simulate run, a stack row's report or the
    # stack's labels.
    assert calls["PairIndex"] == 0
    assert all(event.pair is pairs[pair_position(32, event.pair)] for event in report.events)
    stack = simulate_stack(x[None], v[None], 5.0, params)
    count(PairIndex, "__init__", "PairIndex")
    calls.clear()
    labels = stack.labels()
    assert stack.report(0).events == report.events
    monkeypatch.undo()
    assert labels == [report.event_signature]
    assert calls["PairIndex"] == 0


@pytest.mark.parametrize("eps0", (0.5, math.inf))
@pytest.mark.parametrize("seed", range(12, 20))
def test_dense_cluster_row_is_simulate(seed, eps0):
    # The dense regime, where every event scans about 500 pairs: a one-row
    # simulate_stack gives simulate's report, floats compared by float.hex.
    x, v = _dense_cluster(seed)
    params = ModelParams(eps0)
    report = simulate(Configuration(x, v), 5.0, params)
    assert len(report.events) >= 20
    stack = simulate_stack(x[None], v[None], 5.0, params)
    assert _fingerprint(stack.report(0)) == _fingerprint(report)


def test_flow_map_rows_are_simulate_runs():
    # The volume FD map: one stacked call gives each row simulate's final
    # vector and event signature, or the error simulate raises.  The C11
    # stencil's rows run to the horizon; the ending rows give every halt its
    # ("halted", reason) label.
    centre = np.concatenate([np.ravel(CHAIN_X), np.ravel(CHAIN_V)])
    stencil = np.vstack([centre, centre + 1e-4 * np.eye(12), centre - 1e-4 * np.eye(12)])
    positions, velocities = _ending_rows()
    endings = np.concatenate([positions.reshape(len(positions), -1), velocities.reshape(len(velocities), -1)], axis=1)
    runs = [
        (stencil, 3, 1.5, ModelParams(0.5), Tolerances(), set()),
        (endings, 4, 3.5, ENDING_PARAMS, ENDING_TOL, HALTS),
    ]
    for points, n, T, params, tol, expected_halts in runs:
        _, values, labels = _stack_map(lambda x, v: simulate_stack(x, v, T, params, tol=tol), points, n, 2)
        halts = set()
        for z, value, label in zip(points, values, labels):
            try:
                report = simulate(Configuration.from_vector(z, n, 2), T, params, tol=tol)
            except IHSEError as exc:
                assert (type(label), str(label)) == (type(exc), str(exc))
                assert np.isnan(value).all()
                continue
            assert value.tobytes() == report.final.to_vector().tobytes()
            assert label == report.event_signature
            if report.halted is not None:
                assert label[-1] == ("halted", report.halted.reason)
                halts.add(report.halted.reason)
        assert halts == expected_halts


def test_row_out_of_reach_gets_the_error_of_simulate():
    # The head-on pair at x = 0, 3 with velocities +-1e200, and a pair 1e200
    # apart at rest, would overflow the contact roots over [0, 1]; the
    # ordinary row beside them runs as alone, and no row warns.
    positions = np.array([[[0.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [3.0, 0.0]]])
    velocities = np.array([[[1e200, 0.0], [-1e200, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [-2.0, 0.0]]])
    params = ModelParams(0.5)
    with pytest.raises(UsageError) as raised:
        simulate(Configuration(positions[0], velocities[0]), 1.0, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = simulate_stack(positions, velocities, 1.0, params)
    for row in (0, 1):
        assert stack.report(row) is None
        assert (type(stack.errors[row]), str(stack.errors[row])) == (UsageError, str(raised.value))
        assert np.isnan(stack.positions[row]).all() and np.isnan(stack.velocities[row]).all()
    assert stack.errors[2] is None and len(stack.report(2).events) == 1
    _assert_rows_match(positions, velocities, 1.0, params, Tolerances())
