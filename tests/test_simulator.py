import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import simulator

from ihse import (
    CollisionKind,
    Configuration,
    ExclusionReason,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    check_collision_bounds,
    classify_tct_domain,
    conserved_quantities,
    kinetic_energy,
    simulate,
    tct_flow,
)
from ihse.core import squared_separations
from ihse.simulator import (
    PATHOLOGY_CRITICAL_ENERGY,
    PATHOLOGY_GRAZING,
    PATHOLOGY_MAX_EVENTS,
    PATHOLOGY_SIMULTANEOUS,
    Pathology,
    collision_rich_configuration,
)

from conftest import assert_close
from oracles import low_energy_ensemble


class TestSingleEvent:
    def test_two_particle_inelastic(self, head_on, params_inelastic_example):
        report = simulate(head_on, 3.0, params_inelastic_example)
        assert report.n_inelastic == 1 and report.n_elastic == 0
        event = report.events[0]
        assert event.time == pytest.approx(2.0, abs=1e-12)
        assert event.pair == PairIndex(1, 2)
        assert event.ke_before - event.ke_after == pytest.approx(0.1875, abs=1e-14)
        assert_close(report.final.velocities, [[0.25, 0], [0.75, 0]], 1e-12, "final velocities")
        assert report.halted is None

    def test_receding_pair_free_flight(self):
        cfg = Configuration([[0, 0], [3, 0]], [[-1, 0], [1, 0]])
        report = simulate(cfg, 5.0, ModelParams(0.75))
        assert report.events == ()
        assert report.halted is None

    def test_elastic_sentinel_conserves_energy(self, head_on):
        report = simulate(head_on, 3.0, ModelParams(math.inf))
        assert report.n_inelastic == 0 and report.n_elastic == 1
        assert kinetic_energy(report.final) == pytest.approx(kinetic_energy(head_on), abs=1e-12)


class TestPathologies:
    def test_simultaneous(self):
        cfg = Configuration(
            [[0, 0], [3, 0], [0, 10], [3, 10]],
            [[1, 0], [0, 0], [1, 0], [0, 0]],
        )
        report = simulate(cfg, 5.0, ModelParams(0.75))
        assert report.halted is not None and report.halted.reason == PATHOLOGY_SIMULTANEOUS
        assert report.halted.time == pytest.approx(2.0, abs=1e-12)

    def test_grazing(self):
        cfg = Configuration([[0, 0], [3, 1]], [[1, 0], [0, 0]])
        report = simulate(cfg, 5.0, ModelParams(0.75))
        assert report.halted is not None and report.halted.reason == PATHOLOGY_GRAZING
        assert report.halted.time == pytest.approx(3.0, abs=1e-12)

    def test_critical_energy(self, symmetric_head_on):
        report = simulate(symmetric_head_on, 2.0, ModelParams(1.0))
        assert report.halted is not None and report.halted.reason == PATHOLOGY_CRITICAL_ENERGY

    def test_graze_after_the_next_contact(self):
        # pair (1,2) collides at t=1; pair (3,4) grazes at t=4.  The run
        # takes the collision and halts at the graze, while the
        # one-collision classification excludes any graze in its horizon.
        cfg = Configuration([[0, 0], [3, 0], [0, 10], [4, 11]], [[1, 0], [-1, 0], [1, 0], [0, 0]])
        params = ModelParams(0.5)
        report = simulate(cfg, 6.0, params)
        assert [(e.pair, e.time) for e in report.events] == [(PairIndex(1, 2), 1.0)]
        assert report.halted == Pathology(PATHOLOGY_GRAZING, 4.0)
        assert classify_tct_domain(cfg, 6.0, params).reason is ExclusionReason.GRAZING

    def test_shallow_crossing_halts_at_its_entry(self):
        # pair (1,2) crosses the contact sphere shallowly (discriminant
        # 1 - 0.96^2 <= grazing_tol) from t = 3 - 0.28 to t = 3 + 0.28, and
        # pair (3,4) collides at t = 2.9, between the entry and the closest
        # approach at t = 3: the run halts at the entry, before any overlap
        cfg = Configuration([[0, 0], [3, 0.96], [0, 10], [3.9, 10]], [[1, 0], [0, 0], [1, 0], [0, 0]])
        report = simulate(cfg, 5.0, ModelParams(0.5), tol=Tolerances(grazing_tol=0.1))
        assert report.events == ()
        assert report.halted == Pathology(PATHOLOGY_GRAZING, 3.0 - math.sqrt(1.0 - 0.96**2))
        assert report.halted.time == pytest.approx(2.72, abs=1e-12)

    def test_event_overflow(self):
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        report = simulate(chain, 1.5, ModelParams(0.5), tol=Tolerances(max_events=1))
        assert report.halted is not None and report.halted.reason == PATHOLOGY_MAX_EVENTS
        assert len(report.events) == 1

    def test_bad_inputs(self, head_on):
        with pytest.raises(UsageError):
            simulate(head_on, 0.0, ModelParams(1.0))
        overlapping = Configuration([[0, 0], [0.5, 0]], [[0, 0], [0, 0]])
        with pytest.raises(UsageError):
            simulate(overlapping, 1.0, ModelParams(1.0))


    @pytest.mark.parametrize("T", (math.nan, math.inf))
    def test_non_finite_horizon(self, head_on, T):
        with pytest.raises(UsageError, match="T must be positive and finite"):
            simulate(head_on, T, ModelParams(1.0))


# A head-on pair at +-1e200: the contact quadratic's a*c overflows, its
# discriminant is NaN, and the pair would pass through itself unseen.
OVERFLOWING = Configuration([[0.0, 0.0], [3.0, 0.0]], [[1e200, 0.0], [-1e200, 0.0]])


@pytest.mark.parametrize("entry", (simulate, classify_tct_domain, tct_flow))
def test_overflowing_contact_quadratic_is_a_usage_error(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="too large: the contact roots would overflow"):
            entry(OVERFLOWING, 1.0, ModelParams(0.1875))


class TestChain:
    def test_double_inelastic_chain(self):
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        params = ModelParams(0.5)
        report = simulate(chain, 1.5, params)
        assert report.halted is None
        kinds = [e.kind for e in report.events]
        assert kinds == [CollisionKind.INELASTIC, CollisionKind.INELASTIC]
        pairs = [e.pair for e in report.events]
        assert pairs == [PairIndex(1, 2), PairIndex(1, 3)]
        assert report.events[0].rel_speed_sq == pytest.approx(9.0, abs=1e-12)
        ke0 = kinetic_energy(chain)
        assert kinetic_energy(report.final) == pytest.approx(ke0 - 2 * 0.5, abs=1e-12)


class TestInvariantsOnEnsembles:
    @pytest.mark.parametrize("index", range(25))
    def test_ledger_and_separation(self, index):
        n = 3 + index % 3
        cfg = collision_rich_configuration(99, index, n, 2, 4.0, 1.5, 1.2)
        params = ModelParams(0.35)
        report = simulate(cfg, 10.0, params)
        mom0, ke0 = conserved_quantities(cfg)
        mom1, ke1 = conserved_quantities(report.final)
        assert_close(mom1, mom0, 1e-9, "momentum")
        assert ke1 == pytest.approx(ke0 - report.n_inelastic * params.epsilon0, abs=1e-9)
        assert report.min_separation >= 1.0 - 1e-9
        # energy is non-increasing event by event, dropping exactly eps0
        ke = ke0
        for event in report.events:
            assert event.ke_before == pytest.approx(ke, abs=1e-10)
            drop = event.ke_before - event.ke_after
            if event.kind is CollisionKind.INELASTIC:
                assert drop == pytest.approx(params.epsilon0, abs=1e-10)
            else:
                assert abs(drop) <= 1e-10
            ke = event.ke_after
        times = [event.time for event in report.events]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("n, radius", [(4, 5.0), (8, 7.0)])
    @pytest.mark.parametrize("T", [2.0, 5.0])
    def test_elastic_runs_reverse(self, n, radius, T):
        # Elastic dynamics is time reversible: run (x_T, -v_T) for T and the
        # state comes back as (x_0, -v_0) through the same collisions in
        # reverse order.  Every draw 0..29 of the range is checked; the worst
        # error seen over all four ranges is 3.2e-13.
        params = ModelParams(math.inf)
        events = 0
        for index in range(30):
            cfg = collision_rich_configuration(3, index, n, 2, radius, 2.0, 1.2)
            forward = simulate(cfg, T, params)
            backward = simulate(Configuration(forward.final.positions, -forward.final.velocities), T, params)
            assert forward.halted is None and backward.halted is None
            assert [e.pair for e in backward.events] == [e.pair for e in reversed(forward.events)]
            assert_close(backward.final.positions, cfg.positions, 1e-10, f"positions of draw {index}")
            assert_close(backward.final.velocities, -cfg.velocities, 1e-10, f"velocities of draw {index}")
            events += len(forward.events)
        assert events >= 30

    def test_determinism(self):
        cfg = collision_rich_configuration(7, 3, 4, 2, 4.0, 1.5, 1.2)
        params = ModelParams(0.35)
        a = simulate(cfg, 10.0, params)
        b = simulate(cfg, 10.0, params)
        assert a.event_signature == b.event_signature
        assert np.array_equal(a.final.positions, b.final.positions)
        assert np.array_equal(a.final.velocities, b.final.velocities)
        assert [e.time for e in a.events] == [e.time for e in b.events]


class TestBounds:
    def test_margin_example(self, symmetric_head_on, params_inelastic_example):
        # KE_initial = 1, eps0 = 0.1875: limit floor(1/0.1875) = 5
        report = simulate(symmetric_head_on, 2.0, params_inelastic_example)
        assert report.n_inelastic == 1
        check = check_collision_bounds(report, params_inelastic_example, symmetric_head_on)
        assert check.inelastic_limit == 5
        assert check.inelastic_margin == 4
        assert check.inelastic_ok and check.events_ok

    def test_elastic_only_trivial(self, head_on):
        params = ModelParams(math.inf)
        report = simulate(head_on, 3.0, params)
        check = check_collision_bounds(report, params, head_on)
        assert check.inelastic_limit == 0 and check.inelastic_ok

    def test_low_energy_at_most_one_inelastic(self):
        params = ModelParams(0.2)
        violations = 0
        for index in range(60):
            cfg = low_energy_ensemble(17, index, 3, 2, params)
            assert kinetic_energy(cfg) < 2 * params.epsilon0
            report = simulate(cfg, 50.0, params)
            if report.n_inelastic > 1:
                violations += 1
        assert violations == 0


# collision_rich_configuration(3, index, 4, 2, 5.0, 2.0, 1.2) runs over T=10
# at eps0=0.05 in which a shallow crossing, timed at its closest approach,
# let another contact go first and the pair overlap (grazing_tol 0.1: 97,
# 409, 689, 1149; 0.03: 97, 1459; 0.01: 1459).
SHALLOW_CROSSINGS = (97, 409, 689, 1149, 1459)


def _scanned_separations(index, grazing_tol):
    """The run's report and the smallest pair separation of every state it
    scanned."""
    tol = Tolerances(grazing_tol=grazing_tol)
    cfg = collision_rich_configuration(3, index, 4, 2, 5.0, 2.0, 1.2)
    separations = []
    scan = simulator.first_contacts

    def recording(positions, velocities, *args, **kwargs):
        separations.append(math.sqrt(squared_separations(positions).min(initial=math.inf)))
        return scan(positions, velocities, *args, **kwargs)

    with mock.patch.object(simulator, "first_contacts", recording):
        report = simulate(cfg, 10.0, ModelParams(0.05), tol=tol)
    return report, min(separations), tol


@pytest.mark.parametrize("index", SHALLOW_CROSSINGS)
@pytest.mark.parametrize("grazing_tol", (0.1, 0.03, 0.01))
def test_shallow_crossings_never_overlap(index, grazing_tol):
    report, closest, tol = _scanned_separations(index, grazing_tol)
    assert closest >= 1.0 - tol.contact_tol
    assert report.min_separation >= 1.0 - tol.contact_tol


@given(index=st.integers(0, 1499), exponent=st.floats(-12.0, -1.0))
@settings(max_examples=60, deadline=None)
def test_no_scan_starts_from_an_overlap(index, exponent):
    # simulate returns (no engine error escapes) and never scans a state
    # with a pair closer than one diameter, at any grazing_tol up to 0.1
    _, closest, tol = _scanned_separations(index, 10.0**exponent)
    assert closest >= 1.0 - tol.contact_tol
