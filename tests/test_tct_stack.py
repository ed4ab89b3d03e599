"""The stacked one-collision flow against one state at a time: every row of
``tct_stack`` must carry the classification, the state at tau and the
error that the same state gives alone, both through the one-state views
``classify_tct_domain`` and ``tct_flow`` and through the reference
composition in ``reference_kernel``; and the flow determinant's prefactor
must equal the reference's bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from ihse import (
    CollisionKind,
    Configuration,
    ExcludedConfigurationError,
    ExclusionReason,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    analytic_flow_jacobian_det,
    classify_tct_domain,
    tct_flow,
)
from ihse.core import dot
from ihse.jacobian_lab import random_tct_case
from ihse.scattering import GrazingContactError
from ihse.tct import tct_stack

FAR = [[-40.0, 40.0], [40.0, 40.0]]  # two resting particles no one reaches
REST = [[0.0, 0.0], [0.0, 0.0]]

# One N=4, d=2 state per branch at tau=3.5, eps0=1 (emitting above
# |w|^2 = 4) and grazing_tol=0.1, the tolerance at which a fast pair crossing
# the contact sphere shallowly (0.1 < discriminant < 0.01 |w|^2) reaches a
# contact that scatter rejects as grazing.
BRANCHES = {
    "free": ([[0, 0], [3, 0]] + FAR, [[0.5, 0], [0, 0]] + REST, "free"),
    "elastic": ([[0, 0], [3, 0]] + FAR, [[1, 0], [0, 0]] + REST, "elastic"),
    "emitting": ([[0, 0], [5, 0]] + FAR, [[3, 0], [0, 0]] + REST, "inelastic"),
    "grazing": ([[0, 0], [3, 1]] + FAR, [[1, 0], [0, 0]] + REST, ExclusionReason.GRAZING),
    "simultaneous": ([[0, 0], [3, 0], [0, 10], [3, 10]], [[1, 0], [0, 0], [1, 0], [0, 0]], ExclusionReason.SIMULTANEOUS),
    "critical": ([[0, 0], [3, 0]] + FAR, [[1, 0], [-1, 0]] + REST, ExclusionReason.CRITICAL_ENERGY),
    "recollision": ([[3, 0], [0, 0], [6, 0], [40, 40]], [[0, 0], [3, 0], [-1, 0], [0, 0]], ExclusionReason.RECOLLISION),
    "boundary": ([[0, 0], [1, 0]] + FAR, REST + REST, ExclusionReason.BOUNDARY_START),
    "scatter_raises": ([[-3, 0.995], [0, 0]] + FAR, [[10, 0], [0, 0]] + REST, GrazingContactError),
}
BRANCH_TAU, BRANCH_PARAMS, BRANCH_TOL = 3.5, ModelParams(1.0), Tolerances(grazing_tol=0.1)


def _outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except IHSEError as exc:
        return None, (type(exc), str(exc))


def _assert_rows_match(positions, velocities, tau, params, tol):
    stack = tct_stack(positions, velocities, tau, params.epsilon0, tol=tol)
    assert stack.label.shape == stack.t_c.shape == (len(positions),)
    for row, cfg in enumerate(Configuration(x, v) for x, v in zip(positions, velocities)):
        error, stacked = stack.error(row), _outcome(lambda: stack.one(row))
        assert stacked[1] == (None if error is None else (type(error), str(error)))
        assert _outcome(lambda: classify_tct_domain(cfg, tau, params, tol=tol)) == stacked
        reference, reference_error = _outcome(lambda: ref.tct_flow(cfg, tau, params, tol))
        assert reference_error == stacked[1]
        flow, flow_error = _outcome(lambda: tct_flow(cfg, tau, params, tol=tol))
        if error is not None:
            assert flow_error == stacked[1]
            continue
        classification, final, record = reference
        assert classification == stack.one(row)
        if classification.is_excluded:
            assert flow_error == (ExcludedConfigurationError, str(ExcludedConfigurationError(classification.reason)))
            assert np.isnan(stack.positions[row]).all() and np.isnan(stack.velocities[row]).all()
            continue
        assert flow.classification == classification
        for result in (final, flow.final):
            assert stack.positions[row].tobytes() == result.positions.tobytes()
            assert stack.velocities[row].tobytes() == result.velocities.tobytes()
        if record is None:
            assert flow.outcome is None
            continue
        (pair, t_c, expected), outcome = record, flow.outcome
        assert (flow.classification.pair, flow.classification.t_c) == (pair, t_c)
        assert (outcome.kind, outcome.kappa, outcome.energy_loss) == (expected.kind, expected.kappa, expected.energy_loss)
        for name in ("omega", "v_i_post", "v_j_post"):
            assert getattr(outcome, name).tobytes() == getattr(expected, name).tobytes()
        if outcome.sigma is not None:
            assert outcome.sigma.tobytes() == expected.sigma.tobytes()


def test_one_state_per_branch():
    positions = np.array([x for x, _, _ in BRANCHES.values()], dtype=float)
    velocities = np.array([v for _, v, _ in BRANCHES.values()], dtype=float)
    stack = tct_stack(positions, velocities, BRANCH_TAU, BRANCH_PARAMS.epsilon0, tol=BRANCH_TOL)
    for row, (name, (_, _, expected)) in enumerate(BRANCHES.items()):
        error = stack.error(row)
        if expected is GrazingContactError:
            assert isinstance(error, GrazingContactError), name
            with pytest.raises(GrazingContactError):
                stack.one(row)
            continue
        assert error is None, name
        classification = stack.one(row)
        if isinstance(expected, ExclusionReason):
            assert classification.reason is expected, name
        elif expected == "free":
            assert classification.is_free, name
        else:
            assert classification.kind.value == expected, name
    _assert_rows_match(positions, velocities, BRANCH_TAU, BRANCH_PARAMS, BRANCH_TOL)


def test_bad_horizon_raises_for_the_stack():
    positions = np.array([BRANCHES["free"][0]], dtype=float)
    velocities = np.array([BRANCHES["free"][1]], dtype=float)
    with pytest.raises(IHSEError, match="tau must be positive"):
        tct_stack(positions, velocities, 0.0, BRANCH_PARAMS.epsilon0)


@pytest.mark.parametrize("tau", (math.nan, math.inf))
def test_non_finite_horizon_raises_for_the_stack(tau):
    positions = np.array([BRANCHES["free"][0]], dtype=float)
    velocities = np.array([BRANCHES["free"][1]], dtype=float)
    with pytest.raises(UsageError, match="tau must be positive and finite"):
        tct_stack(positions, velocities, tau, BRANCH_PARAMS.epsilon0)


def test_row_out_of_reach_gets_the_reach_error():
    # The head-on pair at x = 0, 3 with velocities +-1e200, and a pair 1e200
    # apart at rest, could overflow the contact roots over [0, 3]; the
    # elastic row beside them keeps the bits it gets alone, and no row warns.
    message = "a coordinate is too large: the contact roots would overflow over [0, tau]"
    positions = np.array([[[0.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]], BRANCHES["elastic"][0][:2]])
    velocities = np.array([[[1e200, 0.0], [-1e200, 0.0]], REST, BRANCHES["elastic"][1][:2]], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = tct_stack(positions, velocities, 3.0, BRANCH_PARAMS.epsilon0)
        alone = tct_stack(positions[2:], velocities[2:], 3.0, BRANCH_PARAMS.epsilon0)
        for row in (0, 1):
            assert (type(stack.error(row)), str(stack.error(row))) == (UsageError, message)
            with pytest.raises(UsageError, match=r"^a coordinate is too large"):
                stack.one(row)
            assert np.isnan(stack.positions[row]).all() and np.isnan(stack.velocities[row]).all()
            cfg = Configuration(positions[row], velocities[row])
            for one_state in (classify_tct_domain, tct_flow):
                assert _outcome(lambda: one_state(cfg, 3.0, BRANCH_PARAMS)) == (None, (UsageError, message))
    assert stack.one(2) == alone.one(0) and stack.one(2).kind is CollisionKind.ELASTIC
    for name in ("label", "t_c", "positions", "velocities", "omega"):
        assert getattr(stack, name)[2].tobytes() == getattr(alone, name)[0].tobytes(), name


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("kind", tuple(CollisionKind))
def test_prefactor_matches_the_reference(d, kind):
    # An emitting prefactor reads V' from the stacked flow; the reference
    # collides the pair again for it.  An elastic prefactor is the law's
    # exact -1, which the reference's gradient form meets within rounding.
    for index in range(10):
        cfg, params = random_tct_case(71 + d, index, 2 + index % 3, kind=kind, d=d)
        _, prefactor, _ = analytic_flow_jacobian_det(cfg, 1.0, params)
        reference = ref.flow_jacobian_prefactor(cfg, PairIndex(1, 2), params)
        if kind is CollisionKind.ELASTIC:
            assert prefactor == -1.0, index
            assert abs(reference + 1.0) <= 8 * math.ulp(1.0), index
        else:
            assert prefactor.hex() == reference.hex(), index


def _centre(gen, n, d):
    """A state whose first two particles are aimed at each other, the others
    scattered around them."""
    x = gen.uniform(-1.0, 1.0, (n, d)) * 2.2 * n
    v = gen.normal(size=(n, d)) * gen.choice([0.2, 1.0, 5.0])
    axis = gen.normal(size=d)
    x[0] = x[1] + gen.uniform(1.05, 3.0) * axis / np.linalg.norm(axis)
    v[0] = v[1] - (x[0] - x[1]) * gen.uniform(0.2, 3.0) + gen.normal(size=d) * gen.choice([0.0, 0.3, 1.0])
    return np.concatenate([x.ravel(), v.ravel()])


@given(
    n=st.integers(2, 5),
    d=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from((1e-6, 1e-2, 0.1, 0.5)),
    eps0=st.sampled_from((0.01, 0.3, 2.0, 20.0, np.inf)),
    grazing_tol=st.sampled_from((1e-12, 1e-3, 0.1, 0.5)),
    simultaneity_tol=st.sampled_from((1e-10, 1e-2, 0.3)),
    crit_tol=st.sampled_from((1e-10, 0.5, 3.0)),
    tau=st.sampled_from((0.3, 1.0, 3.0, 10.0)),
)
@settings(max_examples=150, deadline=None)
def test_random_stacks_match_one_state_at_a_time(n, d, seed, h, eps0, grazing_tol, simultaneity_tol, crit_tol, tau):
    # Each stack is a finite-difference stencil (center and center +/- h e_k)
    # around an aimed collision; with the coarser steps and tolerances its
    # rows straddle the free/contact, emitting/critical/elastic, grazing,
    # simultaneity, recollision and boundary-start boundaries.
    gen = np.random.default_rng(seed)
    centre = _centre(gen, n, d)
    points = np.vstack([centre, centre + h * np.eye(centre.size), centre - h * np.eye(centre.size)])
    m = n * d
    tol = Tolerances(grazing_tol=grazing_tol, simultaneity_tol=simultaneity_tol, crit_tol=crit_tol)
    positions, velocities = points[:, :m].reshape(-1, n, d), points[:, m:].reshape(-1, n, d)
    _assert_rows_match(positions, velocities, tau, ModelParams(eps0), tol)


def _hex(values) -> list:
    return [value.hex() for value in np.ravel(values).tolist()]


def _assert_rows_match_alone(positions, velocities, tau, eps0, tol):
    """Every row of one stack with the quanta eps0 (one per row) carries the
    bits of a one-row stack of its state at its own quantum."""
    stack = tct_stack(positions, velocities, tau, eps0, tol=tol)
    for row in range(len(positions)):
        alone = tct_stack(positions[row : row + 1], velocities[row : row + 1], tau, float(eps0[row]), tol=tol)
        assert stack.label[row] == alone.label[0], row
        for name in ("t_c", "positions", "velocities", "omega"):
            assert _hex(getattr(stack, name)[row]) == _hex(getattr(alone, name)[0]), (row, name)
    return stack


def test_rows_at_different_quanta_per_branch():
    # The emitting state of BRANCHES (|w|^2 = 9) at four quanta: it emits at
    # eps0 1 and 0.01, sits in the critical band at 9/4 and is elastic at inf.
    x, v, _ = BRANCHES["emitting"]
    positions, velocities = np.array([x] * 4, dtype=float), np.array([v] * 4, dtype=float)
    eps0 = np.array([1.0, np.inf, 2.25, 0.01])
    stack = _assert_rows_match_alone(positions, velocities, BRANCH_TAU, eps0, BRANCH_TOL)
    kinds = [stack.one(row).kind for row in (0, 1, 3)]
    assert kinds == [CollisionKind.INELASTIC, CollisionKind.ELASTIC, CollisionKind.INELASTIC]
    assert stack.one(2).reason is ExclusionReason.CRITICAL_ENERGY
    assert _hex(stack.velocities[0]) != _hex(stack.velocities[3])  # each row emits its own quantum


@given(
    n=st.integers(2, 4),
    d=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from((1e-6, 1e-2, 0.1)),
    quanta=st.lists(st.sampled_from((0.01, 0.3, 2.0, 20.0, np.inf, "critical")), min_size=1, max_size=6),
    crit_tol=st.sampled_from((1e-10, 0.5)),
    tau=st.sampled_from((1.0, 3.0)),
)
@settings(max_examples=100, deadline=None)
def test_rows_with_mixed_quanta_match_each_row_alone(n, d, seed, h, quanta, crit_tol, tau):
    # A stencil around an aimed collision, its rows' quanta cycling through
    # the drawn list: emitting (small), elastic (large, inf) and critical
    # (4 eps0 = |w|^2 of the aimed pair, inside the band at any crit_tol).
    gen = np.random.default_rng(seed)
    centre = _centre(gen, n, d)
    points = np.vstack([centre, centre + h * np.eye(centre.size), centre - h * np.eye(centre.size)])
    m = n * d
    positions, velocities = points[:, :m].reshape(-1, n, d), points[:, m:].reshape(-1, n, d)
    w = velocities[:, 1] - velocities[:, 0]
    critical = dot(w, w) / 4.0
    cycle = quanta * len(points)
    eps0 = np.array([critical[row] if cycle[row] == "critical" else cycle[row] for row in range(len(points))])
    _assert_rows_match_alone(positions, velocities, tau, eps0, Tolerances(crit_tol=crit_tol))
