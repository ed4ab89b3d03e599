import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ihse import (
    Configuration,
    DomainKind,
    ExclusionReason,
    ModelParams,
    PairIndex,
    TCTDomainClass,
    Tolerances,
    UsageError,
    all_pairs,
    conserved_quantities,
    free_transport,
    validate_configuration,
)
from ihse.core import dot, pair_differences, pair_indices, pair_position, squared_norms, squared_separations
from ihse.scattering import CollisionKind
from ihse.simulator import SimEvent, simulate_stack
from ihse.tct import tct_stack
from ihse.jsonio import dumps, format_float

from conftest import assert_close


def cfg2(x1, x2, v1=(0, 0), v2=(0, 0)):
    return Configuration([x1, x2], [v1, v2])


class TestValidation:
    def test_interior(self):
        status = validate_configuration(cfg2((0, 0), (3, 0)), 1e-9)
        assert status.kind is DomainKind.INTERIOR

    def test_boundary_exact_contact(self):
        status = validate_configuration(cfg2((0, 0), (1, 0)), 1e-9)
        assert status.kind is DomainKind.BOUNDARY
        assert status.pairs == (PairIndex(1, 2),)

    def test_invalid_overlap(self):
        status = validate_configuration(cfg2((0, 0), (0.5, 0)), 1e-9)
        assert status.kind is DomainKind.INVALID
        assert status.pairs == (PairIndex(1, 2),)

    def test_monotone_in_tol(self):
        # enlarging tol can only move pairs from interior into boundary
        cfg = cfg2((0, 0), (1.0 + 5e-7, 0))
        assert validate_configuration(cfg, 1e-9).kind is DomainKind.INTERIOR
        assert validate_configuration(cfg, 1e-6).kind is DomainKind.BOUNDARY

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.3])
    def test_no_separation_just_below_contact_is_interior(self, tol):
        # 1 - tol rounds down for 1e-6, 1e-3 and 0.3, so the pair at
        # fl(1 - tol) overlaps by more than tol: each double around it is
        # invalid or boundary by its exact gap, in every interior check
        below = 1.0 - tol
        for separation in (math.nextafter(below, 0.0), below, math.nextafter(below, 2.0)):
            cfg = cfg2((0, 0), (separation, 0))
            gap = Fraction(separation) - 1
            assert validate_configuration(cfg, tol).kind is (DomainKind.INVALID if gap < -tol else DomainKind.BOUNDARY)
            x, v, tols = cfg.positions[None], cfg.velocities[None], Tolerances(contact_tol=tol)
            assert tct_stack(x, v, 1.0, 0.5, tol=tols).one() == TCTDomainClass.excluded(ExclusionReason.BOUNDARY_START)
            error = simulate_stack(x, v, 1.0, ModelParams(0.5), tol=tols).errors[0]
            assert isinstance(error, UsageError) and str(error) == "initial configuration must be interior (all gaps > 1)"

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(UsageError):
            Configuration([[0, 0]], [[0, 0], [1, 1]])
        with pytest.raises(UsageError):
            Configuration(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(UsageError, match=r"^positions/velocities must be \(N, d\) arrays of numbers$"):
            Configuration([[0, 0], [1]], [[0, 0], [1, 1]])

    def test_rejects_nonfinite(self):
        with pytest.raises(UsageError):
            Configuration([[0, math.nan]], [[0, 0]])


class TestFreeTransport:
    def test_straight_line(self):
        moved = free_transport(Configuration([[0, 0]], [[1, 0]]), 2.0)
        assert_close(moved.positions[0], [2, 0], 0, "position")

    def test_identity_at_zero(self, head_on):
        assert free_transport(head_on, 0.0) == head_on

    def test_velocities_unchanged(self, head_on):
        assert np.array_equal(free_transport(head_on, 3.7).velocities, head_on.velocities)

    @given(
        t=st.floats(-50, 50),
        x=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        v=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, t, x, v):
        cfg = Configuration(np.reshape(x, (2, 2)), np.reshape(v, (2, 2)))
        back = free_transport(free_transport(cfg, t), -t)
        scale = max(1.0, float(np.abs(cfg.positions).max()))
        assert np.abs(back.positions - cfg.positions).max() <= 1e-12 * scale * max(1.0, abs(t))

    @given(t=st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_conserved_quantities_invariant(self, t):
        cfg = Configuration([[0, 0], [3, 1]], [[1, -2], [0.5, 0.25]])
        before = conserved_quantities(cfg)
        after = conserved_quantities(free_transport(cfg, t))
        assert np.array_equal(before[0], after[0])
        assert before[1] == after[1]


class TestConservedQuantities:
    def test_symmetric_pair(self):
        cfg = Configuration([[0, 0], [3, 0]], [[1, 0], [-1, 0]])
        momentum, ke = conserved_quantities(cfg)
        assert_close(momentum, [0, 0], 0)
        assert ke == 1.0

    def test_single_particle(self):
        momentum, ke = conserved_quantities(Configuration([[0, 0]], [[3, 4]]))
        assert_close(momentum, [3, 4], 0)
        assert ke == 12.5

    def test_rest_state(self):
        momentum, ke = conserved_quantities(Configuration([[0, 0], [2, 0]], [[0, 0], [0, 0]]))
        assert_close(momentum, [0, 0], 0)
        assert ke == 0.0


class TestModelParams:
    def test_epsilon_positive(self):
        with pytest.raises(UsageError):
            ModelParams(0.0)
        with pytest.raises(UsageError):
            ModelParams(-1.0)

    def test_elastic_sentinel_allowed(self):
        assert ModelParams(math.inf).epsilon0 == math.inf

    def test_dimension_bounds(self):
        # the model is its quantum alone; the dimension is the state's, and
        # states below d=2 are rejected where they enter
        assert [f.name for f in dataclasses.fields(ModelParams)] == ["epsilon0"]
        for d in (0, 1):
            with pytest.raises(UsageError, match="dimension must be an integer >= 2"):
                Configuration(np.zeros((2, d)), np.zeros((2, d)))
        assert Configuration(np.zeros((1, 3)), np.ones((1, 3))).dimension == 3


class TestTolerances:
    FIELDS = ("grazing_tol", "simultaneity_tol", "crit_tol", "contact_tol", "fd_step")

    @pytest.mark.parametrize("name", FIELDS)
    def test_infinite_tolerance_is_refused(self, name):
        with pytest.raises(UsageError, match=f"^{name} must be finite$"):
            Tolerances(**{name: math.inf})

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_negative_infinity_and_nan_keep_the_range_message(self, name, value):
        message = "contact_tol must be >= 0" if name == "contact_tol" else f"{name} must be positive"
        with pytest.raises(UsageError, match=f"^{message}$"):
            Tolerances(**{name: value})

    def test_large_finite_tolerances_and_zero_contact_tol_are_accepted(self):
        tol = Tolerances(1e300, 1e300, 1e300, 0.0, 1e300)
        assert (tol.grazing_tol, tol.contact_tol, tol.fd_step) == (1e300, 0.0, 1e300)


class TestPairs:
    def test_ordering_enforced(self):
        with pytest.raises(UsageError):
            PairIndex(2, 2)
        with pytest.raises(UsageError):
            PairIndex(3, 1)
        with pytest.raises(UsageError):
            PairIndex(0, 1)

    def test_all_pairs_lexicographic(self):
        pairs = all_pairs(3)
        assert pairs == [PairIndex(1, 2), PairIndex(1, 3), PairIndex(2, 3)]

    def test_pair_indices_are_cached_read_only_and_lexicographic(self):
        i, j = pair_indices(4)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert pair_indices(4)[0] is i
        with pytest.raises(ValueError):
            i[0] = 3
        assert pair_indices(1)[0].size == 0
        for n in range(2, 7):
            i, j = pair_indices(n)
            assert [pair_position(n, PairIndex(a + 1, b + 1)) for a, b in zip(i, j)] == list(range(i.size))
            assert pair_position(n, PairIndex(1, n + 1)) == -1


class TestSerialization:
    def test_round_trip(self, head_on):
        doc = head_on.to_json_dict()
        text = dumps(doc)
        assert Configuration.from_json_dict(json.loads(text)) == head_on

    def test_floats_emit_17_significant_digits(self):
        third = 1.0 / 3.0
        assert float(format_float(third)) == third
        assert format_float(third) == "0.33333333333333331"

    def test_dumps_exact_text(self):
        doc = {"\u00e9t\u00e9": [math.nan, math.inf, -math.inf, 0.1], "empty": {}, "none": [], "pair": (True, None)}
        assert dumps(doc) == (
            '{\n  "\\u00e9t\\u00e9": [\n    NaN,\n    Infinity,\n    -Infinity,\n    0.10000000000000001\n  ],\n'
            '  "empty": {},\n  "none": [],\n  "pair": [\n    true,\n    null\n  ]\n}'
        )
        assert dumps({}) == "{}" and dumps([]) == "[]" and dumps("a\"b") == '"a\\"b"'

    def test_dumps_encodes_records(self, head_on):
        event = SimEvent(0.5, PairIndex(1, 2), CollisionKind.INELASTIC, 1.0, 0.75, 4.0)
        plain = {"time": 0.5, "pair": [1, 2], "kind": "inelastic", "ke_before": 1.0, "ke_after": 0.75, "rel_speed_sq": 4.0}
        assert dumps(event) == dumps(plain)
        assert dumps([head_on, np.array([[1.5, -0.0]])]) == dumps([head_on.to_json_dict(), [[1.5, -0.0]]])

    def test_dumps_rejects_unsupported_objects(self):
        with pytest.raises(UsageError, match="cannot serialize object"):
            dumps({"x": [object()]})

    def test_vector_round_trip(self, head_on):
        z = head_on.to_vector()
        assert Configuration.from_vector(z, 2, 2) == head_on

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(UsageError):
            Configuration.from_json_dict({"d": 3, "particles": [{"x": [0, 0], "v": [0, 0]}]})

    @pytest.mark.parametrize(
        "d, x, v, message",
        [
            (2.9, [0, 0], [1, 0], "declared dimension must be an integer, got 2.9"),
            ("2", [0, 0], [1, 0], "declared dimension must be an integer, got '2'"),
            (True, [0, 0], [1, 0], "declared dimension must be an integer, got True"),
            (2.0, [0, 0], [1, 0], "declared dimension must be an integer, got 2.0"),
            (2, ["0", 0], [1, 0], "coordinates must be numbers"),
            (2, [0, 0], [True, 0], "coordinates must be numbers"),
            (2, [0, None], [1, 0], "coordinates must be numbers"),
            (2, [0, [0]], [1, 0], "coordinates must be numbers"),
            (2, "00", [1, 0], "coordinates must be numbers"),
            (2, [0, 10**400], [1, 0], "positions and velocities must be finite"),
            (2, [0, 0, 1], [1, 0], "positions/velocities must be (N, d) arrays of numbers"),
        ],
    )
    def test_malformed_documents_rejected(self, d, x, v, message):
        """Nothing is truncated or parsed into a number: a dimension that is
        not a JSON integer, a coordinate that is not a JSON number, an
        integer beyond the floats and a ragged row are usage errors."""
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            Configuration.from_json_dict({"d": d, "particles": [{"x": x, "v": v}, {"x": [3, 0], "v": [0, 0]}]})

    def test_json_numbers_accepted(self):
        doc = {"d": 2, "particles": [{"x": [0, 0.5], "v": [-1, 2.5e-3]}, {"x": [3, 0], "v": [0, 0]}]}
        assert Configuration.from_json_dict(doc) == Configuration([[0.0, 0.5], [3.0, 0.0]], [[-1.0, 2.5e-3], [0.0, 0.0]])


def _hex(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


class TestSquaredNorms:
    """squared_norms against numpy's axis sum, bit for bit: below 8 terms it
    adds columns in numpy's order, from 8 up it runs numpy's reduction."""

    @pytest.mark.parametrize("length", range(1, 21))
    @pytest.mark.parametrize("stack", [(), (3,), (2, 4)])
    def test_matches_axis_sum(self, stack, length):
        gen = np.random.default_rng(length)
        shape = stack + (45, length)  # (P, d), (k, P, d), (rows, cols, P, d)
        values = gen.standard_normal(shape) * 10.0 ** gen.integers(-3, 4, shape)
        got = squared_norms(values)
        assert got.shape == shape[:-1]
        assert _hex(got) == _hex(np.square(values).sum(axis=-1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_separations_of_240_particles(self, d):
        positions = np.random.default_rng(d).uniform(-20.0, 20.0, (2, 240, d))
        expected = np.square(pair_differences(positions)).sum(axis=-1)
        assert expected.shape == (2, 240 * 239 // 2)
        assert _hex(squared_separations(positions)) == _hex(expected)
        assert _hex(squared_separations(positions[0])) == _hex(expected[0])


@st.composite
def dot_stacks(draw):
    """(x, y) stacks (R, d) for d = 2..9; no product or sum overflows."""
    d, rows = draw(st.integers(2, 9)), draw(st.integers(1, 5))
    elements = st.floats(-1e150, 1e150, allow_subnormal=True)
    return tuple(draw(hnp.arrays(np.float64, (rows, d), elements=elements)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(dot_stacks())
def test_dot_adds_products_left_to_right(stack):
    """core.dot is the left-to-right Python sum of the coordinate products,
    a pair alone gets the bits of its row in a stack, and broadcasting
    against one vector agrees."""
    x, y = stack
    stacked = dot(x, y)
    assert stacked.shape == (len(x),)
    for row, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        expected = a[0] * b[0]
        for u, v in zip(a[1:], b[1:]):
            expected = expected + u * v
        alone = dot(x[row], y[row])
        assert type(alone) is float
        assert alone.hex() == expected.hex() == float(stacked[row]).hex()
    assert _hex(dot(x, y[0])) == _hex([dot(row, y[0]) for row in x])
    assert _hex(dot(x[None], y[None])[0]) == _hex(stacked)
    if x.shape[1] < 8:
        assert _hex(dot(x, x)) == _hex(squared_norms(x))
