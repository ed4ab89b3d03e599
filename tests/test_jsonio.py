"""The one-pass document encoder against the recursive encoder it replaced
(reference_encoder.reference_dumps), and the atomic file write."""

import collections
import enum
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ihse import CollisionKind, Configuration, PairIndex, UsageError
from ihse import jsonio
from ihse.cli import COMMANDS, build_parser, resolve_flags, run
from ihse.jacobian_lab import JacobianReport
from ihse.jsonio import dumps, write_atomic
from ihse.scattering import ScatteringOutcome
from ihse.simulator import Pathology, SimEvent, SimReport
from ihse.tct import ExclusionReason, TCTDomainClass

from reference_encoder import reference_dumps

# Every record type a CLI document holds besides Configuration and PairIndex.
RECORDS = (SimReport, SimEvent, Pathology, TCTDomainClass, ScatteringOutcome, JacobianReport)


class Level(enum.IntEnum):
    """An int subclass: written as an int, not by its enum value."""

    LOW = 1
    HIGH = 2


class Real(float):
    """A float subclass: written as a float."""


class Text(str):
    """A str subclass: written as a str, also as a key."""


class Items(list):
    """A list subclass: written as a list."""


class Row(tuple):
    """A tuple subclass: written as a list."""


class Table(dict):
    """A dict subclass: written as a dict."""


EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, 1e300)
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
finite = st.floats(-1e6, 1e6, allow_subnormal=True)
plain = floats | st.integers() | st.text(max_size=3)


@st.composite
def configurations(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    positions = draw(hnp.arrays(np.float64, (n, d), elements=finite))
    return Configuration(positions, draw(hnp.arrays(np.float64, (n, d), elements=finite)))


arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3), elements=floats),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
)

scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(max_size=6),  # control characters and non-ASCII code points among them
    st.sampled_from(tuple(CollisionKind) + tuple(ExclusionReason) + tuple(Level)),
    st.builds(lambda i, gap: PairIndex(i, i + gap), st.integers(1, 40), st.integers(1, 40)),
    configurations(),
    arrays,
    floats.map(Real),
    st.text(max_size=6).map(Text),
    st.lists(plain, max_size=3).map(Items),
    st.lists(plain, max_size=3).map(Row),
    st.dictionaries(st.text(max_size=3).map(Text), plain, max_size=3).map(Table),
    st.dictionaries(st.text(max_size=3), plain | st.none(), max_size=3).map(collections.OrderedDict),
)


def _records(children):
    return [
        st.lists(children, min_size=len(record.__dataclass_fields__), max_size=len(record.__dataclass_fields__)).map(
            lambda values, record=record: record(*values)
        )
        for record in RECORDS
    ]


documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        *_records(children),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_dumps_matches_reference_encoder(doc):
    assert dumps(doc) == reference_dumps(doc)


class Mark(enum.Enum):
    """String values that need escaping: written by the per-value path."""

    QUOTE = 'say "hi"'
    ACCENT = "caf\u00e9"


def unchecked_configuration(positions: np.ndarray, velocities: np.ndarray) -> Configuration:
    """A Configuration of these arrays as they are, non-finite coordinates
    among them (the constructor refuses those)."""
    cfg = object.__new__(Configuration)
    object.__setattr__(cfg, "positions", positions)
    object.__setattr__(cfg, "velocities", velocities)
    return cfg


@st.composite
def large_configurations(draw):
    """N up to 40 in d = 2 or 3, finite or with NaN and infinities."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(2, 3))
    elements = floats if draw(st.booleans()) else finite
    return unchecked_configuration(*(draw(hnp.arrays(np.float64, (n, d), elements=elements)) for _ in range(2)))


NON_FINITE = (math.nan, math.inf, -math.inf)
# Field values no template slot takes, or takes only for some values.
odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(tuple(Level) + tuple(Mark) + NON_FINITE),
    st.integers(),
    finite.map(np.float64),
    st.builds(PairIndex, st.just(True), st.integers(2, 5)),
    st.lists(finite, max_size=2),
)
pairs = st.builds(lambda i, gap: PairIndex(i, i + gap), st.integers(1, 40), st.integers(1, 40))


@st.composite
def sim_events(draw, odd: bool):
    """A SimEvent with the field types simulate writes, or with one odd
    value among them."""
    fields = (finite, pairs, st.sampled_from(tuple(CollisionKind)), finite, finite, finite)
    values = [draw(field) for field in fields]
    if odd:
        values[draw(st.integers(0, len(fields) - 1))] = draw(odd_values)
    return SimEvent(*values)


@st.composite
def sim_reports(draw):
    size = draw(st.integers(0, 150))  # st.lists alone rarely draws long lists
    events = draw(st.lists(sim_events(draw(st.booleans())), min_size=size, max_size=size))
    halted = draw(st.none() | st.builds(Pathology, st.text(max_size=6), floats))
    counts = draw(st.integers(0, 150)), draw(st.integers(0, 150))
    return SimReport(tuple(events), draw(large_configurations()), *counts, draw(floats), halted)


@settings(max_examples=60, deadline=None)
@given(large_configurations(), sim_reports())
def test_template_sized_documents_match_reference_encoder(initial, report):
    """Documents of the sizes the templates are cached for: configurations
    of up to 40 particles and reports of up to 150 events, with the values
    that take the per-value path among them."""
    doc = {"initial": initial, "report": report, "events": list(report.events)}
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("kind", tuple(CollisionKind) + tuple(Mark) + tuple(Level))
@pytest.mark.parametrize("pair", [PairIndex(2, 7), PairIndex(True, 3)])
@pytest.mark.parametrize("time", [0.25, None, 3, math.nan, -math.inf])
def test_record_fields_of_each_slot(time, pair, kind):
    """Each field type a record template has a slot for, and the values of
    those types it leaves to the per-value path: a non-finite float, a pair
    of a bool, an enum whose values need escaping and an IntEnum."""
    event = SimEvent(time, pair, kind, 1.0, 0.5, 2.0)
    for doc in (event, {"events": [event]}):  # two indentations, two templates
        assert dumps(doc) == reference_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_configuration_text_is_that_of_its_float64_rows(cfg):
    """Configuration.to_json_dict reads its rows with tolist(); it was
    written from lists of np.float64 before, with the same text."""
    rows = [{"x": list(cfg.positions[k]), "v": list(cfg.velocities[k])} for k in range(cfg.n_particles)]
    assert dumps(cfg) == reference_dumps({"d": cfg.dimension, "particles": rows})


@pytest.mark.parametrize(
    "value", [np.int64(3), np.bool_(True), np.float32(0.5), object(), {1, 2}, b"bytes", Configuration]
)
def test_unsupported_values_raise_usage_error(value):
    for encode in (dumps, reference_dumps):
        with pytest.raises(UsageError, match="cannot serialize"):
            encode({"x": [1.0, value]})


def dense_cluster(n_side=6, count=32, spacing=1.6, jitter=0.25, drift=0.8, seed=4):
    """count disks on the lattice sites nearest the centre of an n_side
    square, jittered, with unit Gaussian velocities plus an inward drift."""
    gen = np.random.default_rng(seed)
    centre = (n_side - 1) / 2.0
    sites = sorted(
        ((a, b) for a in range(n_side) for b in range(n_side)),
        key=lambda p: ((p[0] - centre) ** 2 + (p[1] - centre) ** 2, p),
    )
    positions = np.array(sites[:count], dtype=float) * spacing + gen.uniform(-jitter, jitter, (count, 2))
    inward = positions.mean(axis=0) - positions
    velocities = gen.standard_normal((count, 2)) + drift * inward / np.linalg.norm(inward, axis=1, keepdims=True)
    return Configuration(positions, velocities)


def test_dense_cluster_document_matches_reference_encoder(tmp_path):
    """A dense N=32 simulate document, the shape of the documents most of
    the encoder's time goes to, written byte for byte as before."""
    config, out = tmp_path / "cluster.json", tmp_path / "out.json"
    config.write_text(dumps(dense_cluster()))
    argv = ["simulate", "--config", str(config), "--T", "5", "--eps0", "0.5"]
    document, status = COMMANDS["simulate"].handler(resolve_flags(build_parser().parse_args(argv)))
    assert len(document["report"].events) >= 20
    assert run(argv + ["--output", str(out)]) == status
    assert out.read_text(encoding="utf-8") == reference_dumps(document) + "\n"


class TestWriteAtomic:
    def test_writes_the_text(self, tmp_path):
        write_atomic(tmp_path / "out.json", "text\n")
        assert os.listdir(tmp_path) == ["out.json"]
        assert (tmp_path / "out.json").read_text() == "text\n"

    def test_directory_target_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "dir", "text\n")
        assert os.listdir(tmp_path) == ["dir"] and os.listdir(tmp_path / "dir") == []

    def test_missing_parent_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_atomic(tmp_path / "missing" / "out.json", "text\n")
        assert os.listdir(tmp_path) == []

    def test_any_failure_removes_the_temp_file(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(jsonio.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(tmp_path / "out.json", "text\n")
        assert os.listdir(tmp_path) == []
