"""Wide stacks against their states alone.  Two shapes: 300 to 700 rows of
N = 1 to 4 (a jacobian run's stencil stacks at h and h/2; the bench's N = 4
stencils are 650 rows of 6 pairs) and 12 rows of N = 32 (496 pairs, more
pairs than rows).  core.reduce_rows reduces the first over its pairs one
column at a time and the second, like a state alone, with numpy's per-row
reduction, so each row of first_contacts, tct_stack and simulate_stack must
carry the bits its state gets alone.  Some rows are replaced by states that
tie, graze, start at contact with that pair re-armed, never meet (every
contact inf) or hold a NaN or inf coordinate; a non-finite row must be the
only one out of reach."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ihse import ModelParams, PairIndex, Tolerances
from ihse.collision import first_contacts, scan_errstate
from ihse.core import pair_indices, pair_position, within_reach
from ihse.jacobian_lab import _stencil_rows
from ihse.simulator import simulate_stack
from ihse.tct import tct_stack

FAR = 100.0  # particles beyond the first ones of a special state rest this far apart


def _bits(values) -> bytes:
    """The bytes of values as floats, every NaN as numpy's own NaN."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _centres(gen, count, n, d):
    """count states whose first two particles are aimed at each other, the
    others scattered around them, as phase-space rows (count, 2 n d)."""
    x = gen.uniform(-1.0, 1.0, (count, n, d)) * 2.2 * n
    v = gen.normal(size=(count, n, d)) * gen.choice([0.2, 1.0, 5.0], (count, 1, 1))
    if n > 1:
        axis = gen.normal(size=(count, d))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        x[:, 0] = x[:, 1] + gen.uniform(1.05, 3.0, (count, 1)) * axis
        v[:, 0] = v[:, 1] - (x[:, 0] - x[:, 1]) * gen.uniform(0.2, 3.0, (count, 1))
    return np.concatenate([x.reshape(count, -1), v.reshape(count, -1)], axis=1)


def _special(kind, n, d, gen):
    """One special state of n particles in d dimensions, and the pair
    position to re-arm (-1 for none)."""
    x = np.zeros((n, d))
    x[:, 0] = FAR * np.arange(n)
    v = np.zeros((n, d))
    recent = -1
    if kind == "tie" and n >= 3:  # 1 and 3 reach 2 at t = 2
        x[:3, :2] = [[-3.0, 0.0], [0.0, 0.0], [3.0, 0.0]]
        v[:3, :2] = [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
    elif kind == "graze" and n >= 2:  # touches at t = 3, discriminant 0
        x[:2, :2] = [[0.0, 0.0], [3.0, 1.0]]
        v[:2, :2] = [[1.0, 0.0], [0.0, 0.0]]
    elif kind == "at contact" and n >= 2:  # one diameter apart, as a scatter leaves a pair
        u = gen.standard_normal(d)
        i, j = sorted(gen.choice(n, 2, replace=False).tolist())
        x[j] = x[i] - u / np.linalg.norm(u)
        v[i] = gen.standard_normal(d)
        recent = pair_position(n, PairIndex(i + 1, j + 1))
    elif kind == "never":  # all at rest: every contact inf
        pass
    elif kind in ("nan", "inf"):
        v = gen.standard_normal((n, d))
        (x if gen.random() < 0.5 else v)[gen.integers(n), gen.integers(d)] = np.nan if kind == "nan" else -np.inf
    else:
        v = gen.standard_normal((n, d))
    return x, v, recent


SPECIALS = ("tie", "graze", "at contact", "never", "nan", "inf")


def _stack(gen, n, d, special_share):
    """A stack of 300 to 700 rows, the stencils at h and h/2 of aimed states
    (_stencil_rows), some rows replaced by special states: (positions,
    velocities, recent, kinds by row)."""
    size = 1 + 4 * 2 * n * d
    h = gen.choice([1e-6, 1e-2, 0.2])
    count = gen.integers(-(-300 // size), 700 // size + 1)
    points = np.concatenate(_stencil_rows(_centres(gen, count, n, d), (h, h / 2.0)))
    m = n * d
    x, v = points[:, :m].reshape(-1, n, d), points[:, m:].reshape(-1, n, d)
    pairs = n * (n - 1) // 2
    recent = gen.integers(-1, max(pairs, 1), len(x)) if pairs else np.full(len(x), -1)
    kinds = {}
    for row in np.flatnonzero(gen.random(len(x)) < special_share).tolist():
        kinds[row] = SPECIALS[gen.integers(len(SPECIALS))]
        x[row], v[row], recent[row] = _special(kinds[row], n, d, gen)
    return x, v, recent, kinds


TOLERANCES = (Tolerances(), Tolerances(grazing_tol=0.05, simultaneity_tol=0.05, crit_tol=0.05))


def _assert_rows_alone(x, v, recent, kinds, tau, eps0, tol, seen: Counter):
    s = len(x)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(v).all(axis=(1, 2))
    assert (within_reach(x, v, tau) == finite).all()  # a non-finite row alone is out of reach
    horizon = np.full(s, tau)
    with scan_errstate():
        for span in (None, horizon):
            stacked = first_contacts(x, v, span, tol=tol, recent=recent)
            for row in range(s):
                rows = slice(row, row + 1)
                alone = first_contacts(x[rows], v[rows], None if span is None else span[rows], tol=tol, recent=recent[rows])
                state = first_contacts(x[row], v[row], None if span is None else tau, tol=tol, recent=int(recent[row]))
                for output in range(4 if span is None else 5):
                    assert _bits(stacked[output][row]) == _bits(alone[output]) == _bits(state[output]), (row, output)
                if span is None:
                    assert stacked[4] is alone[4] is state[4] is None
        time, k, unique, graze, _ = stacked
    seen.update(
        {
            "contact": (time <= tau).any(),
            "not unique": (np.isfinite(time) & ~unique).any(),
            "graze": np.isfinite(graze).any(),
            "never meets": (~np.isfinite(time)).any(),
            "non-finite row": not finite.all(),
            **{kind: True for kind in kinds.values()},
        }
    )
    flows = tct_stack(x, v, tau, eps0, tol=tol)
    for row in range(s):
        alone = tct_stack(x[row : row + 1], v[row : row + 1], tau, eps0, tol=tol)
        assert flows.label[row] == alone.label[0], row
        for name in ("t_c", "positions", "velocities", "omega"):
            assert _bits(getattr(flows, name)[row]) == _bits(getattr(alone, name)[0]), (row, name)
    runs = simulate_stack(x, v, tau, ModelParams(eps0), tol=tol)
    for row in range(s):
        alone = simulate_stack(x[row : row + 1], v[row : row + 1], tau, ModelParams(eps0), tol=tol)
        error, expected = runs.errors[row], alone.errors[0]
        assert (type(error), str(error)) == (type(expected), str(expected)), row
        assert repr(runs.events[row]) == repr(alone.events[0]), row
        assert runs.halted[row] == alone.halted[0], row
        for name in ("positions", "velocities", "min_sq"):
            assert _bits(getattr(runs, name)[row]) == _bits(getattr(alone, name)[0]), (row, name)


def test_stencil_wide_stacks_match_their_rows_alone():
    seen = Counter()

    @given(
        n=st.sampled_from((1, 2, 3, 4, 4)),
        d=st.sampled_from((2, 3)),
        tau=st.sampled_from((0.5, 1.5, 4.0)),
        eps0=st.sampled_from((0.05, 0.5, np.inf)),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    def check(n, d, tau, eps0, wide, seed):
        gen = np.random.default_rng(seed)
        x, v, recent, kinds = _stack(gen, n, d, 0.05)
        assert 300 <= len(x) <= 700
        _assert_rows_alone(x, v, recent, kinds, tau, eps0, TOLERANCES[wide], seen)

    check()
    assert all(seen[key] for key in ("contact", "not unique", "graze", "never meets", "non-finite row")), seen
    assert all(seen[kind] for kind in SPECIALS), seen


def test_stacks_with_more_pairs_than_rows_match_their_rows_alone():
    seen = Counter()

    @given(
        tau=st.sampled_from((0.3, 1.0)),
        eps0=st.sampled_from((0.05, 0.5, np.inf)),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    def check(tau, eps0, wide, seed):
        gen = np.random.default_rng(seed)
        n, d = 32, 2
        x = np.zeros((12, n, d))
        x[:, :, 0], x[:, :, 1] = np.divmod(np.arange(n), 6)
        x = 1.6 * x + gen.uniform(-0.2, 0.2, x.shape)  # a jittered lattice, every gap above 1
        v = gen.standard_normal((12, n, d))
        recent = gen.integers(-1, len(pair_indices(n)[0]), 12)
        kinds = {}
        for row, kind in zip(gen.choice(12, 4, replace=False).tolist(), gen.choice(SPECIALS, 4).tolist()):
            kinds[row] = kind
            x[row], v[row], recent[row] = _special(kind, n, d, gen)
        _assert_rows_alone(x, v, recent, kinds, tau, eps0, TOLERANCES[wide], seen)

    check()
    assert all(seen[key] for key in ("contact", "never meets", "non-finite row")), seen
