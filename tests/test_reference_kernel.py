"""The array kernel against the pair-by-pair reference: every field of every
scan, and every single-pair prediction, must be identical."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from ihse import (
    CollisionPrediction,
    Configuration,
    FirstCollision,
    ModelParams,
    PairIndex,
    Tolerances,
    first_collision,
    predict_pair,
)
from ihse.collision import _quadratic_contact_roots, first_contacts, scan_errstate
from ihse.core import pair_indices, pair_position

TOLERANCES = (
    Tolerances(),
    Tolerances(grazing_tol=1e-6, simultaneity_tol=1e-3),
    Tolerances(grazing_tol=0.05, simultaneity_tol=0.25),
)
# spread: random boxes, overlapping pairs included; grazing: pairs aimed
# tangentially; mirror: x -> -x, v -> -v copies, so distinct pairs tie
# exactly; scattered: a jittered lattice right after its first collision,
# whose pair sits on the contact sphere and must be re-armed.
LAYOUTS = ("spread", "grazing", "mirror", "scattered")


def _aim_tangentially(x, v, a, b, gen):
    """Move particle a to distance > 1 of b and give it a relative velocity
    that touches b's contact sphere tangentially."""
    d = x.shape[1]
    axis = gen.standard_normal(d)
    axis /= np.linalg.norm(axis)
    length = 1.5 + 2.0 * gen.random()
    x[a] = x[b] + length * axis
    perp = gen.standard_normal(d)
    perp -= (perp @ axis) * axis
    perp /= np.linalg.norm(perp)
    v[a] = v[b] + (0.5 + gen.random()) * (-axis * math.sqrt(length**2 - 1.0) / length + perp / length)


def _configuration(layout, n, d, gen, tol):
    """(configuration, pair that just collided or None)."""
    box = 1.5 * n ** (1.0 / d) + 1.0
    x = gen.uniform(-box, box, (n, d))
    v = gen.standard_normal((n, d))
    if layout == "mirror":
        m = n // 2
        x = np.vstack([x[:m], -x[:m], np.zeros((n - 2 * m, d))])
        v = np.vstack([v[:m], -v[:m], np.zeros((n - 2 * m, d))])
    if layout == "grazing":
        for a in range(0, n - 1, 2):
            if gen.random() < 0.5:
                _aim_tangentially(x, v, a, a + 1, gen)
    if layout == "scattered":
        side = math.ceil(n ** (1.0 / d))
        sites = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)[:n]
        x = 1.6 * sites + gen.uniform(-0.2, 0.2, (n, d))
    cfg = Configuration(x, v)
    if layout != "scattered":
        return cfg, None
    scan = ref.first_collision(cfg, 1e3, tol=tol)
    if scan is None or scan.time is None:
        return cfg, None
    state, _, _ = ref.collide(cfg, scan.pair, scan.time, ModelParams(0.3))
    return state, scan.pair


def _anchors(cfg, tol):
    """Sorted contact times and sorted grazing encounter times of all pairs,
    in the reference arithmetic."""
    contacts, grazes = [], []
    for pair in ref.pairs(cfg.n_particles):
        b, a, delta, roots = ref.quadratic_contact_roots(*cfg.pair_state(pair))
        if abs(delta) <= tol.grazing_tol:
            if a != 0.0 and b < 0.0:
                grazes.append(roots[0] if delta > 0.0 else -b / a)
        elif (t := ref.contact_time(delta, roots, tol.grazing_tol)) is not None:
            contacts.append(t)
    return sorted(contacts), sorted(grazes)


def _cases(cfg, tol, gen):
    """(tolerances, horizon) pairs: far and random horizons, and horizons on
    and next to the two earliest contacts and the earliest graze, so that
    they fall just inside and just past the horizon; also the simultaneity
    tolerance equal to the gap between the two earliest contacts."""
    contacts, grazes = _anchors(cfg, tol)
    horizons = [1e3, 0.1 + 5.0 * gen.random()]
    for t in contacts[:2] + grazes[:1]:
        horizons += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    tols = [tol]
    if len(contacts) > 1 and contacts[1] > contacts[0]:
        tols.append(replace(tol, simultaneity_tol=contacts[1] - contacts[0]))
    return [(t, h) for t in tols for h in horizons if h > 0.0]


@given(
    n=st.integers(1, 40),
    d=st.sampled_from((2, 3)),
    layout=st.sampled_from(LAYOUTS),
    tol=st.sampled_from(TOLERANCES),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_kernel_matches_reference(n, d, layout, tol, seed):
    gen = np.random.default_rng(seed)
    cfg, collided = _configuration(layout, n, d, gen, tol)
    for pair in ref.pairs(n):
        assert predict_pair(cfg, pair, tol=tol) == CollisionPrediction(pair, *ref.pair_prediction(cfg, pair, tol))
    recents = [None, collided]
    if collided is None and n > 1:  # a recent pair away from contact must change nothing
        a = int(gen.integers(1, n))
        recents[1] = PairIndex(a, int(gen.integers(a + 1, n + 1)))
    cases = _cases(cfg, tol, gen)
    for scan_tol, horizon in cases:
        for recent in recents:
            expected = ref.first_collision(cfg, horizon, tol=scan_tol, recent_pair=recent)
            assert first_collision(cfg, horizon, tol=scan_tol, recent_pair=recent) == expected
    # The same scans as the rows of one stack, each row with its own recent
    # pair and then its own horizon.
    i, j = pair_indices(n)
    for scan_tol in {t for t, _ in cases}:
        rows = [(horizon, recent) for t, horizon in cases if t == scan_tol for recent in recents]
        positions = [pair_position(n, recent) if recent else -1 for _, recent in rows]
        shape = (len(rows),) + cfg.positions.shape
        with scan_errstate():
            time, k, unique, graze, _ = first_contacts(
                np.broadcast_to(cfg.positions, shape),
                np.broadcast_to(cfg.velocities, shape),
                np.array([horizon for horizon, _ in rows]),
                tol=scan_tol,
                recent=np.array(positions),
            )
        for row, (horizon, recent) in enumerate(rows):
            t_graze = float(graze[row]) if graze[row] <= horizon else None
            if time[row] <= horizon:
                pair = PairIndex(int(i[k[row]]) + 1, int(j[k[row]]) + 1)
                stacked = FirstCollision(float(time[row]), pair, bool(unique[row]), t_graze)
            else:
                stacked = None if t_graze is None else FirstCollision(None, None, True, t_graze)
            assert stacked == ref.first_collision(cfg, horizon, tol=scan_tol, recent_pair=recent)


# Rows of the contact-roots test: free (random r and w), still (w = 0),
# creeping (|w|^2 underflows to a = 0 while b * b does not), touching (r on
# the contact sphere) and tangential (w aimed to touch the contact sphere,
# so delta is zero up to rounding).
ROW_KINDS = ("free", "still", "creeping", "touching", "tangential")


@given(
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
    d=st.sampled_from((2, 3)),
    grazing_tol=st.sampled_from((0.0, 1e-12, 0.05, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_contact_roots_match_reference(kinds, d, grazing_tol, seed):
    gen = np.random.default_rng(seed)
    r = gen.uniform(-3.0, 3.0, (len(kinds), d))
    w = gen.standard_normal((len(kinds), d))
    for row, kind in enumerate(kinds):
        if kind == "still":
            w[row] = 0.0
        elif kind == "creeping":
            r[row] *= 100.0 / np.linalg.norm(r[row])
            w[row] *= 1e-163 / np.linalg.norm(w[row])
        elif kind == "touching":
            r[row] /= np.linalg.norm(r[row])
        elif kind == "tangential":
            axis = r[row] / np.linalg.norm(r[row])
            length = 1.5 + 2.0 * gen.random()
            perp = w[row] - (w[row] @ axis) * axis
            perp /= np.linalg.norm(perp)
            r[row] = length * axis
            w[row] = (0.5 + gen.random()) * (-axis * math.sqrt(length**2 - 1.0) / length + perp / length)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = list(_quadratic_contact_roots(r, w, grazing_tol))
        expected = ref.array_contact_roots(r, w, grazing_tol)
    if kernel[-1] is None:  # no pair grazes: no graze array
        assert not (np.abs(expected[3]) <= grazing_tol).any()
        kernel[-1] = np.full(len(kinds), np.inf)
    for got, want in zip(kernel, expected, strict=True):
        assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want.tolist()]
