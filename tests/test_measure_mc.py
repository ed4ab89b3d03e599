import hashlib
import math

import numpy as np
import pytest

from ihse import (
    BranchCrossingError,
    CollisionKind,
    Configuration,
    IHSEError,
    ModelParams,
    PathologicalSetSpec,
    Tolerances,
    UsageError,
    ensemble_volume_evolution,
    estimate_pathological_measure,
)
from ihse.core import pair_indices
from ihse.measure_mc import SPEED_BAND_CUTOFF, SPEED_BAND_WIDTH, _pair_distances, ball_volume, box_volume
from ihse.rng import BLOCK_SIZE, block_generator, blocks, uniform_ball
from ihse.simulator import collision_rich_configuration, simulate

from oracles import count_hits_block

PARAMS = ModelParams(0.01)

# Hits of every case below, and the pair distances of fixed blocks, captured
# before the pair scan was rewritten; bound to the numpy build like the
# engine digests in test_golden.py.
HITS_SHA256 = "b1ec1f83a93cec2656069e78333894e3be0d1fcd7d62149fc737b71f9ab5cf9c"


def e_spec(delta, k=0, n=3, r1=3.0, r2=1.0):
    return PathologicalSetSpec("E", n, k, delta, None, r1, r2, PARAMS)


def p_spec(delta, mu, n=3, r1=3.0, r2=1.0, band=None):
    kwargs = {} if band is None else {"band": band}
    return PathologicalSetSpec("P", n, 0, delta, mu, r1, r2, PARAMS, **kwargs)


class TestSpecValidation:
    def test_delta_bounds(self):
        with pytest.raises(UsageError):
            e_spec(0.0)
        with pytest.raises(UsageError):
            e_spec(1.5)
        with pytest.raises(UsageError):
            e_spec(0.5)  # violates delta <= 2/(3 sqrt2 R2) ~ 0.4714

    def test_p_requires_mu(self):
        with pytest.raises(UsageError):
            PathologicalSetSpec("P", 3, 0, 0.3, None, 3.0, 1.0, PARAMS)
        with pytest.raises(UsageError):
            p_spec(0.3, 0.75)  # mu > 1/2

    def test_e_rejects_what_only_p_reads(self):
        with pytest.raises(UsageError, match="--mu"):
            PathologicalSetSpec("E", 3, 0, 0.3, 0.4, 3.0, 1.0, PARAMS)
        with pytest.raises(UsageError, match="--band"):
            PathologicalSetSpec("E", 3, 0, 0.3, None, 3.0, 1.0, PARAMS, band=SPEED_BAND_CUTOFF)

    @pytest.mark.parametrize("family", ["E", "P"])
    @pytest.mark.parametrize(
        "r1, r2",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0), (3.0, math.nan), (3.0, math.inf), (3.0, 0.0)],
    )
    def test_radii_positive_and_finite(self, family, r1, r2):
        # a NaN or infinite radius would give a NaN volume; R2 = 0 would
        # divide by zero in the delta bound
        mu = 0.25 if family == "P" else None
        with pytest.raises(UsageError, match="^R1 and R2 must be positive and finite$"):
            PathologicalSetSpec(family, 3, 0, 0.3, mu, r1, r2, PARAMS)


class TestEstimator:
    def test_ci_formula_and_sqrt2_shrink(self):
        est1 = estimate_pathological_measure(e_spec(0.3), 40_000, seed=1)
        est2 = estimate_pathological_measure(e_spec(0.3), 80_000, seed=1)
        box = ball_volume(6, 3.0) * ball_volume(6, 1.0)
        p = est1.fraction
        assert est1.ci95 == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 40_000) * box, rel=1e-12)
        # doubling n shrinks the half-width by ~sqrt(2) (fractions nearly equal)
        assert est2.ci95 * math.sqrt(2) == pytest.approx(est1.ci95, rel=0.1)

    def test_box_volume(self):
        # the product of the two balls, bit for bit, where no factor
        # overflows; from logarithms where one does; inf past the float range
        for dim, r_x, r_v in ((6, 3.0, 1.0), (4, 7.25, 0.5), (40, 12.0, 1.5)):
            assert box_volume(dim, r_x, r_v) == ball_volume(dim, r_x) * ball_volume(dim, r_v)
        exact = (math.pi**100) ** 2 * (10**400 / math.factorial(100) ** 2)  # |X| <= 100, |V| <= 1 in 200 dimensions
        assert box_volume(200, 100.0, 1.0) == pytest.approx(exact, rel=1e-12)
        assert box_volume(4, 1e160, 1e-160) == pytest.approx((math.pi**2 / 2.0) ** 2, rel=1e-12)
        assert box_volume(6, 1e60, 1.0) == math.inf

    def test_tiny_delta_all_miss(self):
        est = estimate_pathological_measure(e_spec(1e-6), 10_000, seed=2)
        assert est.hits == 0 and est.volume == 0.0

    def test_deterministic_and_thread_invariant(self):
        a = estimate_pathological_measure(e_spec(0.3), 50_000, seed=3)
        b = estimate_pathological_measure(e_spec(0.3), 50_000, seed=3)
        c = estimate_pathological_measure(e_spec(0.3), 50_000, seed=3, threads=4)
        assert a.hits == b.hits == c.hits

    @pytest.mark.parametrize("spec", [e_spec(0.3), p_spec(0.3, 0.5), p_spec(0.3, 0.5, band=SPEED_BAND_CUTOFF)])
    def test_hits_equal_at_every_thread_count(self, spec):
        # six blocks, the last one partial: at 7 threads some workers get none
        n_samples = 5 * BLOCK_SIZE + 123
        hits = [estimate_pathological_measure(spec, n_samples, seed=13, threads=t).hits for t in (1, 2, 3, 7)]
        assert hits[0] > 0
        assert hits == [hits[0]] * 4

    def test_double_proximity_scaling_ratio(self):
        # halving delta divides the double-proximity volume by roughly four
        big = estimate_pathological_measure(e_spec(0.3), 1_000_000, seed=5)
        small = estimate_pathological_measure(e_spec(0.15), 1_000_000, seed=6)
        assert small.hits > 0
        assert big.ci95 / big.volume < 0.1 and small.ci95 / small.volume < 0.1
        ratio = big.volume / small.volume
        assert 3.0 <= ratio <= 5.5

    def test_speed_band_scaling_ratio(self):
        # halving mu halves the near-critical-speed volume
        big = estimate_pathological_measure(p_spec(0.3, 0.5), 1_000_000, seed=7)
        small = estimate_pathological_measure(p_spec(0.3, 0.25), 1_000_000, seed=8)
        assert small.hits > 0
        ratio = big.volume / small.volume
        assert 1.7 <= ratio <= 2.3

    def test_cutoff_band_variant(self):
        est = estimate_pathological_measure(p_spec(0.3, 0.4, band=SPEED_BAND_CUTOFF), 100_000, seed=9)
        assert est.hits >= 0  # predicate evaluates; band is narrower than the default at same mu

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family, band", [("E", SPEED_BAND_WIDTH), ("P", SPEED_BAND_WIDTH), ("P", SPEED_BAND_CUTOFF)])
    def test_buffered_kernel_matches_allocating_kernel(self, family, band, n, k):
        # partial first, full, partial last blocks; 3 threads on 2 blocks
        mu = None if family == "E" else 0.5
        spec = PathologicalSetSpec(family, n, k, 0.3, mu, 3.0, 1.0, PARAMS, band=band)
        for n_samples in (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 1000):
            expected = sum(count_hits_block(spec, block_generator(19, b), count) for b, count in blocks(n_samples))
            for threads in (1, 2, 3):
                assert estimate_pathological_measure(spec, n_samples, seed=19, threads=threads).hits == expected


def _axis_sum_distances(points):
    """Pair distances as the square root of numpy's sum over the length-d axis."""
    i, j = pair_indices(points.shape[-2])
    return np.sqrt(np.square(points[:, i] - points[:, j]).sum(axis=-1))


def _hex(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


def _ball_by_norm(gen, count, dim, radius):
    """rng.uniform_ball as first written, with np.linalg.norm."""
    x = gen.standard_normal((count, dim))
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    r = radius * gen.random(count) ** (1.0 / dim)
    return x * (r / norms)[:, None]


@pytest.mark.parametrize("dim", range(1, 21))
def test_uniform_ball_matches_norm_body(dim):
    for count in (1, 1000):
        got = uniform_ball(block_generator(5, dim), count, dim, 2.5)
        assert _hex(got) == _hex(_ball_by_norm(block_generator(5, dim), count, dim, 2.5))


@pytest.mark.parametrize("dim", range(1, 21))
def test_uniform_ball_into_a_buffer_matches(dim):
    buf = np.empty((BLOCK_SIZE, dim))
    for count in (1, 1000):
        got = uniform_ball(block_generator(5, dim), count, dim, 2.5, out=buf[:count])
        assert np.shares_memory(got, buf)
        assert _hex(got) == _hex(uniform_ball(block_generator(5, dim), count, dim, 2.5))


class TestPairDistances:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_blocks_match_axis_sum(self, n, d):
        for index in range(4):
            points = uniform_ball(block_generator(17, index), 1000, n * d, 3.0).reshape(1000, n, d)
            got = _pair_distances(points)
            assert got.shape == (1000, n * (n - 1) // 2)
            assert _hex(got) == _hex(_axis_sum_distances(points))

    @pytest.mark.parametrize("d", [2, 3])
    def test_distances_on_set_boundaries(self, d):
        # pairs placed so a distance lands exactly on 1.0, on the E and P
        # proximity thresholds at delta 0.3, R2 1, or one ulp to either side
        e_proximity = 1.0 + 1.5 * math.sqrt(2.0) * 0.3 * 1.0
        p_proximity = 1.0 + math.sqrt(2.0) * 0.3 * 1.0
        targets = [1.0, e_proximity, p_proximity]
        offsets = []
        for t in targets:
            for value in (t, np.nextafter(t, 0.0), np.nextafter(t, 2.0)):
                for axis in range(d):
                    for sign in (1.0, -1.0):
                        offset = np.zeros(d)
                        offset[axis] = sign * value
                        offsets.append(offset)
            offsets.append(np.full(d, t / math.sqrt(d)))
        offsets = np.array(offsets)
        third = np.random.default_rng(3).uniform(-3.0, 3.0, size=offsets.shape)
        points = np.stack([np.zeros_like(offsets), offsets, third], axis=1)
        got = _pair_distances(points)
        assert _hex(got) == _hex(_axis_sum_distances(points))
        for t in targets:
            assert np.count_nonzero(got[:, 0] == t) >= 2 * d


class TestVolumeEvolution:
    def test_collision_free(self):
        cfg = Configuration([[0, 0], [5, 0]], [[-0.3, 0], [0.3, 0]])
        predicted, measured = ensemble_volume_evolution(cfg, 1e-3, 2.0, ModelParams(0.75))
        assert predicted == 1.0
        assert measured == pytest.approx(1.0, abs=1e-8)

    def test_single_emitting_collision(self, symmetric_head_on):
        predicted, measured = ensemble_volume_evolution(symmetric_head_on, 1e-3, 2.0, ModelParams(0.75))
        assert predicted == pytest.approx(0.5, abs=1e-15)
        assert measured == pytest.approx(predicted, abs=1e-5)

    def test_double_emitting_chain(self):
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        params = ModelParams(0.5)
        report = simulate(chain, 1.5, params)
        expected = 1.0
        for event in report.events:
            expected *= math.sqrt(1.0 - 4.0 * params.epsilon0 / event.rel_speed_sq)
        predicted, measured = ensemble_volume_evolution(chain, 1e-3, 1.5, params)
        assert predicted == pytest.approx(expected, rel=1e-12)
        assert measured == pytest.approx(predicted, abs=1e-4)

    def test_double_emitting_chain_3d(self):
        # the C11 chain embedded in d=3 with off-axis jitter: each emitting
        # event contracts volume by (1 - 4 eps0 / s^2)^((d-1)/2), d the
        # centre's own dimension (the model is its quantum alone)
        chain = Configuration(
            [[3, 0.1, -0.05], [0, 0, 0], [6, -0.08, 0.06]],
            [[0, 0.02, 0.01], [3, 0.05, -0.04], [-1, -0.03, 0.02]],
        )
        params = ModelParams(0.5)
        report = simulate(chain, 1.5, params)
        assert [e.kind for e in report.events] == [CollisionKind.INELASTIC, CollisionKind.INELASTIC]
        expected = 1.0
        for event in report.events:
            expected *= 1.0 - 4.0 * params.epsilon0 / event.rel_speed_sq
        predicted, measured = ensemble_volume_evolution(chain, 1e-3, 1.5, params)
        assert chain.dimension == 3
        assert predicted == pytest.approx(expected, rel=1e-12)
        assert abs(measured - predicted) <= 1e-4

    def test_elastic_multi_collision_preserves_volume(self):
        params = ModelParams(math.inf)
        checked = 0
        for index in range(12):
            cfg = collision_rich_configuration(13, index, 3, 2, 4.0, 1.5, 1.2)
            report = simulate(cfg, 6.0, params)
            if report.halted is not None or len(report.events) < 2:
                continue
            predicted, measured = ensemble_volume_evolution(cfg, 1e-3, 6.0, params)
            assert predicted == 1.0
            assert measured == pytest.approx(1.0, abs=1e-6)
            checked += 1
        assert checked >= 3

    def test_contraction_never_expands(self):
        params = ModelParams(0.35)
        checked = 0
        for index in range(20):
            cfg = collision_rich_configuration(23, index, 3, 2, 4.0, 1.5, 1.2)
            report = simulate(cfg, 6.0, params)
            if report.halted is not None or not report.events:
                continue
            try:
                predicted, measured = ensemble_volume_evolution(cfg, 1e-3, 6.0, params)
            except BranchCrossingError:
                continue
            assert measured <= 1.0 + 1e-6
            assert predicted <= 1.0
            checked += 1
        assert checked >= 5

    def test_halted_centre_is_an_error(self):
        # max_events=1 halts the chain's centre at its first collision, and
        # every stencil row with it: no FD determinant of a halted run
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        with pytest.raises(IHSEError, match="^center trajectory halted on pathology: max_events$"):
            ensemble_volume_evolution(chain, 1e-3, 1.5, ModelParams(0.5), tol=Tolerances(max_events=1))

    def test_centre_error_comes_first(self):
        # a non-interior centre is its row's error, raised before the
        # stencil rows' branch crossings
        cfg = Configuration([[0, 0], [1, 0], [5, 0]], [[0, 0], [0, 0], [-1, 0]])
        with pytest.raises(UsageError, match="must be interior"):
            ensemble_volume_evolution(cfg, 1e-3, 1.5, ModelParams(0.5))

    def test_branch_crossing_reported(self):
        # radius so large the stencil flips the collision structure
        chain = Configuration([[3, 0], [0, 0], [6, 0]], [[0, 0], [3, 0], [-1, 0]])
        with pytest.raises(BranchCrossingError):
            ensemble_volume_evolution(chain, 5.0, 1.5, ModelParams(0.5))


def test_hits_digest_is_pinned():
    digest = hashlib.sha256()
    for n in (2, 3, 5, 8):
        for index in range(20):
            points = uniform_ball(block_generator(41, index), 4096, 2 * n, 3.0).reshape(4096, n, 2)
            digest.update(_pair_distances(points).tobytes())
    cases = [("E", SPEED_BAND_WIDTH), ("P", SPEED_BAND_WIDTH), ("P", SPEED_BAND_CUTOFF)]
    for family, band in cases:
        for n in (2, 3, 4):
            for k in (0, 2):
                mu = None if family == "E" else 0.5
                spec = PathologicalSetSpec(family, n, k, 0.3, mu, 3.0, 1.0, PARAMS, band=band)
                for threads in (1, 2):
                    est = estimate_pathological_measure(spec, 3 * 4096 + 1000, seed=11, threads=threads)
                    digest.update(f"{family},{band},{n},{k},{threads}:{est.hits};".encode())
    assert digest.hexdigest() == HITS_SHA256
