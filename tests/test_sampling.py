"""The array pair samplers against the loop they replaced.

`check_preservation` and `check_isometry` draw every random pair in one
call and score all pairs row-wise. `tests/oracles.py` keeps the loop, one
draw per vector and one record per pair, as the reference: the points
must be the same bits, labels, counts and verdicts the same, and the
numbers equal to roundoff. The row-wise sums add in another order, so a
product moves by a few ulps of the sum of the moduli of its terms, which
Cauchy-Schwarz bounds by |w||z|. Numbers must agree within 1e-13 times
the largest of 1, the value and |w||z| + |Tw||Tz|: where the terms
cancel, as in the real part of a norm warp, the value is far smaller than
the terms.
"""

import tracemalloc

import numpy as np
import pytest

import wigner as wg
from oracles import reference_isometry, reference_preservation
from wigner.errors import MAX_SAMPLES, SchemaError
from wigner.mazurulam import RealTransformation

DIMENSIONS = (1, 2, 8, 64)
SEEDS = (0, 1, 7)
ADVERSARIES = ("scaling", "shear", "norm_warp", "rank_deficient")
TOL = 1e-9


def complex_maps(n, seed):
    u = wg.haar_unitary(n, seed)
    maps = {
        "linear": wg.make_symmetry("linear", u),
        "antilinear_dressed": wg.make_symmetry(
            "antilinear", u, wg.DressingSpec.random(n, 2, seed)
        ),
    }
    for kind in ADVERSARIES:
        if n >= 2 or kind in ("scaling", "norm_warp"):
            maps[kind] = wg.make_adversary(kind, n, seed)
    return maps


def real_maps(n, seed):
    """An orthogonal map, and the real parts of the complex maps on R^n."""
    o = wg.haar_orthogonal(n, seed)
    maps = {"orthogonal": RealTransformation(lambda u: u @ o.T, n, vectorized=True)}
    for name, t in complex_maps(n, seed).items():
        maps[name] = RealTransformation(lambda u, t=t: t(u).real, n, vectorized=True)
    return maps


SAMPLERS = {
    "preservation": (wg.check_preservation, reference_preservation, complex_maps),
    "isometry": (wg.check_isometry, reference_isometry, real_maps),
}


def recorded(transform):
    """`transform` and the list of batches it is called with."""
    batches = []

    def evaluator(z):
        batches.append(z.copy())
        return transform(z)

    return type(transform)(evaluator, transform.dimension, vectorized=True), batches


def close(value, reference, scale):
    return abs(value - reference) <= 1e-13 * max(1.0, abs(reference), scale)


@pytest.mark.parametrize("num_pairs", (1, 50, 333))
@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_array_sampler_matches_the_loop(sampler, n, num_pairs):
    sample, reference, maps = SAMPLERS[sampler]
    for seed in SEEDS:
        for name, transform in maps(n, seed).items():
            watched, batches = recorded(transform)
            report = sample(watched, num_pairs, seed, TOL)
            watched_ref, batches_ref = recorded(transform)
            records_ref, passed_ref = reference(watched_ref, num_pairs, seed, TOL)
            where = (name, seed)
            assert len(batches) == len(batches_ref) == 1, where
            assert batches[0].dtype == batches_ref[0].dtype, where
            assert np.array_equal(batches[0], batches_ref[0]), where
            records = report.records
            assert [r.label for r in records] == [r.label for r in records_ref], where
            assert report.pairs_tested == len(records_ref), where
            assert report.passed == passed_ref, where
            assert report.max_deviation == max(r.deviation for r in records), where
            images = transform(batches[0]).reshape(-1, 2, n)
            image_norms = np.linalg.norm(images, axis=-1).prod(axis=1)
            for got, ref, image_norm in zip(records, records_ref, image_norms):
                scale = ref.norm_w * ref.norm_z + image_norm
                for key in ("norm_w", "norm_z", "expected", "deviation"):
                    assert close(getattr(got, key), getattr(ref, key), scale), (where, got, ref)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("shape", ((), (1,), (5,), (3, 2)))
def test_random_state_batch_equals_one_call_per_vector(shape, n):
    rng = np.random.default_rng(n)
    loop = np.array(
        [
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
            for _ in range(int(np.prod(shape)))
        ]
    ).reshape(*shape, n)
    batch = wg.random_state(n, np.random.default_rng(n), shape)
    assert batch.shape == (*shape, n)
    assert batch.tobytes() == loop.tobytes()


def test_classify_reconstruction_points_are_one_draw():
    # the reconstruction check reads `samples` points from rng [seed, 1]
    u = wg.haar_unitary(3, 4)
    transform = wg.make_symmetry("linear", u)
    watched, batches = recorded(transform)
    wg.classify(watched, wg.ClassifyConfig(samples=17, seed=3))
    rng = np.random.default_rng([3, 1])
    expected = np.array(
        [(rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2.0) for _ in range(17)]
    )
    assert any(b.shape == expected.shape and np.array_equal(b, expected) for b in batches)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preservation_at_the_cap_peaks_below_the_loop():
    # The loop peaked at 66 MB here (63 MB in other runs): a Python list of
    # 20k point arrays, their 20 MB copy and the images. The array sampler
    # holds the 20 MB pair array, the images and one (P, n) temporary.
    transform = wg.make_symmetry("linear", wg.haar_unitary(64, 0))
    peak = traced_peak(lambda: wg.check_preservation(transform, MAX_SAMPLES, 0, 1e-8))
    assert peak < 60e6


def test_isometry_at_the_cap_peaks_below_the_loop():
    # the loop peaked at 35 MB; the pair array is 10 MB of floats here
    o = wg.haar_orthogonal(64, 0)
    transform = RealTransformation(lambda u: u @ o.T, 64, vectorized=True)
    peak = traced_peak(lambda: wg.check_isometry(transform, MAX_SAMPLES, 0, 1e-8))
    assert peak < 30e6


def test_classify_at_the_cap_peaks_below_80_mb():
    # About 76 MB here (74 MB before the gauge probes were batched): the
    # reconstruction check's 10k points and their memo keys. Probing every
    # memo miss in one call, without chunks of PROBE_CHUNK_ROWS, peaked at
    # 188 MB.
    dressing = wg.DressingSpec.random(64, 2, 1)
    transform = wg.make_symmetry("linear", wg.haar_unitary(64, 0), dressing)
    config = wg.ClassifyConfig(samples=MAX_SAMPLES)
    peak = traced_peak(lambda: wg.classify(transform, config))
    assert peak < 80e6


def test_pair_counts_outside_the_range_raise_before_any_draw(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was made although the pair count is refused")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    transform = wg.make_symmetry("linear", np.eye(64))
    real = RealTransformation(lambda u: u, 64, vectorized=True)
    calls = (
        lambda k: wg.check_preservation(transform, k, 0, 1e-8),
        lambda k: wg.check_isometry(real, k, 0, 1e-8),
        lambda k: wg.classify(transform, wg.ClassifyConfig(samples=k)),
    )
    for call in calls:
        for count in (0, MAX_SAMPLES + 1):
            def refused():
                with pytest.raises(SchemaError, match="(num_pairs|samples) must be at"):
                    call(count)

            assert traced_peak(refused) < 64 * 1024
