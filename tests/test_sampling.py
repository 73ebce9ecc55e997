"""The array pair samplers against the loop they replaced.

`check_preservation` and `check_isometry` score the special pairs row-wise
as one batch and, only when all of them pass, draw every random pair in
one call and score them as a second batch. `tests/oracles.py` keeps the
loop, one draw per vector and one row per pair, as the reference: the
points must be the same bits, labels, counts and verdicts the same (a
failed special pair ends the listing), and the numbers equal to
roundoff. The row-wise sums add in another order, so a product moves by
a few ulps of the sum of the moduli of its terms, which Cauchy-Schwarz
bounds by |w||z|. Numbers must agree within 1e-13 times the largest of 1,
the value and |w||z| + |Tw||Tz|: where the terms cancel, as in the real
part of a norm warp, the value is far smaller than the terms.
"""

import tracemalloc

import numpy as np
import pytest

import wigner as wg
from oracles import reference_isometry, reference_preservation
from wigner.errors import MAX_SAMPLES, NotASymmetry, SchemaError
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


def assert_columns_close(columns, columns_ref, images, where):
    # each entry within 1e-13 * max(1, |reference|, |w||z| + |Tw||Tz|)
    image_norms = np.linalg.norm(images, axis=-1).prod(axis=1)
    assert columns.shape == columns_ref.shape == (len(image_norms), 4), where
    scale = (columns_ref[:, 0] * columns_ref[:, 1] + image_norms)[:, None]
    bound = 1e-13 * np.maximum(np.maximum(1.0, np.abs(columns_ref)), scale)
    close = np.abs(columns - columns_ref) <= bound
    assert close.all(), (where, np.argwhere(~close), columns[~close], columns_ref[~close])


@pytest.mark.parametrize("num_pairs", (1, 50, 333))
@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_array_sampler_matches_the_loop(sampler, n, num_pairs):
    # The oracle evaluates every pair in one batch. The sampler evaluates the
    # specials first; on a pass the random pairs follow as a second batch,
    # on a failure it stops, and its listing is the oracle's specials.
    sample, reference, maps = SAMPLERS[sampler]
    for seed in SEEDS:
        for name, transform in maps(n, seed).items():
            watched, batches = recorded(transform)
            report = sample(watched, num_pairs, seed, TOL)
            watched_ref, batches_ref = recorded(transform)
            labels_ref, columns_ref, passed_ref = reference(watched_ref, num_pairs, seed, TOL)
            where = (name, seed)
            assert len(batches_ref) == 1, where
            specials = labels_ref.index("random")
            if columns_ref[:specials, -1].max() < TOL:
                sizes = [2 * specials, len(batches_ref[0]) - 2 * specials]
                assert [len(b) for b in batches] == sizes, where
                assert np.array_equal(np.concatenate(batches), batches_ref[0]), where
            else:
                assert [len(b) for b in batches] == [2 * specials], where
                assert np.array_equal(batches[0], batches_ref[0][: 2 * specials]), where
                labels_ref, columns_ref = labels_ref[:specials], columns_ref[:specials]
            assert all(b.dtype == batches_ref[0].dtype for b in batches), where
            assert report.labels == labels_ref, where
            assert report.pairs_tested == len(labels_ref), where
            assert report.passed == passed_ref, where
            assert report.max_deviation == report.columns[:, -1].max(), where
            images = transform(np.concatenate(batches)).reshape(-1, 2, n)
            assert_columns_close(report.columns, columns_ref, images, where)


def radial_defect(n, radius):
    """The identity inside the ball of `radius`, 2z outside it: every special
    pair inside the ball passes, a random pair reaching past it fails."""

    def evaluator(z):
        outside = np.linalg.norm(z, axis=-1, keepdims=True) > radius
        return np.where(outside, 2.0 * z, z)

    return wg.Transformation(evaluator, n, vectorized=True)


# seeds whose 50 random pairs reach past every special point (the scaled
# parallel pair, 2.5 times a Gaussian vector, is often the farthest)
@pytest.mark.parametrize("n, seed", ((1, 0), (2, 1), (8, 18)))
def test_a_defect_only_random_pairs_reach_fails_in_the_second_batch(n, seed):
    num_pairs = 50
    labels_ref, columns_ref, _ = reference_preservation(
        wg.make_symmetry("linear", np.eye(n)), 1, seed, TOL
    )
    specials = columns_ref[: labels_ref.index("random")]
    radius = specials[:, :2].max()
    defect = radial_defect(n, radius)
    watched, batches = recorded(defect)
    report = wg.check_preservation(watched, num_pairs, seed, TOL)
    # every special point lies in the ball, and some random point outside it
    assert [len(b) for b in batches] == [2 * len(specials), 2 * num_pairs]
    assert np.linalg.norm(batches[0], axis=-1).max() <= radius
    assert np.linalg.norm(batches[1], axis=-1).max() > radius
    assert not report.passed
    assert report.pairs_tested == len(specials) + num_pairs
    columns = report.columns
    assert columns[: len(specials), -1].max() == 0.0
    assert report.max_deviation == columns[len(specials) :, -1].max() > 1.0
    _, columns_ref, passed_ref = reference_preservation(defect, num_pairs, seed, TOL)
    assert not passed_ref
    images = defect(np.concatenate(batches)).reshape(-1, 2, n)
    assert_columns_close(columns, columns_ref, images, n)
    with pytest.raises(NotASymmetry) as refused:
        wg.classify(defect, wg.ClassifyConfig(samples=num_pairs, seed=seed))
    assert refused.value.report.pairs_tested == report.pairs_tested


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
