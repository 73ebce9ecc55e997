"""Exact counts of the base-map points each analysis pipeline evaluates.

Points, not evaluator calls, are counted: an (m, n) batch counts m, so
the pins do not depend on how the pipelines batch their points. The
counts are deterministic and do not depend on the machine. A change that
alters one must update the pin and say why.
"""

import numpy as np
import pytest

import wigner as wg
from wigner import dsl
from wigner.cli import main
from wigner.errors import NotASymmetry

ROTATION = (
    "dim 2;\n"
    "T1 = 0.7071067811865476 * z1 - 0.7071067811865476 * z2;\n"
    "T2 = 0.7071067811865476 * z1 + 0.7071067811865476 * z2;\n"
)


def count_points(transform):
    """Wrap the evaluator of `transform`; the returned list holds the point count."""
    points = [0]
    inner = transform.evaluator

    def evaluator(z):
        points[0] += len(z) if np.ndim(z) == 2 else 1
        return inner(z)

    transform.evaluator = evaluator
    return points


def test_classify_dressed_linear_n4():
    transform = wg.make_symmetry(
        "linear", wg.haar_unitary(4, 7), wg.DressingSpec.random(4, 2, 8)
    )
    points = count_points(transform)
    assert wg.classify(transform).branch == "linear"
    assert points[0] == 1039


def test_classify_scaling_rejected():
    transform = wg.make_adversary("scaling", 4, 1)
    points = count_points(transform)
    with pytest.raises(NotASymmetry):
        wg.classify(transform)
    assert points[0] == 116


def test_reconstruct_orthogonal_n4():
    q = wg.haar_orthogonal(4, 7)
    transform = wg.RealTransformation(lambda u: q @ u, 4)
    points = count_points(transform)
    assert np.abs(wg.reconstruct_orthogonal(transform).matrix - q).max() < 1e-9
    # 2 x 103 isometry pairs, the origin, 3 real Jacobians of 8, 50 points
    assert points[0] == 281


def test_cli_mazur_ulam_checks_isometry_once(tmp_path, monkeypatch, capsys):
    compile_spec = dsl.compile_to_transformation
    counters = []

    def compile_counted(spec, constants=None):
        transform = compile_spec(spec, constants)
        counters.append(count_points(transform))
        return transform

    monkeypatch.setattr(dsl, "compile_to_transformation", compile_counted)
    spec = tmp_path / "rotation.wig"
    spec.write_text(ROTATION)
    assert main(["mazur-ulam", "--spec", str(spec)]) == 0
    capsys.readouterr()
    # 2 x 53 isometry pairs, the origin, 3 real Jacobians of 4, 50 points;
    # checking the isometry twice would add another 106
    assert [c[0] for c in counters] == [169]
