"""Exact counts of the base-map points each analysis pipeline evaluates,
and of the steps a compiled spec runs per batch.

Points are counted: an (m, n) batch counts m, so the point pins do not
depend on how the pipelines batch their points. One pin counts evaluator
calls as well, which is how batching shows. The counts are deterministic
and do not depend on the machine. A change that alters one must update
the pin and say why.
"""

from pathlib import Path

import numpy as np
import pytest

import wigner as wg
from wigner import classifier, dsl
from wigner.cli import main
from wigner.errors import NotASymmetry
from wigner.gauge import PRESERVE_TOL

CORPUS = Path(__file__).parent / "corpus"
# the shape of the benchmark's dressed specs: exp(i alpha(z)) U z, alpha
# three linear and two bilinear terms in Re/Im z, repeated in every output
PHASE = "0.1*re(z1) - 0.2*im(z3) + 0.3*re(z5) + 0.4*re(z2)*im(z7) - 0.25*re(z4)*im(z8)"
DRESSED_N8 = "dim 8;\n" + "".join(f"T{k} = expi({PHASE}) * mat(U);\n" for k in range(1, 9))

ROTATION = (
    "dim 2;\n"
    "T1 = 0.7071067811865476 * z1 - 0.7071067811865476 * z2;\n"
    "T2 = 0.7071067811865476 * z1 + 0.7071067811865476 * z2;\n"
)


def count_points(transform):
    """Wrap the evaluator of `transform`; the returned list holds the point
    count, then the call count."""
    points = [0, 0]
    inner = transform.evaluator

    def evaluator(z):
        points[0] += len(z) if np.ndim(z) == 2 else 1
        points[1] += 1
        return inner(z)

    transform.evaluator = evaluator
    return points


def test_classify_dressed_linear_n4():
    transform = wg.make_symmetry(
        "linear", wg.haar_unitary(4, 7), wg.DressingSpec.random(4, 2, 8)
    )
    counts = count_points(transform)
    assert wg.classify(transform).branch == "linear"
    assert counts[0] == 1039
    # Calls: each fixed-map evaluation is one base call, plus one probe call
    # when some row misses the memo (at most 64 misses per probe call, and
    # no batch here misses more). Each Wirtinger stencil is one fixed-map
    # evaluation, and so are the self-check's 8 x 4 probe points. 21 =
    # 2 preservation (the specials, then the random pairs) + 1 origin
    # + 2 self-check + 2 x 2 Richardson + 2 reconstruction + 3 x 2
    # constancy + (1 + 1 + 2) smoothness, where the smoothness stencils at
    # step and step/2 hit the memo. With two
    # stencil calls per Jacobian and one self-check call per sample it took
    # 48 = 1 + 1 + 8 x 2 + 4 x 2 + 2 + 6 x 2 + (4 + 2 x 2), and probing each
    # miss on its own 205 = 1 + 1 + 40 + 36 + 51 + 54 + 22, and with all
    # preservation pairs in one call 20.
    assert counts[1] == 21


def test_classify_scaling_rejected():
    transform = wg.make_adversary("scaling", 4, 1)
    points = count_points(transform)
    with pytest.raises(NotASymmetry):
        wg.classify(transform)
    # the special pairs alone, 2 x (1 zero + 4 basis + 1 orthogonal + 2
    # parallel); the failed specials stop the check before the 50 random
    # pairs, whose 100 points the pin counted too at 116
    assert points[0] == 16


def test_classify_scaling_rejected_at_the_dimension_cap():
    transform = wg.make_adversary("scaling", classifier.DIMENSION_CAP, 1)
    points = count_points(transform)
    with pytest.raises(NotASymmetry):
        wg.classify(transform)
    # 136 = 2 x (1 zero + 64 basis + 1 orthogonal + 2 parallel), all the
    # specials in 1 call; the failed specials stop the check there
    assert points == [136, 1]


def test_check_preservation_n1_has_no_orthogonal_pair():
    transform = wg.make_adversary("scaling", 1, 1)
    points = count_points(transform)
    report = wg.check_preservation(transform, 50, 0, PRESERVE_TOL)
    assert not report.passed
    assert report.labels == ["zero", "basis", "parallel", "parallel_scaled"]
    # 8 = 2 x (1 zero + 1 basis + 2 parallel) in 1 call: C^1 holds no
    # orthogonal pair of basis vectors
    assert points == [8, 1]


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


def program_steps(source: str, constants=None) -> int:
    return len(dsl._program(dsl.parse(source).outputs, constants)[1])


def test_dressed_n8_program_evaluates_the_phase_once():
    # 7 columns z_j, 7 re/im, 7 products, 4 sums and one expi make the
    # phase; one U z, 8 columns of it and 8 products finish the outputs.
    # Evaluated tree by tree, the batch took 8 x 28 node evaluations and U z.
    assert program_steps(DRESSED_N8, {"U": np.eye(8)}) == 43


def test_corpus_dressed_mat_program():
    # z1, re, expi, U z, then a column of U z and a product per output
    source = (CORPUS / "nonanal_dressed_mat.wig").read_text()
    assert program_steps(source, dsl.load_constants(CORPUS / "constants.json")) == 8
