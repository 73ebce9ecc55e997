"""Deterministic generators: Haar unitaries, dressed symmetries, adversaries,
and the fuzz corpus manifest.

Generated transformations carry their ground truth (kind and matrix) in
`Transformation.ground_truth` for the harness to compare against after
classification; analysis code never reads it.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import ANTILINEAR, DIMENSION_CAP, LINEAR, unitarity_residual
from .errors import DimensionMismatch, NotUnitaryInput, SchemaError, require_settings
from .states import Transformation, as_array

SYMMETRY_KINDS = (LINEAR, ANTILINEAR)
ADVERSARY_KINDS = ("scaling", "shear", "norm_warp", "rank_deficient")

DRESSING_RIDGES = 2

# manifest entries evolve dressing seeds away from the matrix seed
_DRESSING_SEED_OFFSET = 500009


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix.

    Columns are rescaled so the R diagonal is real positive, which removes
    the QR phase ambiguity and makes the distribution exactly Haar.
    Deterministic per seed.
    """
    require_settings({"n": n, "seed": seed})
    rng = np.random.default_rng(seed)
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """Real counterpart of `haar_unitary` (sign-fixed QR of a real Gaussian)."""
    require_settings({"n": n, "seed": seed})
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


@dataclass(frozen=True)
class DressingSpec:
    """A smooth real phase alpha(z), polynomial in the 2n real coordinates.

    Represented as a sum of ridge terms: alpha(z) = sum_r p_r(d_r . x)
    where x = (Re z, Im z), each d_r is a unit direction and p_r a dense
    univariate polynomial of the given degree with coefficients drawn
    uniform in [-1, 1], evaluated in Horner form. Unit directions keep the
    ridge variable O(1) regardless of dimension.
    """

    degree: int
    directions: np.ndarray  # (DRESSING_RIDGES, 2n), unit rows
    coefficients: np.ndarray  # (DRESSING_RIDGES, degree + 1), ascending powers

    @classmethod
    def random(cls, n: int, degree: int, seed: int) -> "DressingSpec":
        require_settings({"n": n, "seed": seed, "degree": degree})
        rng = np.random.default_rng(seed)
        directions = rng.uniform(-1.0, 1.0, size=(DRESSING_RIDGES, 2 * n))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        directions = directions / np.where(norms < 1e-12, 1.0, norms)
        coefficients = rng.uniform(-1.0, 1.0, size=(DRESSING_RIDGES, degree + 1))
        return cls(degree=degree, directions=directions, coefficients=coefficients)

    def __call__(self, z: np.ndarray):
        """alpha at a point (a float) or at each row of an (m, n) batch."""
        x = np.concatenate([z.real, z.imag], axis=-1)
        # einsum, not a matrix product, so a row's ridge values do not
        # depend on the batch it came in
        ridge = np.einsum("...k,rk->...r", x, self.directions)
        value = 0.0
        for c in self.coefficients[:, ::-1].T:  # Horner, highest power first
            value = value * ridge + c
        total = value.sum(axis=-1)
        return float(total) if z.ndim == 1 else total


def make_symmetry(kind: str, matrix, dressing: "DressingSpec | None" = None) -> Transformation:
    """Build z -> exp(i*alpha(z)) * U z (linear) or ... * U conj(z) (antilinear).

    `dressing` is the phase alpha as a DressingSpec, or None for no
    dressing. The matrix must be unitary within 1e-10. The map is
    vectorized.
    """
    if kind not in SYMMETRY_KINDS:
        raise SchemaError(f"kind must be one of {SYMMETRY_KINDS}, got {kind!r}")
    if dressing is not None and not isinstance(dressing, DressingSpec):
        raise SchemaError(f"dressing must be a DressingSpec or None, got {type(dressing).__name__}")
    u = as_array(matrix, "matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size:
        raise DimensionMismatch(f"matrix must be square and non-empty, got shape {u.shape}")
    n = u.shape[0]
    NotUnitaryInput.unless_below(unitarity_residual(u), 1e-10, "|U*U - I| =")

    flip = np.conj if kind == ANTILINEAR else np.asarray
    if dressing is None:
        evaluator = lambda z: flip(z) @ u.T
    else:
        evaluator = lambda z: np.exp(1j * dressing(z))[..., None] * (flip(z) @ u.T)

    degree = None if dressing is None else dressing.degree
    return Transformation(
        evaluator=evaluator,
        dimension=n,
        ground_truth={"kind": kind, "matrix": u, "dressing_degree": degree},
        vectorized=True,
    )


def make_adversary(kind: str, n: int, seed: int) -> Transformation:
    """A smooth map that provably violates modulus preservation.

    scaling (2z), norm_warp (z*(1+|z|^2)) and rank_deficient (projection
    onto the first coordinate) are fixed maps; only the shear strength
    varies with the seed. shear and rank_deficient need n >= 2.
    """
    if kind not in ADVERSARY_KINDS:
        raise SchemaError(f"kind must be one of {ADVERSARY_KINDS}, got {kind!r}")
    require_settings({"n": n, "seed": seed})
    if kind in ("shear", "rank_deficient") and n < 2:
        raise DimensionMismatch(f"{kind} needs dimension >= 2")

    if kind == "scaling":
        evaluator = lambda z: 2.0 * z
    elif kind == "shear":
        strength = 0.5 + np.random.default_rng(seed).uniform(0.0, 1.0)
        shear = np.eye(n, dtype=np.complex128)
        shear[0, 1] = strength
        evaluator = lambda z: z @ shear.T
    elif kind == "norm_warp":
        evaluator = lambda z: z * (
            1.0 + (z.real**2 + z.imag**2).sum(axis=-1, keepdims=True)
        )
    else:  # rank_deficient
        def evaluator(z):
            out = np.zeros_like(z)
            out[..., 0] = z[..., 0]
            return out

    return Transformation(
        evaluator=evaluator, dimension=n, ground_truth={"kind": kind}, vectorized=True
    )


def default_manifest() -> list[dict]:
    """Built-in fuzz corpus: 40 dressed symmetries (dims 2-8) + 10 adversaries."""
    entries = []
    for i in range(40):
        entries.append(
            {
                "kind": LINEAR if i < 20 else ANTILINEAR,
                "n": 2 + i % 7,
                "seed": 9000 + i,
                "dressing_degree": i % 4,
            }
        )
    for j in range(10):
        entries.append(
            {
                "kind": ADVERSARY_KINDS[j % 4],
                "n": 2 + j % 7,
                "seed": 77000 + j,
            }
        )
    return entries


_ENTRY_KEYS = {"kind", "n", "seed", "dressing_degree"}


def validate_manifest(obj) -> list[dict]:
    """Check a parsed manifest against the corpus schema.

    The manifest is a non-empty JSON list of entries {kind, n, seed,
    dressing_degree?} with no other key: n in 1..DIMENSION_CAP, seed a
    non-negative integer, dressing_degree in 0..MAX_DRESSING_DEGREE
    (default 0), bounded for every kind though only symmetry kinds are
    dressed. Raises SchemaError with the offending index (and the first
    unknown key in sorted order), before any map is built.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError("manifest must be a non-empty list of entries")
    known = SYMMETRY_KINDS + ADVERSARY_KINDS
    entries = []
    for idx, raw in enumerate(obj):
        if not isinstance(raw, dict):
            raise SchemaError(f"entry {idx} is not an object")
        unknown = sorted(raw.keys() - _ENTRY_KEYS, key=str)
        if unknown:
            raise SchemaError(f"entry {idx}: unknown key {unknown[0]!r}")
        kind = raw.get("kind")
        if kind not in known:
            raise SchemaError(f"entry {idx}: unknown kind {kind!r}")
        n, seed, degree = raw.get("n"), raw.get("seed"), raw.get("dressing_degree", 0)
        settings = {"n": n, "seed": seed, "dressing_degree": degree}
        require_settings(settings, lambda name: f"entry {idx}: {name}")
        if n > DIMENSION_CAP:
            raise SchemaError(f"entry {idx}: n = {n} exceeds the dimension cap {DIMENSION_CAP}")
        if kind in ("shear", "rank_deficient") and n < 2:
            raise SchemaError(f"entry {idx}: {kind} needs n >= 2")
        entries.append({"kind": kind, "n": n, "seed": seed, "dressing_degree": degree})
    return entries


def transformation_from_entry(entry: dict) -> Transformation:
    """Instantiate a validated manifest entry."""
    kind = entry["kind"]
    n = entry["n"]
    seed = entry["seed"]
    if kind in SYMMETRY_KINDS:
        matrix = haar_unitary(n, seed)
        degree = entry.get("dressing_degree", 0)
        dressing = (
            DressingSpec.random(n, degree, seed + _DRESSING_SEED_OFFSET)
            if degree > 0
            else None
        )
        return make_symmetry(kind, matrix, dressing)
    return make_adversary(kind, n, seed)
