"""State vectors and evaluatable transformations on C^n."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteEvaluation


def as_state(z, dim: int | None = None, dtype=np.complex128) -> np.ndarray:
    """Coerce `z` to a finite 1-D vector of `dtype`, checking its dimension."""
    arr = np.atleast_1d(np.asarray(z, dtype=dtype))
    if arr.ndim != 1:
        raise DimensionMismatch(f"state must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise NonFiniteEvaluation("state vector has non-finite components")
    return arr


def zero_state(dim: int) -> np.ndarray:
    return np.zeros(dim, dtype=np.complex128)


def basis_state(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian vector (each component CN(0, 1))."""
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)


@dataclass
class Transformation:
    """An evaluatable map z -> T(z) on C^n.

    A call takes one point of shape (n,) or a batch of m points of shape
    (m, n) and returns images of the same shape. Points and images are
    arrays of the class attribute `dtype`, complex128 here; a subclass
    for a real space sets float64. Every call coerces the points and the
    evaluator's result to `dtype` and checks their width, shape and
    finiteness. With `vectorized` set the evaluator receives the batch
    whole and must map each row (the last axis) on its own; otherwise it
    is called once per row, so a per-point evaluator such as
    `lambda z: u @ z` stays correct on a batch. The evaluator must be
    deterministic and safe to call from several threads at once.
    `ground_truth` is generator bookkeeping (the kind and matrix an
    instance was built from); analysis code never reads it.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dimension: int
    ground_truth: dict | None = None
    vectorized: bool = False

    dtype = np.complex128

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionMismatch("dimension must be at least 1")

    def __call__(self, z) -> np.ndarray:
        zv = np.asarray(z, dtype=self.dtype)
        if zv.ndim == 0:
            zv = zv.reshape(1)
        if zv.ndim > 2 or zv.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"expected points of dimension {self.dimension}, got shape {zv.shape}"
            )
        if not np.isfinite(zv).all():
            raise NonFiniteEvaluation("state vector has non-finite components")
        if zv.ndim == 1 or self.vectorized:
            out = np.asarray(self.evaluator(zv), dtype=self.dtype)
        else:
            out = np.empty_like(zv)
            for k, row in enumerate(zv):
                image = np.asarray(self.evaluator(row), dtype=self.dtype)
                _check_shape(image, row.shape)
                out[k] = image
        _check_shape(out, zv.shape)
        if not np.isfinite(out).all():
            raise NonFiniteEvaluation("evaluator returned non-finite components")
        return out


def _check_shape(out: np.ndarray, expected: tuple) -> None:
    if out.shape != expected:
        raise DimensionMismatch(f"evaluator returned shape {out.shape}, expected {expected}")
