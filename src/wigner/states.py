"""State vectors and evaluatable transformations on C^n, fed only through `as_array`."""

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteEvaluation, NotRealMap, SchemaError, require_settings

REAL_TOL = 1e-9  # largest imaginary part that a value for a real array may have
_NOT_NUMBERS = (str, bytes, type(None))  # numpy would read "1" as 1 and None as NaN


def as_array(value, what: str, dtype=np.complex128) -> np.ndarray:
    """`value` as an array of `dtype`. SchemaError, naming `what`, unless it is
    numeric (no string, bytes or None value is, not even "1") and within float range;
    for a real `dtype`, NotRealMap unless every |imaginary part| < REAL_TOL."""
    arr, kind = None, "numeric"
    try:
        arr = np.asarray(value)
        if arr.dtype == dtype:
            return arr
        if arr.dtype.kind == "O" and not any(isinstance(v, _NOT_NUMBERS) for v in arr.flat):
            arr = arr.astype(np.complex128)  # Python ints past int64, complex values
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's words for "not a number"
        kind = "within float range" if isinstance(exc, OverflowError) else "numeric"
    if arr is None or arr.dtype.kind not in "biufc":
        raise SchemaError(f"{what} must be {kind}, got {type(value).__name__}")
    if arr.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        NotRealMap.unless_below(np.abs(arr.imag).max(initial=0.0), REAL_TOL, f"|Im {what}| =")
        arr = arr.real
    return arr.astype(dtype, copy=False)


def as_state(z, dim: int | None = None, dtype=np.complex128) -> np.ndarray:
    """Coerce `z` to a finite 1-D vector of `dtype`, checking its dimension."""
    arr = np.atleast_1d(as_array(z, "state", dtype))
    if arr.ndim != 1:
        raise DimensionMismatch(f"state must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise NonFiniteEvaluation("state vector has non-finite components")
    return arr


def zero_state(dim: int) -> np.ndarray:
    return np.zeros(dim, dtype=np.complex128)


def random_state(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Standard complex Gaussian vectors (each component CN(0, 1)) of shape
    `shape + (dim,)`, from one draw that takes the real, then the imaginary
    parts of each vector in turn: bit for bit one call per vector.
    SchemaError unless `dim` is an integer of 1 or more and `shape` a tuple
    of non-negative integers."""
    require_settings({"n": dim}, lambda name: "dim")
    if not isinstance(shape, tuple):
        raise SchemaError(f"shape must be a tuple, got {type(shape).__name__}")
    for extent in shape:
        require_settings({"extent": extent}, lambda name: "shape entry")
    draw = rng.standard_normal((*shape, 2, dim))
    # filled in place: `(re + 1j * im) / sqrt(2)` would hold two more such arrays
    z = draw[..., 0, :].astype(np.complex128)
    z.imag = draw[..., 1, :]
    z /= np.sqrt(2.0)
    return z


@dataclass
class Transformation:
    """An evaluatable map z -> T(z) on C^n.

    A call takes one point of shape (n,) or a batch of m points of shape
    (m, n) and returns images of the same shape. Points and images are
    arrays of the class attribute `dtype`, complex128 here; a subclass for
    a real space sets float64. A call checks its points' width and
    finiteness, and each evaluator result once, in turn: its shape must be
    the points' shape, it must be finite (an overflow is refused, unwarned,
    as non-finite), and it must be of `dtype` (for float64, NotRealMap at
    an imaginary part of REAL_TOL or more). With `vectorized` set the
    evaluator receives the batch whole and must map each row (the last
    axis) on its own; otherwise the call runs itself on each row, so a
    per-point evaluator such as `lambda z: u @ z` stays correct on a batch,
    and a bad image is refused at its row, before later rows run. The
    evaluator must be deterministic and safe to call from several threads
    at once. `ground_truth` is generator bookkeeping (the kind and matrix
    an instance was built from) that analysis never reads.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dimension: int
    ground_truth: dict | None = None
    vectorized: bool = False

    dtype = np.complex128

    def __post_init__(self):
        # an integer below 1 is a shape problem, any other bad value a schema one
        if isinstance(self.dimension, Integral) and self.dimension < 1:
            raise DimensionMismatch("dimension must be at least 1")
        require_settings({"n": self.dimension}, lambda name: "dimension")

    def __call__(self, z) -> np.ndarray:
        zv = as_array(z, "point", self.dtype)
        if zv.ndim == 0:
            zv = zv.reshape(1)
        if zv.ndim > 2 or zv.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"expected points of dimension {self.dimension}, got shape {zv.shape}"
            )
        if not np.isfinite(zv).all():
            raise NonFiniteEvaluation("state vector has non-finite components")
        if zv.ndim == 2 and not self.vectorized:
            out = np.empty_like(zv)
            for k, row in enumerate(zv):
                out[k] = self(row)
            return out
        with np.errstate(all="ignore"):  # an overflow is refused below, as non-finite
            out = self.evaluator(zv)
            if getattr(out, "dtype", None) != self.dtype:  # checked as complex, cast below
                out = as_array(out, "image")
        if out.shape != zv.shape:
            raise DimensionMismatch(f"evaluator returned shape {out.shape}, expected {zv.shape}")
        if not np.isfinite(out).all():
            raise NonFiniteEvaluation("evaluator returned non-finite components")
        return as_array(out, "image", self.dtype)
