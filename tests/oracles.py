"""Test-only oracles, independent of the numerical differentiation path.

`jacobian_oracle` differentiates expression trees symbolically in forward
mode: each node evaluates to (value, grad_z, grad_zbar) where the
gradients are n-vectors of partial derivatives with respect to z_k and
conj(z_k), treating them as independent variables. The conjugation rule
swaps and conjugates the gradient pair; re/im/abs2/norm2 expand through
it. This never touches finite differences, so it anchors the numerical
engine. `value_oracle` reads the values off the same recursion, one point
at a time in Python complex arithmetic (cmath), so it also anchors the
compiled evaluator; like it, a divisor of modulus below 1e-300 raises
DivisionNearZero. `rounding_spread` carries the rounding of each matrix
product through the same recursion, to bound how far a one-row and a
batched evaluation may part.

`reference_preservation` and `reference_isometry` are the pair samplers
written as a loop: one draw per vector, then one radius per random vector,
one row (norm_w, norm_z, expected, deviation) per pair, with `np.vdot` and
`np.linalg.norm` on each pair. The array samplers must draw the same
points and agree with them to roundoff.

`reference_origin_phase` is `gauge.origin_phase` as first written: it
re-validates the point with `as_state` and reads the three probe phases
in a loop with numpy-scalar probe scales. Its one change since is that a
probe ratio follows the one pass rule: a deviation equal to the
tolerance fails, and so does a NaN. The scalar reading must return the
same floats and raise the same errors wherever this one is defined.

`reference_wirtinger_jacobian` is the two-call stencil: one evaluator
call for the +-h offsets along the real axes, then one for the +-i*h
offsets along the imaginary axes. The one-batch stencil evaluates the
same points and must agree with it to roundoff.

`reference_smoothness` is the smoothness diagnostic as first written,
three Jacobians subtracted block by block; the diagnostic that reads the
differences of one step-halving ladder must give the same floats.

`hash_phase_symmetry` is not an oracle but a map every check must face:
a true Wigner symmetry whose phase is continuous nowhere, outside the
paper's smoothness hypothesis.
"""

import cmath
import hashlib
import math

import numpy as np

from wigner.dsl import BinOp, Call, Literal, MatApply, Neg, TransformSpec, Var, walk
from wigner.errors import DivisionNearZero, NotProbabilityPreserving
from wigner.gauge import _PROBES, PRESERVE_TOL, wrap_angle
from wigner.states import Transformation, as_state
from wigner.wirtinger import wirtinger_jacobian


def _forward(node, z, row, mats):
    n = len(z)
    zero = np.zeros(n, dtype=complex)
    if isinstance(node, Literal):
        return node.value, zero.copy(), zero.copy()
    if isinstance(node, Var):
        g = zero.copy()
        g[node.index - 1] = 1.0
        return complex(z[node.index - 1]), g, zero.copy()
    if isinstance(node, Neg):
        v, g, h = _forward(node.operand, z, row, mats)
        return -v, -g, -h
    if isinstance(node, MatApply):
        m = mats[node.name]
        return complex((m @ z)[row]), m[row, :].astype(complex), zero.copy()
    if isinstance(node, BinOp):
        v1, g1, h1 = _forward(node.left, z, row, mats)
        v2, g2, h2 = _forward(node.right, z, row, mats)
        if node.op == "+":
            return v1 + v2, g1 + g2, h1 + h2
        if node.op == "-":
            return v1 - v2, g1 - g2, h1 - h2
        if node.op == "*":
            return v1 * v2, v1 * g2 + v2 * g1, v1 * h2 + v2 * h1
        if abs(v2) < 1e-300:
            raise DivisionNearZero("divisor modulus below 1e-300", *node.pos)
        q = v1 / v2
        return q, (g1 - q * g2) / v2, (h1 - q * h2) / v2
    func = node.func
    if func == "norm2":
        return complex(np.vdot(z, z).real), np.conj(z).astype(complex), z.astype(complex)
    v, g, h = _forward(node.args[0], z, row, mats)
    if func == "conj":
        return v.conjugate(), np.conj(h), np.conj(g)
    if func == "re":
        return complex(v.real), (g + np.conj(h)) / 2.0, (h + np.conj(g)) / 2.0
    if func == "im":
        return (
            complex(v.imag),
            (g - np.conj(h)) / 2.0j,
            (h - np.conj(g)) / 2.0j,
        )
    if func == "abs2":
        vbar = v.conjugate()
        return (
            complex(v.real * v.real + v.imag * v.imag),
            vbar * g + v * np.conj(h),
            vbar * h + v * np.conj(g),
        )
    if func == "exp":
        e = cmath.exp(v)
        return e, e * g, e * h
    if func == "sin":
        return cmath.sin(v), cmath.cos(v) * g, cmath.cos(v) * h
    if func == "cos":
        return cmath.cos(v), -cmath.sin(v) * g, -cmath.sin(v) * h
    # expi
    e = cmath.exp(1j * v)
    return e, 1j * e * g, 1j * e * h


def matrix_names(spec: TransformSpec) -> frozenset:
    """The names of the matrices that `spec` applies."""
    return frozenset(
        node.name for out in spec.outputs for node in walk(out) if isinstance(node, MatApply)
    )


def _matrices(spec: TransformSpec, constants) -> dict:
    return {
        name: np.asarray((constants or {})[name], dtype=complex)
        for name in matrix_names(spec)
    }


def value_oracle(spec: TransformSpec, z, constants=None) -> np.ndarray:
    """T(z) of a parsed spec at one point z, tree by tree."""
    z = np.asarray(z, dtype=complex)
    mats = _matrices(spec, constants)
    return np.array([_forward(tree, z, k, mats)[0] for k, tree in enumerate(spec.outputs)])


def subterm_values(spec: TransformSpec, z, constants=None) -> list:
    """(k, node, value at z) for every subterm `node` of every output tree T_k."""
    z = np.asarray(z, dtype=complex)
    mats = _matrices(spec, constants)
    return [
        (k, sub, _forward(sub, z, k, mats)[0])
        for k, tree in enumerate(spec.outputs)
        for sub in walk(tree)
    ]


EPS = float(np.finfo(float).eps)
# an evaluation of one subterm rounds its result within 2 ulps of the value
# (numpy's complex exp, sin, cos and division included; an ulp is the
# spacing of floats at the value, which stops shrinking among subnormals),
# so two evaluations from moved operands part by up to this many ulps more
# than the move itself
NODE_ULPS = 4.0


def _spread(node, z, row, mats):
    """(value, bound): the subterm `node` of T_row at z, and how far apart two
    evaluations of it may lie whose only difference is how each rounds its
    matrix products. The bound follows each step's derivative exactly."""
    v = _forward(node, z, row, mats)[0]
    if isinstance(node, MatApply):
        # each product row is a complex inner product of length n, within
        # (n + 2) eps / 2 times sum_j |M_kj| |z_j| of the exact row, so the
        # two differ by at most twice that
        return v, (len(z) + 2) * EPS * float(np.abs(mats[node.name][row]) @ np.abs(z))
    if isinstance(node, (Literal, Var)) or (isinstance(node, Call) and not node.args):
        return v, 0.0  # no matrix product below a literal, a variable or norm2()
    if isinstance(node, BinOp):
        v1, e1 = _spread(node.left, z, row, mats)
        v2, e2 = _spread(node.right, z, row, mats)
        moved = e1 > 0.0 or e2 > 0.0
        if node.op in "+-":
            e = e1 + e2
        elif node.op == "*":
            e = abs(v1) * e2 + abs(v2) * e1 + e1 * e2
        else:
            e = (e1 + abs(v) * e2) / (abs(v2) - e2) if abs(v2) > e2 else math.inf
    else:
        a, e = _spread(node.operand if isinstance(node, Neg) else node.args[0], z, row, mats)
        moved = e > 0.0
        func = None if isinstance(node, Neg) else node.func
        if func == "abs2":
            e = 2.0 * abs(a) * e + e * e
        elif func in ("exp", "expi"):
            e = abs(v) * math.expm1(e)  # every derivative is at most |v|
        elif func in ("sin", "cos"):
            e = max(abs(cmath.sin(a)), abs(cmath.cos(a))) * math.expm1(e)
        # minus, conj, re and im move by the move of their operand
    # the rounding of a moved operand counts even where its carried move underflows
    return v, (e + NODE_ULPS * float(np.spacing(abs(v)))) if moved else 0.0


def rounding_spread(spec: TransformSpec, z, constants=None) -> np.ndarray:
    """Bound, output by output, on how far two compiled evaluations of T at z
    may lie apart when they differ only in how they round their matrix
    products, as BLAS does for one row (gemv) and for a batch (gemm): the
    rounding of each product row, carried through the tree by each step's
    derivative, whose size the subterm magnitudes give (|e^a| for exp(a),
    |v_2| for v_1 * v_2, ...). Raises as `value_oracle` does where cmath
    overflows or a divisor vanishes."""
    z = np.asarray(z, dtype=complex)
    mats = _matrices(spec, constants)
    return np.array([_spread(tree, z, k, mats)[1] for k, tree in enumerate(spec.outputs)])


def jacobian_oracle(spec: TransformSpec, z, constants=None):
    """Exact (d_z, d_zbar) of a parsed spec at z; row k differentiates T_k."""
    z = np.asarray(z, dtype=complex)
    mats = _matrices(spec, constants)
    n = spec.dimension
    d_z = np.empty((n, n), dtype=complex)
    d_zbar = np.empty((n, n), dtype=complex)
    for k, tree in enumerate(spec.outputs):
        _, g, h = _forward(tree, z, k, mats)
        d_z[k, :] = g
        d_zbar[k, :] = h
    return d_z, d_zbar


def directional_derivative(transform, z, delta, t=1e-6):
    """Central-difference derivative of s -> T(z + s*delta) at s = 0."""
    return (transform(z + t * delta) - transform(z - t * delta)) / (2.0 * t)


def _reference_state(n, rng):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def _reference_pairs(transform, pairs, product, tol):
    """(labels, columns, passed) for (label, w, z) pairs, with one columns row
    (norm_w, norm_z, expected, deviation) per pair; all 2P points in one
    batch, ordered w0, z0, w1, z1, ..."""
    images = transform(np.array([p for _, w, z in pairs for p in (w, z)]))
    rows = []
    for (_, w, z), tw, tz in zip(pairs, images[0::2], images[1::2]):
        expected = product(w, z)
        rows.append((np.linalg.norm(w), np.linalg.norm(z), expected, abs(product(tw, tz) - expected)))
    columns = np.array(rows)
    return [label for label, _, _ in pairs], columns, bool(columns[:, -1].max() < tol)


def _at_every_scale(directions, rng):
    """Each direction scaled to one radius 10^U(-2, 2), drawn in turn after
    them all. np.power runs the ufunc loop of `10.0 ** array`, where a Python
    `**` on a numpy scalar calls libm pow and may differ in the last bit."""
    scaled = []
    for z in directions:
        reals = z.view(np.float64)
        radius = np.power(10.0, rng.uniform(-2.0, 2.0))
        scaled.append(z * (radius / np.sqrt(np.einsum("k,k->", reals, reals))))
    return scaled


def reference_preservation(transform, num_pairs, seed, tol):
    """check_preservation, one pair at a time: (labels, columns, passed)."""
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor = _reference_state(n, rng)
    parallel = _reference_state(n, rng)
    basis = np.eye(n, dtype=complex)
    pairs = [("zero", np.zeros(n, dtype=complex), anchor)]
    pairs += [("basis", basis[k], anchor) for k in range(n)]
    if n >= 2:
        pairs.append(("orthogonal", basis[0], basis[1]))
    pairs.append(("parallel", parallel, parallel))
    pairs.append(("parallel_scaled", parallel, 2.5 * parallel))
    randoms = _at_every_scale([_reference_state(n, rng) for _ in range(2 * num_pairs)], rng)
    pairs += [("random", w, z) for w, z in zip(randoms[0::2], randoms[1::2])]
    return _reference_pairs(transform, pairs, lambda a, b: abs(complex(np.vdot(a, b))), tol)


def reference_isometry(transform, num_pairs, seed, tol):
    """mazurulam.check_isometry, one pair at a time: (labels, columns, passed)."""
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor = rng.standard_normal(n)
    zero = np.zeros(n)
    pairs = [("zero", zero, zero), ("zero", zero, anchor), ("parallel", anchor, anchor)]
    randoms = _at_every_scale([rng.standard_normal(n) for _ in range(2 * num_pairs)], rng)
    pairs += [("random", u, v) for u, v in zip(randoms[0::2], randoms[1::2])]
    return _reference_pairs(transform, pairs, lambda u, v: float(u @ v), tol)


def _reference_theta_from(numerator, overlap, preserve_tol):
    ratio = numerator / overlap
    if not abs(abs(ratio) - 1.0) < preserve_tol:  # the one pass rule: equal or NaN fails
        raise NotProbabilityPreserving(
            f"|<Tw|Tz>| / |<w|z>| = {abs(ratio):.6g}, expected 1 within {preserve_tol:g}"
        )
    return wrap_angle(math.atan2(ratio.imag, ratio.real))


def reference_origin_phase(transform, z, preserve_tol=PRESERVE_TOL, images=None):
    """origin_phase with as_state validation and a loop over numpy-scalar eps."""
    z = as_state(z, transform.dimension)
    denom_base = float(np.vdot(z, z).real)
    if denom_base == 0.0:
        return 0.0
    if images is None:
        images = transform(_PROBES * z)
    tz, *probes = images
    thetas = [
        _reference_theta_from(complex(np.vdot(tw, tz)), eps * denom_base, preserve_tol)
        for eps, tw in zip(_PROBES[1:, 0], probes)
    ]
    d1 = wrap_angle(thetas[1] - thetas[0])
    d2 = wrap_angle(thetas[2] - thetas[1])
    return wrap_angle(thetas[0] + (2.0 * d1 + 8.0 * d2) / 3.0)


def _reference_central_differences(transform, at, step, unit):
    n = transform.dimension
    offsets = unit * step * np.eye(n)
    images = transform(np.concatenate([at + offsets, at - offsets]))
    return ((images[:n] - images[n:]) / (2.0 * step)).T


def reference_wirtinger_jacobian(transform, at, step):
    """(d_z, d_zbar) from one stencil call per real axis direction."""
    z = as_state(at, transform.dimension)
    df_dx = _reference_central_differences(transform, z, step, 1.0)
    df_dy = _reference_central_differences(transform, z, step, 1j)
    return 0.5 * (df_dx - 1j * df_dy), 0.5 * (df_dx + 1j * df_dy)


def reference_smoothness(fixed, step):
    """(coarse, fine, ratio) of the step-halving diagnostic as first written:
    three plain Jacobians at the origin, at step, step/2 and step/4, and the
    max-norms of their differences taken block by block."""
    zero = np.zeros(fixed.dimension, dtype=complex)
    j0, j1, j2 = (wirtinger_jacobian(fixed, zero, step / k) for k in (1.0, 2.0, 4.0))
    coarse = float(max(np.abs(j0.d_z - j1.d_z).max(), np.abs(j0.d_zbar - j1.d_zbar).max()))
    fine = float(max(np.abs(j1.d_z - j2.d_z).max(), np.abs(j1.d_zbar - j2.d_zbar).max()))
    return coarse, fine, coarse / fine if fine > 1e-13 else None


def hash_phase_symmetry(kind: str, u: np.ndarray) -> Transformation:
    """z -> exp(i phi(z)) U z (linear) or ... U conj(z) (antilinear), with
    phi(z) in [0, 2 pi) read off the SHA-256 hash of z's bytes: every overlap
    modulus is preserved exactly, and phi is continuous nowhere."""
    flip = np.conj if kind == "antilinear" else np.asarray

    def evaluator(z):
        rows = z.reshape(-1, z.shape[-1])
        hashes = [hashlib.sha256(row.tobytes()).digest()[:8] for row in rows]
        phi = np.array([int.from_bytes(h, "little") for h in hashes]) * (2.0 * math.pi / 2**64)
        return (np.exp(1j * phi)[:, None] * (flip(rows) @ u.T)).reshape(z.shape)

    return Transformation(evaluator, u.shape[0], vectorized=True)
