"""Dense complex operator algebra for small multi-qubit systems.

Conventions used throughout the package:

* Operators are numpy arrays of ``complex128`` with power-of-two dimension.
* Vectorization is row-major, ``|O>> = sum_ij O[i, j] |i, j>``, so the
  induced inner product ``<<A|B>> = Tr[A^dag B]`` is the plain ``vdot``
  of the flattened arrays.
* Inside the package a stack of M Hermitian operators is held only as
  its real ``(M, dim^2)`` coordinates in an orthonormal Hermitian basis
  (the diagonal entries, then sqrt(2) Re and -sqrt(2) Im of each
  upper-triangle entry, row by row; :func:`hermitian_coords` and
  :func:`hermitian_stack` map each way). The map is unitary on Hermitian
  operators, so with A a stack's coordinates ``A @ hermitian_coords(B)``
  is Tr[A_m B] for every m and ``hermitian_stack(w @ A)`` is
  Σ_m w_m A_m, each one real BLAS product. It drops an anti-Hermitian
  part, which :func:`stack_asymmetry` measures where complex data enters.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "hermitianize",
    "hermitian_coords",
    "hermitian_stack",
    "stack_asymmetry",
    "kron_all",
    "kron_coords",
    "partial_trace",
    "project_to_density",
    "simplex_project",
]

# asymmetry beyond this is a bug in the caller, not float drift
HERMITICITY_TOL = 1e-9


def hermitianize(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return (A + A^dag)/2, rejecting matrices that are not nearly Hermitian."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    asym = np.abs(a - a.conj().T).max() if a.size else 0.0
    if not asym <= tol:
        raise ValueError(f"matrix is not Hermitian within {tol:g} (asymmetry {asym:g})")
    return 0.5 * (a + a.conj().T)


def kron_all(ops) -> np.ndarray:
    """Tensor product of a sequence of operators, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


@functools.lru_cache(maxsize=None)
def _coordinate_maps(dim: int):
    """Gather tables between a Hermitian matrix and its real coordinates.

    The forward tables list the entries the coordinates read (``rows``,
    ``cols``: the diagonal, then the upper triangle row by row) and pick
    from their floats (real, imaginary, real, ...) the diagonal real parts,
    then each upper entry's real and imaginary parts (``keep``), scaled by
    1, sqrt(2) and -sqrt(2). The inverse table indexes the ``2 dim^2``
    floats of a row-major complex matrix and fills each from one
    coordinate: scale 1 on the diagonal (0 for its imaginary parts),
    1/sqrt(2) and -1/sqrt(2) above it, 1/sqrt(2) and 1/sqrt(2) below it.
    """
    iu, ju = np.triu_indices(dim, 1)
    rows, cols = np.concatenate([np.arange(dim), iu]), np.concatenate([np.arange(dim), ju])
    keep = np.concatenate([2 * np.arange(dim), np.arange(2 * dim, 2 * rows.size)])
    diag, upper, lower = 2 * np.arange(dim) * (dim + 1), 2 * (iu * dim + ju), 2 * (ju * dim + iu)
    sym = dim + 2 * np.arange(iu.size)
    root2, inv_root2 = np.sqrt(2), 1.0 / np.sqrt(2)
    fwd_scale = np.concatenate([np.ones(dim), np.tile([root2, -root2], iu.size)])
    inv_idx = np.zeros(2 * dim * dim, dtype=np.intp)
    inv_scale = np.zeros(2 * dim * dim)
    inv_idx[diag], inv_scale[diag] = np.arange(dim), 1.0
    for slots, part, scale in (
        (upper, 0, inv_root2),
        (upper + 1, 1, -inv_root2),
        (lower, 0, inv_root2),
        (lower + 1, 1, inv_root2),
    ):
        inv_idx[slots], inv_scale[slots] = sym + part, scale
    tables = (rows, cols, keep, fwd_scale, inv_idx, inv_scale)
    for t in tables:
        t.setflags(write=False)
    return tables


def hermitian_coords(stack: np.ndarray) -> np.ndarray:
    """Real ``(..., dim^2)`` coordinates of Hermitian ``(..., dim, dim)`` operators.

    Coordinates are in the orthonormal Hermitian basis of the module
    docstring. Only the diagonal and upper triangle are read, so an
    anti-Hermitian part is silently dropped: callers check Hermiticity.
    """
    stack = np.asarray(stack, dtype=complex)
    dim = stack.shape[-1]
    return kron_coords([stack.reshape(-1, dim, dim)]).reshape(*stack.shape[:-2], dim * dim)


def hermitian_stack(coords: np.ndarray) -> np.ndarray:
    """The Hermitian ``(..., dim, dim)`` operators with real coordinates
    ``(..., dim^2)`` (the inverse of :func:`hermitian_coords`); the result
    is exactly Hermitian."""
    coords = np.asarray(coords, dtype=float)
    dim = math.isqrt(coords.shape[-1])
    *_, idx, scale = _coordinate_maps(dim)
    flat = np.multiply(np.take(coords, idx, axis=-1), scale)
    return flat.view(complex).reshape(*coords.shape[:-1], dim, dim)


def kron_coords(stacks) -> np.ndarray:
    """Coordinates of the Kronecker products of one operator from each of
    the Hermitian stacks, without building the products.

    Row ``(m1, ..., mk)`` (flattened, the first stack's index most
    significant) is :func:`hermitian_coords` of ``stacks[0][m1] x ... x
    stacks[k-1][mk]``. Only the entries that the coordinates read are
    multiplied out, each in the same order and by the same kernel as in
    the full product, to the same bits.
    """
    stacks = list(stacks)
    if not stacks:
        raise ValueError("need at least one operator stack")
    dim = math.prod(s.shape[1] for s in stacks)
    rows, cols, keep, scale, _, _ = _coordinate_maps(dim)
    out, place = None, dim
    for s in stacks:
        d = s.shape[1]
        place //= d
        picked = np.asarray(s, dtype=complex)[:, rows // place % d, cols // place % d]
        out = picked if out is None else np.einsum("mp,np->mnp", out, picked).reshape(-1, rows.size)
    return np.multiply(np.ascontiguousarray(out).view(np.float64)[:, keep], scale)


def stack_asymmetry(stack: np.ndarray) -> float:
    """Largest entry of |A - A^dag| over a stack; 0 for a Hermitian one, NaN
    for one with a NaN entry."""
    re, im = stack.real, stack.imag
    return float(np.maximum(
        np.abs(re - re.transpose(0, 2, 1)).max(initial=0.0),
        np.abs(im + im.transpose(0, 2, 1)).max(initial=0.0),
    ))


def partial_trace(op: np.ndarray, keep, n: int | None = None) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    Parameters
    ----------
    op : (2^n, 2^n) array
    keep : iterable of qubit indices to retain, in any order; the result
        acts on them in ascending-index order.
    n : qubit count; inferred from the matrix dimension when omitted.
    """
    op = np.asarray(op, dtype=complex)
    if n is None:
        n = int(round(np.log2(op.shape[0])))
    if op.shape != (2**n, 2**n):
        raise ValueError("operator dimension is not 2^n")
    keep = sorted(set(int(q) for q in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError("keep indices out of range")
    drop = [q for q in range(n) if q not in keep]
    t = op.reshape((2,) * (2 * n))
    for offset, q in enumerate(drop):
        # axes shift left as traced pairs disappear
        ax = q - offset
        t = np.trace(t, axis1=ax, axis2=ax + n - offset)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def simplex_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[idx]) / (idx + 1)
    return np.maximum(v + theta, 0.0)


def project_to_density(h: np.ndarray) -> np.ndarray:
    """Closest density matrix to a Hermitian matrix in Frobenius norm.

    Diagonalizes, projects the eigenvalue vector onto the probability
    simplex, and reassembles. The result is PSD with unit trace.
    """
    lam, vecs = np.linalg.eigh(hermitianize(h))
    lam2 = simplex_project(lam)
    return (vecs * lam2) @ vecs.conj().T
