"""Dense complex operator algebra for small multi-qubit systems.

Conventions used throughout the package:

* Operators are numpy arrays of ``complex128`` with power-of-two dimension.
* Vectorization is row-major, ``|O>> = sum_ij O[i, j] |i, j>``, so the
  induced inner product ``<<A|B>> = Tr[A^dag B]`` is the plain ``vdot``
  of the flattened arrays.
* A stack of M operators is an ``(M, dim, dim)`` array. Traces against
  a stack and weighted sums over it go through :func:`stack_traces` and
  :func:`stack_sum`, each one BLAS product on the ``(M, dim^2)`` view.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermitianize",
    "kron_all",
    "partial_trace",
    "project_to_density",
    "simplex_project",
    "stack_traces",
    "stack_sum",
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


def stack_traces(stack: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr[A_m B] for every operator A_m of a stack, as one matrix-vector product."""
    stack = np.asarray(stack)
    return stack.reshape(stack.shape[0], -1) @ np.asarray(op).T.reshape(-1)


def stack_sum(weights, stack: np.ndarray) -> np.ndarray:
    """Σ_m w_m A_m over a stack, as one vector-matrix product."""
    stack = np.asarray(stack)
    M, dim = stack.shape[0], stack.shape[1]
    return (np.asarray(weights) @ stack.reshape(M, -1)).reshape(dim, dim)


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
