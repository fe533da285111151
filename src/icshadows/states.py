"""State representations: statevectors, density matrices, block products.

Everything here is dense and intended for desk scale. Statevectors are
capped at 14 qubits, density matrices and ground-state solves at 12; the
caps guard against accidental exponential blowups. Ground states come
from one restarted Lanczos iteration in numpy at every size
(:func:`ground_state`). Only this module tells the kinds apart: the rest
reads ``partition``, ``amplitudes``, :func:`density_tensor`, ``_expectation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import hermitianize
from .observables import PauliObservable
from .partition import Partition

__all__ = [
    "PureState",
    "DensityMatrix",
    "BlockProductState",
    "STATEVECTOR_CAP",
    "DENSITY_CAP",
    "density_tensor",
    "reduced_density",
    "ground_state",
    "bell_state",
    "ghz_state",
    "product_state",
    "maximally_mixed",
    "toy_mixed",
    "toy_pure",
    "bell_pair_chain",
]

STATEVECTOR_CAP = 14
DENSITY_CAP = 12
GROUND_STATE_CAP = 12
# 2P qubits must fit the 16-bit qubit count of the dataset and duals files
BELL_PAIRS_CAP = (2**16 - 1) // 2

NORM_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.n > STATEVECTOR_CAP:
            raise ValueError(f"{self.n} qubits exceeds the statevector cap")
        if amps.size != 2**self.n:
            raise ValueError("amplitude length is not 2^n")
        # the squared norm is the density's trace, held to the same tolerance
        if not abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)
        self.amplitudes.setflags(write=False)

    partition = property(lambda self: Partition.single_group(self.n))

    def density(self) -> "DensityMatrix":
        return reduced_density(self, range(self.n))

    def _expectation(self, obs: PauliObservable) -> float:
        return float(np.vdot(self.amplitudes, obs.apply(self.amplitudes)).real)


@dataclass(frozen=True)
class DensityMatrix:
    n: int
    matrix: np.ndarray
    amplitudes = None
    partition = property(lambda self: Partition.single_group(self.n))

    def __post_init__(self):
        self._set(self.n, self.matrix)
        if not np.linalg.eigvalsh(self.matrix).min() >= -PSD_TOL:
            raise ValueError("matrix is not PSD")

    def _set(self, n: int, matrix) -> None:
        """Every check but the PSD one, then ``n`` and the read-only hermitianized matrix."""
        _check_density_cap(n)
        mat = hermitianize(np.asarray(matrix, dtype=complex))
        if mat.shape != (2**n, 2**n):
            raise ValueError("matrix dimension is not 2^n")
        # written so that a NaN fails the check instead of passing it
        if not abs(np.trace(mat).real - 1.0) <= NORM_TOL:
            raise ValueError("trace is not 1")
        mat.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", mat)

    def density(self) -> "DensityMatrix":
        return self

    def _expectation(self, obs: PauliObservable) -> float:
        # Tr[rho O] = sum_x sum_j diag_x[j] rho[j XOR x, j], over the diagonals
        # that apply reads; each mask's part of O is Hermitian, so its trace is real
        rows = np.arange(2**self.n)
        total = 0.0
        for x, diag in obs._mask_diagonals:
            total += np.dot(diag, self.matrix[rows ^ x, rows]).real
        return float(total)


@dataclass(frozen=True)
class BlockProductState:
    """Tensor product of density matrices over a partition's groups."""

    partition: Partition
    blocks: tuple[DensityMatrix, ...]
    amplitudes = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != len(self.partition.groups):
            raise ValueError("one block per group required")
        for g, b in zip(self.partition.groups, self.blocks):
            if b.n != len(g):
                raise ValueError(f"block for group {g} has wrong qubit count")

    @property
    def n(self) -> int:
        return self.partition.n

    def density(self) -> DensityMatrix:
        return reduced_density(self, range(self.n))

    def _expectation(self, obs: PauliObservable) -> float:
        total = 0.0
        for coeff, word in obs.terms:
            val = coeff
            for group, block in zip(self.partition.groups, self.blocks):
                val *= block._expectation(PauliObservable.single("".join(word[q] for q in group)))
            total += val
        return float(total)


def _check_density_cap(n: int) -> None:
    if n > DENSITY_CAP:
        raise ValueError(f"{n} qubits exceeds the density cap")


def density_tensor(state, axes) -> np.ndarray:
    """Density tensor of a pure, dense or block-product state on the listed axes.

    ``axes`` lists ``(qubit, side)`` pairs, side 0 for the row index and 1
    for the column index, and each listed qubit appears once with each
    side. The result has one size-2 axis per pair, in the listed order,
    and is C-contiguous in that order, so any reshape of it is a view;
    every qubit not listed is traced out. The density cap is checked on
    the listed qubits before anything is built. A pure state is one GEMM
    of its amplitudes with their conjugate over the traced qubits;
    a density matrix is one ``np.einsum`` of itself, a traced qubit's row
    and column sharing a label; a block product is one ``np.einsum`` of its
    blocks, each first reduced to its listed qubits, so no operand carries
    more than 2 x ``DENSITY_CAP`` labels.
    """
    if not isinstance(state, (PureState, DensityMatrix, BlockProductState)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    axes = [(int(q), int(side)) for q, side in axes]
    kept = sorted({q for q, _ in axes})
    if sorted(axes) != [(q, side) for q in kept for side in (0, 1)]:
        raise ValueError("each listed qubit needs one row axis and one column axis")
    _check_density_cap(len(kept))
    if kept and not (kept[0] >= 0 and kept[-1] < state.n):
        raise ValueError("qubit index out of range")
    if isinstance(state, PureState):
        traced = [q for q in range(state.n) if q not in kept]
        psi = state.amplitudes.reshape((2,) * state.n).transpose(kept + traced).reshape(2 ** len(kept), -1)
        # the kept rows, then the kept columns, each in ascending order
        t = (psi @ psi.conj().T).reshape((2,) * (2 * len(kept)))
        return np.ascontiguousarray(t.transpose([kept.index(q) + len(kept) * side for q, side in axes]))
    label = {ax: i for i, ax in enumerate(axes)}
    out = list(range(len(axes)))
    # written in place, so that the result is not a strided view or a copy of one
    result = np.empty((2,) * len(axes), dtype=complex)
    if isinstance(state, BlockProductState):
        operands = []
        for g, b in zip(state.partition.groups, state.blocks):
            local = [(g.index(q), side) for q, side in axes if q in g]
            if local:
                operands += [density_tensor(b, local), [label[g[i], side] for i, side in local]]
        return np.einsum(*operands, out, out=result) if operands else np.ones(())
    # a traced qubit q carries label len(axes) + q on both sides
    rows, cols = ([label.get((q, side), len(axes) + q) for q in range(state.n)] for side in (0, 1))
    return np.einsum(state.matrix.reshape((2,) * (2 * state.n)), rows + cols, out, out=result)


def reduced_density(state, group) -> DensityMatrix:
    """Reduced density matrix on ``group`` (ascending index order), checked
    as :class:`DensityMatrix` checks it but for the eigendecomposition: the
    reduction of a validated state is PSD."""
    group = sorted(int(q) for q in group)
    t = density_tensor(state, [(q, 0) for q in group] + [(q, 1) for q in group])
    rho = object.__new__(DensityMatrix)
    rho._set(len(group), t.reshape(2 ** len(group), -1))
    return rho


def ground_state(obs: PauliObservable) -> tuple[float, PureState]:
    """Lowest eigenpair of a Pauli-sum Hamiltonian; the same bits on every call.

    At every size it is a restarted Lanczos iteration over ``obs.apply``
    from a fixed complex start vector (:func:`_lanczos`), which returns
    only a pair whose residual ``||H v - E v||`` is at most
    ``1e-12 max(1, |E|)`` and otherwise raises ``ValueError``.
    """
    n = obs.n
    if n > GROUND_STATE_CAP:
        raise ValueError(f"{n} qubits exceeds the ground-state cap {GROUND_STATE_CAP}")
    dim = 2**n
    # a fixed start vector, so the solve is reproducible, and a generic one,
    # so it is not orthogonal to the ground state's symmetry sector
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    energy, amps = _lanczos(obs.apply, v0)
    return energy, PureState(n, amps)


# the Lanczos solve's basis size, Ritz vectors kept across a restart,
# residual tolerance relative to max(1, |E|), and restarts before it gives up
_KRYLOV = 24
_KEEP = 6
_LANCZOS_TOL = 1e-12
_RESTARTS = 200


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from ``w``, in place, its part in the span of the orthonormal
    rows of ``basis`` (classical Gram-Schmidt, twice); return the
    coefficients removed."""
    coeffs = np.zeros(len(basis), dtype=complex)
    for _ in range(2):
        c = (basis @ w.conj()).conj()
        w -= c @ basis
        coeffs += c
    return coeffs


def _lanczos(apply, v0: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the Hermitian map ``apply`` by thick-restarted
    Lanczos with full reorthogonalization (Lanczos, J. Res. Natl. Bur.
    Stand. 45, 255 (1950); Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602
    (2000)).

    A cycle grows an orthonormal basis V to ``_KRYLOV`` vectors, each new
    one ``H v`` orthogonalized against all of V, and records the projection
    T = V^H H V column by column. It ends early when the new direction
    vanishes, as it does at the first step for the zero map: V then spans
    an invariant subspace. The lowest Ritz vector of T is checked with one
    more application of H, and returned with its Rayleigh quotient once
    ``||H x - E x|| <= _LANCZOS_TOL max(1, |E|)``. Otherwise the next cycle
    starts from the ``_KEEP`` lowest Ritz vectors, on which T is diagonal,
    and the residual's direction. After ``_RESTARTS`` cycles it raises
    ``ValueError`` rather than return an unconverged vector.
    """
    basis = np.empty((_KRYLOV, v0.size), dtype=complex)
    proj = np.zeros((_KRYLOV, _KRYLOV), dtype=complex)
    basis[0] = v0 / np.linalg.norm(v0)
    kept = 0
    for _ in range(_RESTARTS):
        size = _KRYLOV
        for j in range(kept, _KRYLOV):
            w = apply(basis[j])
            proj[: j + 1, j] = _orthogonalize(basis[: j + 1], w)
            if j + 1 == _KRYLOV:
                break
            beta = np.linalg.norm(w)
            if beta <= _LANCZOS_TOL * max(1.0, np.linalg.norm(proj[: j + 1, j])):
                size = j + 1
                break
            basis[j + 1] = w / beta
        # T is Hermitian; its upper triangle holds every computed column
        theta, ritz = np.linalg.eigh(proj[:size, :size], UPLO="U")
        kept = min(_KEEP, size)
        lowest = ritz[:, :kept].T @ basis[:size]
        x = lowest[0] / np.linalg.norm(lowest[0])
        hx = apply(x)
        energy = float(np.vdot(x, hx).real)
        resid = hx - energy * x
        norm = float(np.linalg.norm(resid))
        if norm <= _LANCZOS_TOL * max(1.0, abs(energy)):
            return energy, x
        basis[:kept] = lowest
        proj[:kept, :kept] = np.diag(theta[:kept])
        _orthogonalize(basis[:kept], resid)
        basis[kept] = resid / np.linalg.norm(resid)
    raise ValueError(
        f"ground-state solve did not converge: residual {norm:.3g} after {_RESTARTS} restarts"
    )


def bell_state() -> PureState:
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    return PureState(2, amps)


def _check_size(n: int, cap: int, kind: str) -> None:
    """Reject a family size outside 1..cap before any 2^n array is built."""
    if not 1 <= n <= cap:
        raise ValueError(f"{n} qubits is outside 1..{cap}, the {kind} cap")


def ghz_state(n: int) -> PureState:
    _check_size(n, STATEVECTOR_CAP, "statevector")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


_PRODUCT_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "r": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "l": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def product_state(spec: str) -> PureState:
    """Unentangled state from a character spec, e.g. ``0+1-`` or ``0r``."""
    _check_size(len(spec), STATEVECTOR_CAP, "statevector")
    kets = []
    for ch in spec:
        if ch not in _PRODUCT_KETS:
            raise ValueError(f"unknown product character {ch!r} (use 01+-rl)")
        kets.append(_PRODUCT_KETS[ch])
    amps = np.array([1.0 + 0.0j])
    for k in kets:
        amps = np.kron(amps, k)
    return PureState(len(kets), amps)


def maximally_mixed(n: int) -> DensityMatrix:
    _check_size(n, DENSITY_CAP, "density")
    dim = 2**n
    return DensityMatrix(n, np.eye(dim, dtype=complex) / dim)


def toy_mixed(q: float) -> DensityMatrix:
    """Two-qubit mixture (1-q)|00><00| + q|11><11|."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0 - q
    mat[3, 3] = q
    return DensityMatrix(2, mat)


def toy_pure(q: float) -> PureState:
    """Two-qubit weighted Bell state sqrt(1-q^2)|00> + q|11>."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(max(1.0 - q * q, 0.0))
    amps[3] = q
    return PureState(2, amps)


def bell_pair_chain(pairs: int) -> BlockProductState:
    """Independent Bell pairs on qubits (0,1), (2,3), ..."""
    _check_size(2 * pairs, 2 * BELL_PAIRS_CAP, "Bell-pair chain")
    part = Partition(tuple((2 * i, 2 * i + 1) for i in range(pairs)))
    bell = bell_state().density()
    return BlockProductState(part, (bell,) * pairs)
