"""State representations: statevectors, density matrices, block products.

Everything here is dense and intended for desk scale. Statevectors are
capped at 14 qubits and density matrices at 12 by default; the caps guard
against accidental exponential blowups rather than enforce a hard API
limit, and ops that need more can pass an explicit cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .algebra import hermitianize, kron_all, partial_trace
from .observables import PauliObservable
from .partition import Partition

__all__ = [
    "PureState",
    "DensityMatrix",
    "BlockProductState",
    "STATEVECTOR_CAP",
    "DENSITY_CAP",
    "reduced_density",
    "grouped_product_state",
    "ground_state",
    "bell_state",
    "ghz_state",
    "product_state",
    "maximally_mixed",
    "toy_mixed",
    "toy_pure",
    "bell_pair_chain",
    "reorder_qubits",
]

STATEVECTOR_CAP = 14
DENSITY_CAP = 12

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
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)
        self.amplitudes.setflags(write=False)

    def density(self) -> "DensityMatrix":
        if self.n > DENSITY_CAP:
            raise ValueError("too many qubits for a dense density matrix")
        return DensityMatrix(self.n, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n > DENSITY_CAP:
            raise ValueError(f"{self.n} qubits exceeds the density cap")
        mat = hermitianize(np.asarray(self.matrix, dtype=complex))
        if mat.shape != (2**self.n, 2**self.n):
            raise ValueError("matrix dimension is not 2^n")
        # written so that a NaN fails the check instead of passing it
        if not abs(np.trace(mat).real - 1.0) <= NORM_TOL:
            raise ValueError("trace is not 1")
        if not np.linalg.eigvalsh(mat).min() >= -PSD_TOL:
            raise ValueError("matrix is not PSD")
        object.__setattr__(self, "matrix", mat)
        self.matrix.setflags(write=False)

    def density(self) -> "DensityMatrix":
        return self


@dataclass(frozen=True)
class BlockProductState:
    """Tensor product of density matrices over a partition's groups."""

    partition: Partition
    blocks: tuple[DensityMatrix, ...]

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
        if self.n > DENSITY_CAP:
            raise ValueError(f"{self.n} qubits exceeds the density cap")
        full = kron_all([b.matrix for b in self.blocks])
        order = [q for g in self.partition.groups for q in g]
        return DensityMatrix(self.n, reorder_qubits(full, order))


def reorder_qubits(op: np.ndarray, current_order) -> np.ndarray:
    """Permute an operator whose qubit axes follow ``current_order`` into
    ascending label order."""
    order = list(current_order)
    n = len(order)
    # axis i holds qubit order[i]; send it to position order[i]
    perm = [0] * n
    for pos, q in enumerate(order):
        perm[q] = pos
    t = op.reshape((2,) * (2 * n))
    t = t.transpose([perm[i] for i in range(n)] + [n + perm[i] for i in range(n)])
    return t.reshape(2**n, 2**n)


def reduced_density(state, group) -> DensityMatrix:
    """Reduced density matrix on ``group`` (ascending index order)."""
    group = sorted(int(q) for q in group)
    if len(group) > DENSITY_CAP:
        raise ValueError(f"{len(group)} qubits exceeds the density cap")
    if isinstance(state, PureState):
        rest = [q for q in range(state.n) if q not in group]
        t = state.amplitudes.reshape((2,) * state.n)
        t = t.transpose(group + rest).reshape(2 ** len(group), -1)
        return DensityMatrix(len(group), t @ t.conj().T)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(len(group), partial_trace(state.matrix, group, state.n))
    if isinstance(state, BlockProductState):
        pieces = []
        qubit_order = []
        for g, b in zip(state.partition.groups, state.blocks):
            inter = [q for q in g if q in group]
            if not inter:
                continue
            local = [g.index(q) for q in inter]
            pieces.append(partial_trace(b.matrix, local, b.n))
            qubit_order.extend(inter)
        full = kron_all(pieces)
        rank = {q: i for i, q in enumerate(sorted(qubit_order))}
        return DensityMatrix(
            len(group), reorder_qubits(full, [rank[q] for q in qubit_order])
        )
    raise TypeError(f"unsupported state type {type(state).__name__}")


def grouped_product_state(state, partition: Partition) -> BlockProductState:
    """Product of the state's reduced densities over the partition."""
    blocks = tuple(reduced_density(state, g) for g in partition.groups)
    return BlockProductState(partition, blocks)


def ground_state(obs: PauliObservable, cap: int = 12) -> tuple[float, PureState]:
    """Lowest eigenpair of a Pauli-sum Hamiltonian, by dense or iterative solve."""
    n = obs.n
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the dense ground-state cap {cap}")
    if n <= 8:
        evals, evecs = np.linalg.eigh(obs.matrix())
        return float(evals[0]), PureState(n, evecs[:, 0])
    dim = 2**n
    op = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=obs.apply, dtype=complex
    )
    evals, evecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA")
    return float(evals[0]), PureState(n, evecs[:, 0])


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
    part = Partition(tuple((2 * i, 2 * i + 1) for i in range(pairs)), max_size=2)
    bell = bell_state().density()
    return BlockProductState(part, (bell,) * pairs)
