"""State representations: statevectors, density matrices, block products.

Everything here is dense and intended for desk scale. Statevectors are
capped at 14 qubits, density matrices and ground-state solves at 12; the
caps guard against accidental exponential blowups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

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

    def density(self) -> "DensityMatrix":
        return reduced_density(self, range(self.n))


@dataclass(frozen=True)
class DensityMatrix:
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_density_cap(self.n)
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
        return reduced_density(self, range(self.n))


def _check_density_cap(n: int) -> None:
    if n > DENSITY_CAP:
        raise ValueError(f"{n} qubits exceeds the density cap")


def density_tensor(state, axes) -> np.ndarray:
    """Density tensor of a pure, dense or block-product state on the listed axes.

    ``axes`` lists ``(qubit, side)`` pairs, side 0 for the row index and 1
    for the column index, and each listed qubit appears once with each
    side. The result has one size-2 axis per pair, in the listed order;
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
        return t.transpose([kept.index(q) + len(kept) * side for q, side in axes])
    label = {ax: i for i, ax in enumerate(axes)}
    out = list(range(len(axes)))
    if isinstance(state, BlockProductState):
        operands = []
        for g, b in zip(state.partition.groups, state.blocks):
            local = [(g.index(q), side) for q, side in axes if q in g]
            if local:
                operands += [density_tensor(b, local), [label[g[i], side] for i, side in local]]
        return np.einsum(*operands, out) if operands else np.ones(())
    # a traced qubit q carries label len(axes) + q on both sides
    rows, cols = ([label.get((q, side), len(axes) + q) for q in range(state.n)] for side in (0, 1))
    return np.einsum(state.matrix.reshape((2,) * (2 * state.n)), rows + cols, out)


def reduced_density(state, group) -> DensityMatrix:
    """Reduced density matrix on ``group`` (ascending index order)."""
    group = sorted(int(q) for q in group)
    t = density_tensor(state, [(q, 0) for q in group] + [(q, 1) for q in group])
    return DensityMatrix(len(group), t.reshape(2 ** len(group), -1))


def ground_state(obs: PauliObservable) -> tuple[float, PureState]:
    """Lowest eigenpair of a Pauli-sum Hamiltonian, by dense or iterative
    solve; the same bits on every call."""
    n = obs.n
    if n > GROUND_STATE_CAP:
        raise ValueError(f"{n} qubits exceeds the dense ground-state cap {GROUND_STATE_CAP}")
    if n <= 8:
        evals, evecs = np.linalg.eigh(obs.matrix())
        return float(evals[0]), PureState(n, evecs[:, 0])
    dim = 2**n
    op = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=obs.apply, dtype=complex
    )
    # a fixed start vector, so the solve is reproducible, and a generic one,
    # so it is not orthogonal to the ground state's symmetry sector
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    evals, evecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", v0=v0)
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
    _check_size(2 * pairs, 2 * BELL_PAIRS_CAP, "Bell-pair chain")
    part = Partition(tuple((2 * i, 2 * i + 1) for i in range(pairs)), max_size=2)
    bell = bell_state().density()
    return BlockProductState(part, (bell,) * pairs)
