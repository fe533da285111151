"""Local POVMs and their products over qubit registers.

The default measurement is the six-outcome Pauli POVM whose effects are
the eigenstate projectors of X, Y, Z scaled by 1/3. Outcome order is part
of the on-disk dataset contract and must never change:

    0: |0><0|/3   1: |1><1|/3   2: |+><+|/3   3: |-><-|/3
    4: |+i><+i|/3 5: |-i><-i|/3

A ``LocalPOVM`` holds its effects as a complex ``(d, 2, 2)`` stack, which
the sampler reads. Group effects (:meth:`ProductPOVM.group_effects`, and
so :func:`outcome_probabilities`) are a real ``(M, 4^k)`` coordinate
matrix (:mod:`icshadows.algebra`), the one form frames and estimators use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .algebra import HERMITICITY_TOL, hermitian_coords, hermitianize, kron_coords, stack_asymmetry

__all__ = [
    "LocalPOVM",
    "ProductPOVM",
    "pauli6",
    "pauli6_product",
    "completeness_rank",
    "outcome_probabilities",
]

COMPLETENESS_TOL = 1e-12
PSD_TOL = 1e-10
# group effect coordinates kept by ProductPOVM.group_effects, oldest first out;
# a 4-qubit Pauli-6 group's are 2.7 MB, a 5-qubit one's 64 MB (never kept)
STACK_CACHE_BYTES = 32 * 2**20


def completeness_rank(effects) -> int:
    """Rank of a ``(d, 2, 2)`` effect array, vectorized; 4 means informationally complete."""
    stack = np.asarray(effects, dtype=complex).reshape(len(effects), -1)
    return int(np.linalg.matrix_rank(stack, tol=1e-10))


@dataclass(frozen=True)
class LocalPOVM:
    """An informationally complete single-qubit POVM.

    Effects are validated at construction: each PSD, summing to the
    identity, and jointly spanning the four-dimensional operator space.
    """

    effects: np.ndarray  # (d, 2, 2), complex

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=complex)
        if eff.ndim != 3 or eff.shape[1:] != (2, 2):
            raise ValueError("effects must be a (d, 2, 2) array")
        eff = np.stack([hermitianize(e) for e in eff])
        for i, e in enumerate(eff):
            if np.linalg.eigvalsh(e).min() < -PSD_TOL:
                raise ValueError(f"effect {i} is not PSD")
        if np.abs(eff.sum(axis=0) - np.eye(2)).max() > COMPLETENESS_TOL:
            raise ValueError("effects do not sum to the identity")
        if len(eff) < 4 or completeness_rank(eff) < 4:
            raise ValueError("effects do not span the operator space (not IC)")
        object.__setattr__(self, "effects", eff)
        self.effects.setflags(write=False)

    @property
    def d(self) -> int:
        return self.effects.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalPOVM) and np.array_equal(self.effects, other.effects)


def pauli6() -> LocalPOVM:
    """The six-outcome Pauli measurement POVM."""
    s = 1.0 / np.sqrt(2.0)
    kets = np.array(
        [
            [1, 0],
            [0, 1],
            [s, s],
            [s, -s],
            [s, 1j * s],
            [s, -1j * s],
        ],
        dtype=complex,
    )
    effects = np.einsum("mi,mj->mij", kets, kets.conj()) / 3.0
    return LocalPOVM(effects)


_PAULI6 = None


def _pauli6_cached() -> LocalPOVM:
    global _PAULI6
    if _PAULI6 is None:
        _PAULI6 = pauli6()
    return _PAULI6


_stacks: dict = {}
_stacks_bytes = 0
_stacks_lock = threading.Lock()


@dataclass(frozen=True)
class ProductPOVM:
    """Independent local POVMs on each qubit of an n-qubit register."""

    locals: tuple[LocalPOVM, ...] = field()

    def __post_init__(self):
        object.__setattr__(self, "locals", tuple(self.locals))
        if not self.locals:
            raise ValueError("at least one qubit required")

    @property
    def n(self) -> int:
        return len(self.locals)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.d for p in self.locals)

    @property
    def identifier(self) -> str:
        p6 = _pauli6_cached()
        if all(p == p6 for p in self.locals):
            return "pauli6"
        return "custom"

    def group_effects(self, group) -> np.ndarray:
        """All group effects, as the real coordinates of their Hermitian stack.

        Returns a read-only ``(M, 4^k)`` array with ``M = prod of local d``
        and the first listed qubit as the most significant outcome digit:
        row m holds the coordinates of the Kronecker product of the listed
        qubits' effects for outcome m (:func:`~icshadows.algebra.kron_coords`;
        the complex products are never built). They are checked finite, and
        the factors Hermitian, when they are built, once per process for each
        sequence of ``LocalPOVM`` objects (by identity; the cache keeps those
        objects alive, so an identity is never reused while its entry exists),
        and kept up to ``STACK_CACHE_BYTES`` in total, the oldest entries
        evicted first.
        """
        global _stacks_bytes
        locals_ = tuple(self.locals[q] for q in group)
        key = tuple(map(id, locals_))
        with _stacks_lock:
            hit = _stacks.get(key)
        if hit is not None:
            return hit[1]
        factors = [p.effects for p in locals_]
        coords = kron_coords(factors)
        # Hermitian factors make Hermitian products; written so that a NaN fails the check
        hermitian = max(map(stack_asymmetry, factors)) <= HERMITICITY_TOL
        if not (np.isfinite(coords).all() and hermitian):
            raise ValueError(f"the effects of group {tuple(group)} are not finite and Hermitian")
        coords.setflags(write=False)
        if coords.nbytes <= STACK_CACHE_BYTES:
            with _stacks_lock:
                if key not in _stacks:
                    _stacks[key] = (locals_, coords)
                    _stacks_bytes += coords.nbytes
                while _stacks_bytes > STACK_CACHE_BYTES:
                    _stacks_bytes -= _stacks.pop(next(iter(_stacks)))[1].nbytes
        return coords


def pauli6_product(n: int) -> ProductPOVM:
    """Pauli-6 on every one of ``n`` qubits."""
    p = _pauli6_cached()
    return ProductPOVM((p,) * n)


def outcome_probabilities(effects, rho: np.ndarray) -> np.ndarray:
    """Born probabilities Tr[effect rho], one real entry per effect.

    ``effects`` are coordinates as :meth:`ProductPOVM.group_effects`
    returns them, and the probabilities are one real matrix-vector product
    with the coordinates of the Hermitian matrix ``rho``. The coordinates
    would drop an anti-Hermitian part, so a ``rho`` whose largest entry of
    |rho - rho^dag| exceeds ``HERMITICITY_TOL`` raises ``ValueError``; one
    within it is read as it is, not symmetrized.
    """
    rho = np.asarray(rho)
    asym = stack_asymmetry(rho[None])
    if not asym <= HERMITICITY_TOL:
        raise ValueError(f"rho is not Hermitian within {HERMITICITY_TOL:g} (asymmetry {asym:g})")
    return np.asarray(effects) @ hermitian_coords(rho)
