"""Real-weighted sums of multi-qubit Pauli strings.

Every contraction goes through one mask form per term (the symplectic
form of Aaronson & Gottesman, arXiv:quant-ph/0406196). A word is an X
bitmask ``x`` (letters X and Y) and a Z bitmask ``z`` (letters Z and Y),
with qubit 0 the most significant bit, as in the Kronecker order
``P_0 x P_1 x ... x P_{n-1}``. On a basis state,

    P|j> = i^{#Y} (-1)^{popcount(j & z)} |j XOR x>,

so a term is its coefficient, ``x``, ``z`` and the phase vector
``phase[j] = i^{#Y} (-1)^{popcount(j & z)}`` over the basis index j.
Every phase is one of 1, i, -1, -i, so multiplying by one is exact: the
only rounding is in the coefficient products and in the sum over terms,
which is taken in term order.

Terms that share an X mask move a basis state to the same place, so a
Pauli sum has one derived form: one diagonal per distinct X mask, the
mask's terms summed in term order. :meth:`PauliObservable.apply` does one
gather of the vector per mask, summing the masks in order of first
appearance, and the trace against a density matrix reads the same
diagonals; both cost O(T 2^n) for T terms on n qubits, not O(T 4^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["PauliObservable", "PAULI_MATRICES", "mask_term"]

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class _MaskTerm(NamedTuple):
    coeff: float
    x: int
    z: int
    phase: np.ndarray  # phase[j] = <j XOR x| P |j>


def mask_term(coeff: float, word: str) -> _MaskTerm:
    """``coeff * word`` in mask form (see the module docstring)."""
    x = z = 0
    for ch in word:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "YZ")
    # parity of j & z by XOR-folding its bits (np.bitwise_count needs numpy 2)
    parity = np.arange(2 ** len(word)) & z
    shift = 1
    while shift < len(word):
        parity ^= parity >> shift
        shift <<= 1
    sign = 1 - 2 * (parity & 1)
    return _MaskTerm(coeff, x, z, _I_POWERS[word.count("Y") % 4] * sign)


@dataclass(frozen=True)
class PauliObservable:
    """An observable ``sum_t c_t P_t`` over length-n Pauli words.

    Duplicate words are merged at construction; term order follows first
    appearance. Words use the letters I, X, Y, Z with qubit 0 leftmost.
    """

    n: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        merged: dict[str, float] = {}
        order: list[str] = []
        for coeff, word in self.terms:
            word = word.upper()
            if len(word) != self.n:
                raise ValueError(f"word {word!r} is not length {self.n}")
            if any(ch not in "IXYZ" for ch in word):
                raise ValueError(f"invalid Pauli letter in {word!r}")
            if word not in merged:
                merged[word] = 0.0
                order.append(word)
            merged[word] += float(coeff)
        # checked after merging, so that an overflowing sum is caught too
        if not all(np.isfinite(c) for c in merged.values()):
            raise ValueError("non-finite coefficient")
        object.__setattr__(
            self, "terms", tuple((merged[w], w) for w in order)
        )

    @classmethod
    def from_terms(cls, terms) -> "PauliObservable":
        terms = list(terms)
        if not terms:
            raise ValueError("observable needs at least one term")
        return cls(n=len(terms[0][1]), terms=tuple(terms))

    @classmethod
    def single(cls, word: str) -> "PauliObservable":
        return cls(n=len(word), terms=((1.0, word),))

    def without_identity(self) -> "PauliObservable":
        """Drop terms whose word is all-identity."""
        kept = tuple(t for t in self.terms if set(t[1]) != {"I"})
        if not kept:
            kept = ((0.0, "I" * self.n),)
        return PauliObservable(self.n, kept)

    @cached_property
    def _mask_diagonals(self) -> tuple[tuple[int, np.ndarray], ...]:
        """One ``(x, diag)`` per distinct X mask, in order of first appearance,
        with ``diag[j]`` the sum of ``coeff * phase[j XOR x]`` over the terms
        with that mask, so that ``(O v)[j] = sum_x diag[j] v[j XOR x]``."""
        sums: dict[int, np.ndarray] = {}
        for coeff, word in self.terms:
            _, x, _, phase = mask_term(coeff, word)
            sums[x] = sums.get(x, 0.0) + coeff * phase
        rows = np.arange(2**self.n)
        return tuple((x, d[rows ^ x]) for x, d in sums.items())

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the observable to a statevector without forming the matrix."""
        vec = np.asarray(vec, dtype=complex)
        dim = 2**self.n
        if vec.shape != (dim,):
            raise ValueError(f"vector of shape {vec.shape} is not a length-{dim} statevector")
        rows = np.arange(dim)
        out = np.zeros_like(vec)
        for x, diag in self._mask_diagonals:
            out += diag * vec[rows ^ x]
        return out
