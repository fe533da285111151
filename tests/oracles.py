"""Reference implementations that the library's fast paths are checked against."""

import numpy as np

from icshadows import PauliObservable
from icshadows.observables import PAULI_MATRICES


def same_bits(a, b) -> bool:
    """True when two float or complex arrays hold the same bytes, so +0 and -0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def kron_matrix(obs) -> np.ndarray:
    """Dense matrix of a Pauli sum, one Kronecker chain per term."""
    dim = 2**obs.n
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, word in obs.terms:
        term = np.array([[1.0 + 0.0j]])
        for ch in word:
            term = np.kron(term, PAULI_MATRICES[ch])
        out += coeff * term
    return out


def tensordot_apply(obs, vec) -> np.ndarray:
    """A Pauli sum applied to a statevector, one letter at a time."""
    vec = np.asarray(vec, dtype=complex)
    out = np.zeros_like(vec)
    shape = (2,) * obs.n
    for coeff, word in obs.terms:
        t = vec.reshape(shape)
        for k, ch in enumerate(word):
            if ch == "I":
                continue
            t = np.tensordot(PAULI_MATRICES[ch], t, axes=([1], [k]))
            t = np.moveaxis(t, 0, k)
        out += coeff * t.reshape(-1)
    return out


def tfim_ring(n: int, seed: int):
    """Transverse-field Ising ring with couplings and fields drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    terms = []
    for q in range(n):
        word = ["I"] * n
        word[q] = word[(q + 1) % n] = "Z"
        terms.append((-rng.uniform(0.5, 1.5), "".join(word)))
    for q in range(n):
        word = ["I"] * n
        word[q] = "X"
        terms.append((-rng.uniform(0.5, 1.5), "".join(word)))
    return PauliObservable.from_terms(terms)
