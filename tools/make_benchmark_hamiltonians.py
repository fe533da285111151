"""Generate the bundled H2 benchmark Hamiltonians from first principles.

Self-contained restricted Hartree-Fock over s-type Gaussians, an MO
integral transform, dense Jordan-Wigner assembly in blocked spin-orbital
order (all alpha orbitals, then all beta), and a Pauli decomposition.
Writes text Hamiltonian files into the package data directory so the
benchmarks need no quantum-chemistry dependency at install time.

Usage: PYTHONPATH=src python tools/make_benchmark_hamiltonians.py [--outdir PATH]

Validation printed per molecule: RHF and FCI energies, the Hartree-Fock
determinant expectation (must equal RHF), and the max reconstruction
error of the Pauli form against the dense matrix on a random vector.
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

import numpy as np
from scipy.linalg import eigh
from scipy.special import erf

from icshadows.io import write_hamiltonian
from icshadows.observables import PauliObservable

BOHR_PER_ANGSTROM = 1.0 / 0.52917721092
BOND_LENGTH_ANGSTROM = 0.7414

# contracted s shells as (exponent, contraction) lists
STO3G_H = [
    [(3.42525091, 0.15432897), (0.62391373, 0.53532814), (0.16885540, 0.44463454)],
]
BASIS_631G_H = [
    [(18.7311370, 0.03349460), (2.8253937, 0.23472695), (0.6401217, 0.81375733)],
    [(0.1612778, 1.0)],
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWER = (X + 1j * Y) / 2


def boys0(t):
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    return np.where(small, 1.0 - t / 3.0, 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe)))


def s_prim(a, A, b, B):
    p = a + b
    return (np.pi / p) ** 1.5 * np.exp(-a * b / p * np.dot(A - B, A - B))


def t_prim(a, A, b, B):
    p = a + b
    mu = a * b / p
    return mu * (3.0 - 2.0 * mu * np.dot(A - B, A - B)) * s_prim(a, A, b, B)


def v_prim(a, A, b, B, C, Zc):
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    return -Zc * 2.0 * np.pi / p * np.exp(-mu * np.dot(A - B, A - B)) * boys0(
        p * np.dot(P - C, P - C)
    )


def eri_prim(a, A, b, B, c, C, d, D):
    p, q = a + b, c + d
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    pref = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    return (
        pref
        * np.exp(-a * b / p * np.dot(A - B, A - B) - c * d / q * np.dot(C - D, C - D))
        * boys0(p * q / (p + q) * np.dot(P - Q, P - Q))
    )


def build_basis(centers, shells):
    basis = []
    for A in centers:
        for shell in shells:
            prims = [(a, coeff * (2.0 * a / np.pi) ** 0.75) for a, coeff in shell]
            norm = sum(
                ci * cj * s_prim(ai, A, aj, A) for ai, ci in prims for aj, cj in prims
            )
            basis.append((A, [(a, coeff / np.sqrt(norm)) for a, coeff in prims]))
    return basis


def molecular_integrals(centers, basis):
    nb = len(basis)
    S = np.zeros((nb, nb))
    T = np.zeros((nb, nb))
    V = np.zeros((nb, nb))
    for i, (A, pa) in enumerate(basis):
        for j, (B, pb) in enumerate(basis):
            for a, ca in pa:
                for b, cb in pb:
                    S[i, j] += ca * cb * s_prim(a, A, b, B)
                    T[i, j] += ca * cb * t_prim(a, A, b, B)
                    for C in centers:
                        V[i, j] += ca * cb * v_prim(a, A, b, B, C, 1.0)
    eri = np.zeros((nb, nb, nb, nb))
    for i, (A, pa) in enumerate(basis):
        for j, (B, pb) in enumerate(basis):
            for k, (C, pc) in enumerate(basis):
                for l, (D, pd) in enumerate(basis):
                    val = 0.0
                    for a, ca in pa:
                        for b, cb in pb:
                            for c, cc in pc:
                                for d, cd in pd:
                                    val += ca * cb * cc * cd * eri_prim(a, A, b, B, c, C, d, D)
                    eri[i, j, k, l] = val
    return S, T + V, eri


def restricted_hartree_fock(S, Hcore, eri, E_nuc):
    nb = S.shape[0]
    D = np.zeros((nb, nb))
    E_old = 0.0
    C = None
    for _ in range(300):
        F = (
            Hcore
            + 2.0 * np.einsum("ijkl,kl->ij", eri, D)
            - np.einsum("ikjl,kl->ij", eri, D)
        )
        _, C = eigh(F, S)
        D = C[:, :1] @ C[:, :1].T
        E = np.einsum("ij,ij->", D, Hcore + F) + E_nuc
        if abs(E - E_old) < 1e-13:
            break
        E_old = E
    return E, C


def spin_orbital_tensors(h_mo, eri_mo):
    """Blocked ordering: spin orbital p + s*nb for spatial p, spin s."""
    nb = h_mo.shape[0]
    nso = 2 * nb

    def so(p, s):
        return p + s * nb

    h1 = np.zeros((nso, nso))
    for p in range(nb):
        for q in range(nb):
            for s in (0, 1):
                h1[so(p, s), so(q, s)] = h_mo[p, q]
    g = np.zeros((nso, nso, nso, nso))
    for p, q, r, s in itertools.product(range(nb), repeat=4):
        for sp, sq in itertools.product((0, 1), repeat=2):
            g[so(p, sp), so(q, sq), so(r, sp), so(s, sq)] = eri_mo[p, r, q, s]
    return h1, g


def jordan_wigner_dense(h1, g, E_nuc):
    nso = h1.shape[0]
    a_ops = []
    for j in range(nso):
        m = np.array([[1.0 + 0j]])
        for k in range(nso):
            m = np.kron(m, Z if k < j else (LOWER if k == j else I2))
        a_ops.append(m)
    ad = [a.conj().T for a in a_ops]
    E_ops = {(p, q): ad[p] @ a_ops[q] for p in range(nso) for q in range(nso)}
    dim = 2**nso
    H = E_nuc * np.eye(dim, dtype=complex)
    for p in range(nso):
        for q in range(nso):
            if abs(h1[p, q]) > 1e-14:
                H += h1[p, q] * E_ops[(p, q)]
    for p, q, r, s in itertools.product(range(nso), repeat=4):
        if abs(g[p, q, r, s]) > 1e-14:
            # normal ordering: a+p a+q a_s a_r = E_pr E_qs - delta_qr E_ps
            term = E_ops[(p, r)] @ E_ops[(q, s)]
            if q == r:
                term = term - E_ops[(p, s)]
            H += 0.5 * g[p, q, r, s] * term
    return H


def pauli_decompose(H, n):
    t = H.reshape((2,) * (2 * n))
    perm = []
    for k in range(n):
        perm += [k, k + n]
    t = t.transpose(perm).copy()
    M = np.stack([p.T / 2.0 for p in (I2, X, Y, Z)])
    for _ in range(n):
        t = np.tensordot(t, M, axes=([0, 1], [1, 2]))
    return t


def pauli_terms(H, n, cutoff=1e-10):
    coef = pauli_decompose(H, n)
    letters = "IXYZ"
    terms = []
    for idx in np.argwhere(np.abs(coef) > cutoff):
        c = coef[tuple(idx)]
        assert abs(c.imag) < 1e-10
        terms.append((c.real, "".join(letters[i] for i in idx)))
    return terms


def apply_word(word, v, n):
    pauli = {"I": I2, "X": X, "Y": Y, "Z": Z}
    t = v.reshape((2,) * n)
    for k, ch in enumerate(word):
        if ch == "I":
            continue
        t = np.tensordot(pauli[ch], t, axes=([1], [k]))
        t = np.moveaxis(t, 0, k)
    return t.reshape(-1)


def build_h2(shells, label):
    R = BOND_LENGTH_ANGSTROM * BOHR_PER_ANGSTROM
    centers = [np.zeros(3), np.array([0.0, 0.0, R])]
    basis = build_basis(centers, shells)
    S, Hcore, eri = molecular_integrals(centers, basis)
    E_nuc = 1.0 / R
    E_rhf, C = restricted_hartree_fock(S, Hcore, eri, E_nuc)
    h_mo = C.T @ Hcore @ C
    eri_mo = np.einsum("pi,qj,rk,sl,pqrs->ijkl", C, C, C, C, eri, optimize=True)
    h1, g = spin_orbital_tensors(h_mo, eri_mo)
    H = jordan_wigner_dense(h1, g, E_nuc)
    nso = h1.shape[0]

    evals = np.linalg.eigvalsh(H)
    nb = len(basis)
    # HF determinant: lowest alpha and lowest beta spin orbital occupied
    hf_bits = ["0"] * nso
    hf_bits[0] = "1"
    hf_bits[nb] = "1"
    hf_index = int("".join(hf_bits), 2)
    hf_energy = H[hf_index, hf_index].real

    terms = pauli_terms(H, nso)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(2**nso) + 1j * rng.standard_normal(2**nso)
    recon = sum(c * apply_word(w, v, nso) for c, w in terms)
    err = np.max(np.abs(H @ v - recon))

    print(f"{label}: nso={nso} RHF={E_rhf:.12f} FCI={evals[0]:.12f}")
    print(f"{label}: <HF|H|HF>={hf_energy:.12f} (RHF check {abs(hf_energy - E_rhf):.2e})")
    print(f"{label}: {len(terms)} Pauli terms, reconstruction err {err:.2e}")
    assert abs(hf_energy - E_rhf) < 1e-10
    assert err < 1e-9
    return terms, E_rhf, evals[0], nso


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = Path(__file__).resolve().parent.parent / "src" / "icshadows" / "data"
    parser.add_argument("--outdir", type=Path, default=default_out)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    specs = [
        ("h2_sto3g_4q.txt", STO3G_H, "STO-3G"),
        ("h2_631g_8q.txt", BASIS_631G_H, "6-31G"),
    ]
    for filename, shells, basis_name in specs:
        terms, e_rhf, e_fci, nso = build_h2(shells, basis_name)
        comments = [
            f"H2 molecular Hamiltonian, {basis_name} basis, {nso} spin orbitals (qubits)",
            f"bond length {BOND_LENGTH_ANGSTROM} angstrom; restricted Hartree-Fock + full MO transform",
            "Jordan-Wigner encoding, blocked spin-orbital order (alpha block then beta block)",
            f"RHF energy {e_rhf:.12f} Ha; exact ground energy {e_fci:.12f} Ha (both include nuclear repulsion)",
            "generated by tools/make_benchmark_hamiltonians.py; regenerate with that script",
        ]
        write_hamiltonian(args.outdir / filename, PauliObservable.from_terms(terms), comments)
        print(f"wrote {args.outdir / filename} ({len(terms)} terms)")


if __name__ == "__main__":
    main()
