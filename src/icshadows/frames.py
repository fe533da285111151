"""Dual frames for overcomplete POVMs and their optimization.

An overcomplete POVM admits infinitely many dual frames, every one of
which gives an unbiased estimator. The constructors here differ only in
the frame-operator weights: canonical duals weight each effect by
1/Tr[effect], optimal duals by inverse outcome probabilities, and k-local
duals apply the optimal rule per qubit group with probabilities predicted
from reconstructed group states. Validity is never assumed: every
constructed frame is checked against the duality identity at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .correlations import greedy_partition, resolve_partitioner
from .partition import Partition
from .povm import ProductPOVM, outcome_probabilities, pauli6_product
from .sampling import Dataset, marginal_counts
from .states import DensityMatrix

__all__ = [
    "DUALITY_TOL",
    "DualFrame",
    "GlobalDuals",
    "duality_residual",
    "duals_from_weights",
    "canonical_weights",
    "canonical_duals",
    "canonical_global",
    "optimal_duals",
    "optimal_global",
    "klo_duals",
    "state_mse",
    "optimize_product_duals",
]

DUALITY_TOL = 1e-8
CONDITION_BOUND = 1e12
PROBABILITY_FLOOR = 1e-10


@dataclass(frozen=True)
class DualFrame:
    """Dual operators for one group's effects, validated at construction.

    ``duals[m]`` is Hermitian and the stack satisfies the duality
    identity against ``effects`` to within ``DUALITY_TOL``, which is the
    unbiasedness certificate for any estimator built on this frame.
    """

    group: tuple[int, ...]
    effects: np.ndarray  # (M, dim, dim)
    duals: np.ndarray  # (M, dim, dim)
    provenance: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(int(q) for q in self.group))
        eff = np.asarray(self.effects, dtype=complex)
        du = np.asarray(self.duals, dtype=complex)
        if eff.shape != du.shape or eff.ndim != 3:
            raise ValueError("effects and duals must be matching (M, dim, dim) stacks")
        if not (np.isfinite(eff).all() and np.isfinite(du).all()):
            raise ValueError("effects and duals must be finite")
        resid = duality_residual(du, eff)
        if not resid <= DUALITY_TOL:
            raise ValueError(f"duality residual {resid:.3e} exceeds {DUALITY_TOL}")
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "duals", du)
        self.effects.setflags(write=False)
        self.duals.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.duals.shape[0]

    @property
    def dim(self) -> int:
        return self.duals.shape[1]


@dataclass(frozen=True)
class GlobalDuals:
    """One dual frame per partition group; the global dual is their product."""

    partition: Partition
    frames: tuple[DualFrame, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) != len(self.partition.groups):
            raise ValueError("need exactly one frame per group")
        for frame, group in zip(self.frames, self.partition.groups):
            if frame.group != group:
                raise ValueError(f"frame group {frame.group} does not match {group}")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def provenance(self) -> str:
        tags = {f.provenance for f in self.frames}
        return tags.pop() if len(tags) == 1 else "mixed"


def duality_residual(duals: np.ndarray, effects: np.ndarray) -> float:
    """Max-entry deviation of Σ_m |dual_m⟩⟩⟨⟨effect_m| from the identity."""
    M, dim = effects.shape[0], effects.shape[1]
    s = duals.reshape(M, -1).T @ effects.reshape(M, -1).conj()
    return float(np.abs(s - np.eye(dim * dim)).max())


def duals_from_weights(
    effects: np.ndarray,
    weights,
    group=None,
    provenance: str = "custom",
    cond_bound: float = CONDITION_BOUND,
) -> DualFrame:
    """Solve the weighted frame equation for the dual operators.

    Works on the square root of the frame operator: with A the tall
    (M x dim^2) matrix of weighted vectorized effects, A = U diag(s) Vh,
    the duals are the rows of U diag(1/s) Vh scaled back by the square
    roots of the weights. The SVD is taken of A itself rather than of its
    wide transpose (the singular values are the same, and LAPACK is
    faster on the tall, C-contiguous form), and conditioning stays at the
    square root of the frame operator's.
    """
    effects = np.asarray(effects, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    M, dim = effects.shape[0], effects.shape[1]
    if weights.shape != (M,):
        raise ValueError("need one weight per effect")
    if np.any(weights <= 0):
        raise ValueError("frame weights must be strictly positive")
    root = np.sqrt(weights)[:, None]
    U, s, Vh = np.linalg.svd(root * effects.reshape(M, -1), full_matrices=False)
    if M < dim * dim or s[-1] <= 0 or (s[0] / s[-1]) ** 2 > cond_bound:
        raise ValueError(
            "frame operator is singular or ill-conditioned; "
            "the effect set is not informationally complete under these weights"
        )
    duals = (((root * U) / s) @ Vh).reshape(M, dim, dim)
    duals = 0.5 * (duals + np.conj(np.transpose(duals, (0, 2, 1))))
    if group is None:
        group = range(int(round(np.log2(dim))))
    return DualFrame(group=tuple(group), effects=effects, duals=duals, provenance=provenance)


def canonical_weights(effects: np.ndarray) -> np.ndarray:
    traces = np.einsum("maa->m", np.asarray(effects, dtype=complex)).real
    if np.any(traces <= 0):
        raise ValueError("every effect needs a positive trace")
    return 1.0 / traces


def canonical_duals(effects: np.ndarray, group=None) -> DualFrame:
    return duals_from_weights(
        effects, canonical_weights(effects), group=group, provenance="canonical"
    )


def canonical_global(povm: ProductPOVM, partition: Partition | None = None) -> GlobalDuals:
    """Canonical dual frame per group (the grouping is estimation plumbing
    only; canonical duals factorize, so any partition gives the same
    global dual)."""
    if partition is None:
        partition = Partition.singletons(povm.n)
    frames = tuple(
        canonical_duals(povm.group_effects(g), group=g) for g in partition.groups
    )
    return GlobalDuals(partition=partition, frames=frames)


def optimal_duals(
    sigma,
    effects: np.ndarray,
    floor: float = PROBABILITY_FLOOR,
    group=None,
    provenance: str = "optimal",
) -> DualFrame:
    """Variance-minimizing duals from a state or an outcome-probability vector.

    Weights are inverse predicted probabilities with an absolute floor,
    so zero or negative predictions degrade variance but never validity.
    The floor must therefore be finite and positive.
    """
    if not (np.isfinite(floor) and floor > 0):
        raise ValueError(f"floor must be finite and positive, got {floor!r}")
    effects = np.asarray(effects, dtype=complex)
    if isinstance(sigma, DensityMatrix):
        probs = outcome_probabilities(effects, sigma.matrix)
    else:
        sigma = np.asarray(sigma)
        if sigma.ndim == 2:
            probs = outcome_probabilities(effects, sigma)
        else:
            probs = sigma.real.astype(float)
    if probs.shape != (effects.shape[0],):
        raise ValueError("probability vector length does not match the effect count")
    weights = 1.0 / np.maximum(probs, floor)
    return duals_from_weights(effects, weights, group=group, provenance=provenance)


def optimal_global(
    partition: Partition,
    sigmas,
    povm: ProductPOVM,
    floor: float = PROBABILITY_FLOOR,
    provenance: str = "optimal",
) -> GlobalDuals:
    """Optimal duals per group, from one state or probability vector per
    group in partition order (the counterpart of :func:`canonical_global`)."""
    frames = tuple(
        optimal_duals(sigma, povm.group_effects(g), floor=floor, group=g, provenance=provenance)
        for g, sigma in zip(partition.groups, sigmas, strict=True)
    )
    return GlobalDuals(partition=partition, frames=frames)


def klo_duals(
    ds: Dataset,
    k: int = 4,
    backend=None,
    partitioner=greedy_partition,
    povm: ProductPOVM | None = None,
    floor: float = PROBABILITY_FLOOR,
) -> GlobalDuals:
    """Per-group optimal duals learned from shot data.

    Pipeline: partition the qubits, histogram each group's outcomes,
    reconstruct each group state with the tomography backend, and invert
    the predicted probabilities into weights. ``partitioner`` is a name
    from ``correlations.PARTITIONERS``, a callable ``(dataset, k) ->
    Partition``, or an explicit Partition.
    """
    from .tomography import ConstrainedLAD, reconstruct

    if ds.S == 0:
        raise ValueError("empty dataset")
    if povm is None:
        if ds.povm_id != "pauli6":
            raise ValueError("dataset does not declare a known POVM; pass one explicitly")
        povm = pauli6_product(ds.n)
    if backend is None:
        backend = ConstrainedLAD()
    if isinstance(partitioner, Partition):
        partition = partitioner
    else:
        partition = resolve_partitioner(partitioner)(ds, k)
    sigmas = (reconstruct(marginal_counts(ds, g), povm, backend)[0] for g in partition.groups)
    return optimal_global(partition, sigmas, povm, floor, f"klo-{type(backend).__name__}")


def _tr2(duals: np.ndarray) -> np.ndarray:
    """Tr[D_m^2] per outcome (= squared Frobenius norm for Hermitian D)."""
    return np.einsum("mab,mba->m", duals, duals).real


def state_mse(duals, probabilities, rho) -> float:
    """Mean squared Frobenius error of the single-shot state estimator.

    Accepts one DualFrame with that group's outcome probabilities, or a
    GlobalDuals with joint probabilities over the full outcome space,
    row-major over ascending qubit index in both cases.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    purity = np.einsum("ab,ba->", rho_mat, rho_mat).real
    if isinstance(duals, DualFrame):
        tr2 = _tr2(duals.duals)
    else:
        tr2 = np.ones(1)
        for frame in duals.frames:
            tr2 = np.multiply.outer(tr2, _tr2(frame.duals)).reshape(-1)
        order = [q for g in duals.partition.groups for q in g]
        if order != sorted(order):
            k0 = len(duals.partition.groups[0])
            d = int(round(duals.frames[0].outcomes ** (1.0 / k0)))
            probabilities = (
                probabilities.reshape((d,) * len(order)).transpose(order).reshape(-1)
            )
    if probabilities.shape != tr2.shape:
        raise ValueError("probability vector does not match the outcome space")
    return float(probabilities @ tr2 - purity)


def _hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis, so real coefficient vectors stay Hermitian."""
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return np.stack(basis)


def _duality_null_directions(effects: np.ndarray) -> np.ndarray:
    """Hermitian stacks N with Σ_m |N_m⟩⟩⟨⟨Π_m| = 0 (duality-preserving moves)."""
    M, dim = effects.shape[0], effects.shape[1]
    herm = _hermitian_basis(dim)
    evecs = effects.reshape(M, -1).conj()
    hvecs = herm.reshape(dim * dim, -1)
    # column (m, a) of the constraint map is vec(E_a) ⊗ ⟨⟨Π_m|
    cols = np.einsum("ai,mj->ijma", hvecs, evecs).reshape(dim**4, M * dim * dim)
    null = scipy.linalg.null_space(np.vstack([cols.real, cols.imag]))
    coeffs = null.T.reshape(-1, M, dim * dim)
    return np.einsum("xma,aij->xmij", coeffs, herm)


def optimize_product_duals(
    probabilities,
    partition: Partition,
    rho,
    max_sweeps: int = 500,
    tol: float = 1e-10,
    cap: int = 4,
) -> tuple[GlobalDuals, float, int]:
    """Best product-structured duals for state estimation, by coordinate descent.

    Each site's duals move only along duality-preserving directions, so
    every iterate is a valid frame. With the other sites frozen the MSE
    is a convex quadratic in one site's coordinates and is minimized in
    closed form; sweeps repeat until the objective stalls. Returns the
    frames, the final MSE, and the sweep count.
    """
    if partition.n > cap:
        raise ValueError(f"{partition.n} qubits exceeds the optimizer cap {cap}")
    probabilities = np.asarray(probabilities, dtype=float)
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    purity = np.einsum("ab,ba->", rho_mat, rho_mat).real

    povm = pauli6_product(partition.n)
    groups = partition.groups
    effects = [povm.group_effects(g) for g in groups]
    sites = [canonical_duals(e, group=g).duals.copy() for e, g in zip(effects, groups)]
    nulls = [_duality_null_directions(e) for e in effects]

    # joint probabilities arrive row-major over qubit index; fold to one
    # axis per group, in group order
    order = [q for g in groups for q in g]
    per_qubit = probabilities.reshape((6,) * partition.n)
    p_grouped = per_qubit.transpose(order).reshape([6 ** len(g) for g in groups])

    def site_weights(s: int) -> np.ndarray:
        q = p_grouped
        for t in reversed(range(len(sites))):
            if t == s:
                continue
            q = np.tensordot(q, _tr2(sites[t]), axes=([t], [0]))
        return q

    def objective() -> float:
        q = p_grouped
        for t in reversed(range(len(sites))):
            q = np.tensordot(q, _tr2(sites[t]), axes=([t], [0]))
        return float(q - purity)

    prev = objective()
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        for s in range(len(sites)):
            q = site_weights(s)
            N = nulls[s]
            nn = np.einsum("xmab,ymba->xym", N, N).real
            H = 2.0 * np.einsum("xym,m->xy", nn, q)
            dn = np.einsum("mab,xmba->xm", sites[s], N).real
            c = 2.0 * np.einsum("xm,m->x", dn, q)
            x, *_ = np.linalg.lstsq(H, -c, rcond=None)
            sites[s] = sites[s] + np.einsum("x,xmab->mab", x, N)
        cur = objective()
        if cur > prev + 1e-12:
            raise AssertionError("objective increased; optimizer step is broken")
        if prev - cur < tol:
            prev = cur
            break
        prev = cur
    frames = tuple(
        DualFrame(group=g, effects=e, duals=d, provenance="optimized-product")
        for g, e, d in zip(groups, effects, sites)
    )
    return GlobalDuals(partition=partition, frames=frames), prev, sweep
