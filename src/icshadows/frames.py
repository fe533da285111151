"""Dual frames for overcomplete POVMs and their optimization.

An overcomplete POVM admits infinitely many dual frames, every one of
which gives an unbiased estimator. The constructors here differ only in
the frame-operator weights: canonical duals weight each effect by
1/Tr[effect], optimal duals by inverse outcome probabilities, and k-local
duals apply the optimal rule per qubit group with probabilities predicted
from reconstructed group states. Validity is never assumed: every
constructed frame is checked against the duality identity at build time.

The weights 1/p are optimal by one identity: over all duals of effects Π,
Σ_m p_m Tr[D_m²] is least at D_m = F⁻¹(Π_m) / p_m, F = Σ_m |Π_m⟩⟩⟨⟨Π_m| / p_m,
so each site step of :func:`optimize_product_duals` is one weighted solve.

Effects and duals are Hermitian, so ``DualFrame.effects`` and
``DualFrame.duals`` are real ``(M, dim^2)`` coordinate matrices in an
orthonormal Hermitian basis (:func:`~icshadows.algebra.hermitian_coords`),
the form :meth:`~icshadows.povm.ProductPOVM.group_effects` returns: every
frame is Hermitian by construction, and the frame equation is solved and
checked over the reals. The map is unitary on Hermitian operators, so
singular values, frame conditioning and Frobenius norms carry over
unchanged. :class:`DualFrame`, :func:`duals_from_weights`,
:func:`duality_residual` and :func:`optimal_duals` take these coordinates
only; a complex stack from outside the program is converted where it
enters (:func:`~icshadows.io.read_duals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import hermitianize
from .partition import Partition
from .povm import ProductPOVM, outcome_probabilities, pauli6_product
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
    "state_mse",
    "optimize_product_duals",
]

DUALITY_TOL = 1e-8
CONDITION_BOUND = 1e12
PROBABILITY_FLOOR = 1e-10
PRODUCT_SWEEPS = 500
PRODUCT_TOL = 1e-10
PRODUCT_QUBIT_CAP = 4


@dataclass(frozen=True)
class DualFrame:
    """Dual operators for one group's effects, validated at construction.

    ``effects`` and ``duals`` are real ``(M, dim^2)`` coordinates that
    satisfy the duality identity to within ``DUALITY_TOL``, checked once by
    :func:`duality_residual`: the unbiasedness certificate for any
    estimator built on this frame. The frame holds them read-only: a
    read-only input is kept as it is, and a writeable one is copied, so
    the caller's array stays writeable and later writes to it do not
    reach the frame.
    """

    group: tuple[int, ...]
    effects: np.ndarray  # (M, dim^2) real coordinates
    duals: np.ndarray  # (M, dim^2) real coordinates
    provenance: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(int(q) for q in self.group))
        eff = _coordinates(self.effects, "effects")
        du = _coordinates(self.duals, "duals")
        if eff.shape != du.shape:
            raise ValueError("effects and duals must be matching stacks")
        resid = duality_residual(du, eff)
        if not resid <= DUALITY_TOL:
            raise ValueError(f"duality residual {resid:.3e} exceeds {DUALITY_TOL}")
        for name, coords in (("effects", eff), ("duals", du)):
            if coords.flags.writeable:
                coords = coords.copy()
                coords.setflags(write=False)
            object.__setattr__(self, name, coords)

    @property
    def outcomes(self) -> int:
        return self.duals.shape[0]

    @property
    def dim(self) -> int:
        return math.isqrt(self.duals.shape[1])


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


def _coordinates(coords, name: str) -> np.ndarray:
    """``coords`` as real ``(M, dim^2)`` Hermitian coordinates, or ``ValueError``."""
    coords = np.asarray(coords)
    square = coords.ndim == 2 and math.isqrt(coords.shape[1]) ** 2 == coords.shape[1]
    if not square or np.iscomplexobj(coords):
        raise ValueError(f"{name} must be real (M, dim^2) coordinates")
    return coords.astype(float, copy=False)


def duality_residual(duals: np.ndarray, effects: np.ndarray) -> float:
    """Frobenius norm of Σ_m |dual_m⟩⟩⟨⟨effect_m| − 1, from coordinates.

    With X (duals) and A (effects) the real Hermitian coordinates, the
    frame superoperator is the real matrix Xᵀ A, unitarily similar to the
    complex one, so this is also the complex matrix's Frobenius norm and
    bounds its largest entry from above. Non-finite entries raise
    ``ValueError``.
    """
    X, A = _coordinates(duals, "duals"), _coordinates(effects, "effects")
    if not (np.isfinite(X).all() and np.isfinite(A).all()):
        raise ValueError("effects and duals must be finite")
    gram = X.T @ A
    gram.flat[:: gram.shape[0] + 1] -= 1.0  # the identity's diagonal
    # huge finite entries (a corrupt file) overflow to an infinite residual
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(gram))


def duals_from_weights(
    effects: np.ndarray,
    weights,
    group,
    provenance: str = "custom",
) -> DualFrame:
    """Solve the weighted frame equation for the dual operators.

    Works on the square root of the frame operator, over the reals: with
    A the tall (M x dim^2) matrix of the effects' Hermitian coordinates
    scaled by the square roots of the weights, A = U diag(s) Vh, the
    duals' coordinates are the rows of U diag(1/s) Vh scaled back by the
    same square roots. The coordinate map is unitary on Hermitian
    operators, so s are the singular values of the complex weighted
    effect matrix and conditioning stays at the square root of the frame
    operator's. The SVD is taken of A itself rather than of its wide
    transpose (LAPACK is faster on the tall, C-contiguous form), and its
    output coordinates are the frame's duals.
    """
    effects = _coordinates(effects, "effects")
    weights = np.asarray(weights, dtype=float)
    M, dim2 = effects.shape
    if weights.shape != (M,):
        raise ValueError("need one weight per effect")
    # written so that a NaN fails the check instead of passing it
    if not (np.isfinite(weights).all() and np.all(weights > 0)):
        raise ValueError("frame weights must be finite and strictly positive")
    root = np.sqrt(weights)[:, None]
    U, s, Vh = np.linalg.svd(root * effects, full_matrices=False)
    if M < dim2 or s[-1] <= 0 or (s[0] / s[-1]) ** 2 > CONDITION_BOUND:
        raise ValueError(
            "frame operator is singular or ill-conditioned; "
            "the effect set is not informationally complete under these weights"
        )
    duals = ((root * U) / s) @ Vh
    duals.setflags(write=False)  # fresh, so the frame keeps it without a copy
    return DualFrame(group=tuple(group), effects=effects, duals=duals, provenance=provenance)


def canonical_weights(effects: np.ndarray) -> np.ndarray:
    """1/Tr[effect] per effect; a row's diagonal coordinates sum to the trace."""
    effects = _coordinates(effects, "effects")
    # summed left to right, as a trace of the complex stack is, to the same bits
    traces = np.cumsum(effects[:, : math.isqrt(effects.shape[1])], axis=1)[:, -1]
    if np.any(traces <= 0):
        raise ValueError("every effect needs a positive trace")
    return 1.0 / traces


def canonical_duals(effects: np.ndarray, group) -> DualFrame:
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
    group,
    floor: float = PROBABILITY_FLOOR,
    provenance: str = "optimal",
) -> DualFrame:
    """Variance-minimizing duals from a state or an outcome-probability vector.

    Weights are inverse predicted probabilities with an absolute floor,
    so zero or negative predictions degrade variance but never validity.
    The floor must therefore be finite and positive. A state (a 2-d
    ``sigma``) must be a finite Hermitian matrix of the effects' dimension
    (:func:`~icshadows.algebra.hermitianize`); a probability vector must
    be finite.
    """
    if not (np.isfinite(floor) and floor > 0):
        raise ValueError(f"floor must be finite and positive, got {floor!r}")
    effects = _coordinates(effects, "effects")
    sigma = np.asarray(sigma.matrix if isinstance(sigma, DensityMatrix) else sigma)
    if sigma.ndim == 2:
        dim = math.isqrt(effects.shape[1])
        if sigma.shape != (dim, dim):
            raise ValueError(f"state of shape {sigma.shape} does not match the {dim} x {dim} effects")
        probs = outcome_probabilities(effects, hermitianize(sigma))
    else:
        if not np.isfinite(sigma).all():
            raise ValueError("probability vector has non-finite entries")
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
        optimal_duals(sigma, povm.group_effects(g), g, floor=floor, provenance=provenance)
        for g, sigma in zip(partition.groups, sigmas, strict=True)
    )
    return GlobalDuals(partition=partition, frames=frames)


def _tr2(duals: np.ndarray) -> np.ndarray:
    """Tr[D_m^2] per outcome: the squared norm of each coordinate row."""
    return np.einsum("ma,ma->m", duals, duals)


def state_mse(duals: GlobalDuals, probabilities, rho) -> float:
    """Mean squared Frobenius error of the single-shot state estimator.

    ``probabilities`` are the joint outcome probabilities over the full
    outcome space, row-major over ascending qubit index, whatever the
    order of the partition's groups.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    purity = np.einsum("ab,ba->", rho_mat, rho_mat).real
    tr2 = np.ones(1)
    for frame in duals.frames:
        tr2 = np.multiply.outer(tr2, _tr2(frame.duals)).reshape(-1)
    order = [q for g in duals.partition.groups for q in g]
    if order != sorted(order):
        k0 = len(duals.partition.groups[0])
        d = int(round(duals.frames[0].outcomes ** (1.0 / k0)))
        probabilities = probabilities.reshape((d,) * len(order)).transpose(order).reshape(-1)
    if probabilities.shape != tr2.shape:
        raise ValueError("probability vector does not match the outcome space")
    return float(probabilities @ tr2 - purity)


def optimize_product_duals(
    probabilities,
    partition: Partition,
    rho,
) -> tuple[GlobalDuals, float, int]:
    """Best product-structured duals for state estimation, by coordinate descent.

    With the other sites frozen, the MSE is Σ_m q_m Tr[D_m²] − Tr[ρ²] over
    one site's duals, q being the site's outcome probabilities weighted by
    the frozen sites' Tr[D²]. Its minimiser under the frame equation is the
    weighted dual D_m = (1/q_m) F⁻¹(Π_m), F = Σ_m |Π_m⟩⟩⟨⟨Π_m| / q_m, so each
    site step is one :func:`duals_from_weights` solve with weights 1/q and
    every iterate is a validated frame. Sweeps start from canonical duals
    and stop once one improves the MSE by less than ``PRODUCT_TOL``, after at
    most ``PRODUCT_SWEEPS``, on at most ``PRODUCT_QUBIT_CAP`` qubits. Returns
    the frames, the final MSE and the sweep count.
    """
    if partition.n > PRODUCT_QUBIT_CAP:
        raise ValueError(f"{partition.n} qubits exceeds the optimizer cap {PRODUCT_QUBIT_CAP}")
    probabilities = np.asarray(probabilities, dtype=float)
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    purity = np.einsum("ab,ba->", rho_mat, rho_mat).real
    povm = pauli6_product(partition.n)
    groups = partition.groups
    sites = [canonical_duals(povm.group_effects(g), group=g) for g in groups]

    # joint probabilities arrive row-major over qubit index; fold to one
    # axis per group, in group order
    order = [q for g in groups for q in g]
    per_qubit = probabilities.reshape((6,) * partition.n)
    p_grouped = per_qubit.transpose(order).reshape([6 ** len(g) for g in groups])

    def site_weights(s: int | None = None) -> np.ndarray:
        """The probabilities contracted with every site's Tr[D²] but site s's."""
        q = p_grouped
        for t in reversed(range(len(sites))):
            if t != s:
                q = np.tensordot(q, _tr2(sites[t].duals), axes=([t], [0]))
        return q

    cur = float(site_weights() - purity)
    sweep = 0
    for sweep in range(1, PRODUCT_SWEEPS + 1):
        prev = cur
        for s, g in enumerate(groups):
            weights = 1.0 / np.maximum(site_weights(s), PROBABILITY_FLOOR)
            sites[s] = duals_from_weights(
                sites[s].effects, weights, group=g, provenance="optimized-product"
            )
        cur = float(site_weights() - purity)
        # exact per-site minimisers raise the MSE by no more than re-solve round-off
        if cur > prev + 1e-12 + 64 * np.finfo(float).eps * abs(prev):
            raise AssertionError("objective increased; optimizer step is broken")
        if prev - cur < PRODUCT_TOL:
            break
    return GlobalDuals(partition=partition, frames=tuple(sites)), cur, sweep
