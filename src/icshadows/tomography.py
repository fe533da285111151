"""Group-state reconstruction from outcome histograms.

Three backends with different bias/effort trade-offs: raw frequencies
mixed toward uniform (no state, probability vector only), linear
inversion snapped to the closest density matrix, and a least-absolute-
deviation fit over the density-matrix set by projected subgradient
descent. All are deterministic.

Effects and duals are real coordinate matrices (:mod:`icshadows.algebra`),
so every contraction with them is one real product: predicted
probabilities are ``A @ hermitian_coords(rho)``
(:func:`~icshadows.povm.outcome_probabilities`), and the linear-inversion
estimate and the LAD subgradient are ``hermitian_stack(f @ X)`` and
``hermitian_stack(w @ A)``, exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import hermitian_stack, kron_coords, project_to_density
from .frames import canonical_duals, DualFrame
from .povm import ProductPOVM, outcome_probabilities
from .sampling import MarginalTable
from .states import DensityMatrix

__all__ = [
    "FrequencyBias",
    "LinearInversionPSD",
    "ConstrainedLAD",
    "ReconstructionReport",
    "linear_inversion",
    "reconstruct",
]

DIMENSION_CAP = 16
LAD_MAX_ITERS = 5000
LAD_TOLERANCE = 1e-7
LAD_WINDOW = 100


@dataclass(frozen=True)
class FrequencyBias:
    """Pseudo-count mixing of empirical frequencies toward uniform."""

    S_bias: float

    def __post_init__(self):
        if not math.isfinite(self.S_bias) or self.S_bias < 0:
            raise ValueError("S_bias must be finite and non-negative")


@dataclass(frozen=True)
class LinearInversionPSD:
    """Linear inversion followed by projection onto density matrices."""


@dataclass(frozen=True)
class ConstrainedLAD:
    """Least-absolute-deviation fit constrained to density matrices.

    Projected subgradient descent with step 1/sqrt(t) at the 1-based
    iteration t, for at most ``LAD_MAX_ITERS`` iterations. Convergence is
    declared when the best residual improves by less than
    ``LAD_TOLERANCE`` over a ``LAD_WINDOW``-iteration window.
    """


@dataclass(frozen=True)
class ReconstructionReport:
    residual: float
    iterations: int
    backend: object
    converged: bool = True

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be non-negative")


def linear_inversion(mt: MarginalTable, duals) -> np.ndarray:
    """Frequency-weighted dual sum; Hermitian and unit trace but not PSD.

    ``duals`` is a DualFrame or a real ``(M, dim^2)`` coordinate matrix.
    """
    coords = duals.duals if isinstance(duals, DualFrame) else np.asarray(duals)
    f = mt.frequencies
    if coords.shape[0] != f.shape[0]:
        raise ValueError("dual count does not match the outcome count")
    return hermitian_stack(f @ coords)


def _residual(f: np.ndarray, probs: np.ndarray) -> float:
    return float(np.abs(f - probs).sum())


def reconstruct(mt: MarginalTable, povm: ProductPOVM, backend):
    """Reconstruct the state of the table's group (or a surrogate probability vector).

    The group's effects are the POVM's on ``mt.group``. The physical
    backends start from linear inversion with the group's canonical duals,
    built as Kronecker products of each qubit's canonical duals (canonical
    duals of a product POVM factorize), so no group-sized frame is solved.

    Returns ``(DensityMatrix, report)`` for the physical backends and
    ``(probability_vector, report)`` for FrequencyBias.
    """
    group = mt.group
    if not all(0 <= q < povm.n for q in group):
        raise ValueError(f"marginal table group {group} does not match the {povm.n}-qubit POVM")
    dim = 2 ** len(group)
    if dim > DIMENSION_CAP:
        raise ValueError(f"group dimension {dim} exceeds the cap {DIMENSION_CAP}")
    f = mt.frequencies
    M = math.prod(povm.locals[q].d for q in group)
    if f.shape != (M,):
        raise ValueError("marginal table does not match the effect count")

    if isinstance(backend, FrequencyBias):
        probs = (mt.counts + backend.S_bias / M) / (mt.S + backend.S_bias)
        report = ReconstructionReport(
            residual=_residual(f, probs), iterations=0, backend=backend
        )
        return probs, report

    effects = povm.group_effects(group)
    # one solve per distinct local POVM; a product POVM usually repeats one
    solved: dict[int, np.ndarray] = {}
    for q in group:
        local = povm.locals[q]
        if id(local) not in solved:
            solved[id(local)] = hermitian_stack(canonical_duals(povm.group_effects((q,))).duals)
    start = kron_coords([solved[id(povm.locals[q])] for q in group])
    init = project_to_density(linear_inversion(mt, start))
    n = len(group)
    if isinstance(backend, LinearInversionPSD):
        report = ReconstructionReport(
            residual=_residual(f, outcome_probabilities(effects, init)),
            iterations=0,
            backend=backend,
        )
        return DensityMatrix(n, init), report

    if isinstance(backend, ConstrainedLAD):
        sigma = init
        best = sigma
        # p always holds the probabilities of the current iterate
        p = outcome_probabilities(effects, sigma)
        best_r = _residual(f, p)
        window_r = best_r
        converged = False
        it = 0
        for it in range(1, LAD_MAX_ITERS + 1):
            grad = -hermitian_stack(np.sign(f - p) @ effects)
            sigma = project_to_density(sigma - (1.0 / math.sqrt(it)) * grad)
            p = outcome_probabilities(effects, sigma)
            rr = _residual(f, p)
            if rr < best_r:
                best_r = rr
                best = sigma
            if it % LAD_WINDOW == 0:
                if window_r - best_r < LAD_TOLERANCE:
                    converged = True
                    break
                window_r = best_r
        report = ReconstructionReport(
            residual=best_r, iterations=it, backend=backend, converged=converged
        )
        return DensityMatrix(n, best), report

    raise TypeError(f"unknown backend {type(backend).__name__}")

