"""Group-state reconstruction from outcome histograms, and the k-local
duals learned from it.

Three backends with different bias/effort trade-offs: raw frequencies
mixed toward uniform (no state, probability vector only), linear
inversion snapped to the closest density matrix, and a least-absolute-
deviation fit over the density-matrix set by projected subgradient
descent. All are deterministic. :func:`klo_duals` drives
:func:`reconstruct` once per group of a partition of a dataset.

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
from .correlations import resolve_partitioner
from .frames import PROBABILITY_FLOOR, GlobalDuals, canonical_duals, optimal_global
from .partition import Partition
from .povm import ProductPOVM, outcome_probabilities, pauli6_product
from .sampling import Dataset, MarginalTable, marginal_counts
from .states import DensityMatrix

__all__ = [
    "FrequencyBias",
    "LinearInversionPSD",
    "ConstrainedLAD",
    "ReconstructionReport",
    "linear_inversion",
    "reconstruct",
    "klo_duals",
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
    converged: bool = True

    def __post_init__(self):
        if not self.residual >= 0:
            raise ValueError("residual must be non-negative")


def linear_inversion(mt: MarginalTable, duals: np.ndarray) -> np.ndarray:
    """Frequency-weighted dual sum; Hermitian and unit trace but not PSD.

    ``duals`` is a real ``(M, dim^2)`` coordinate matrix, such as a
    frame's ``DualFrame.duals``.
    """
    duals = np.asarray(duals)
    f = mt.frequencies
    if duals.shape[0] != f.shape[0]:
        raise ValueError("dual count does not match the outcome count")
    return hermitian_stack(f @ duals)


def _residual(f: np.ndarray, probs: np.ndarray) -> float:
    return float(np.abs(f - probs).sum())


def reconstruct(mt: MarginalTable, povm: ProductPOVM, backend):
    """Reconstruct the state of the table's group (or a surrogate probability vector).

    The group's effects are the POVM's on ``mt.group``. The physical
    backends start from linear inversion with the group's canonical duals,
    built as Kronecker products of each qubit's canonical duals (canonical
    duals of a product POVM factorize), so no group-sized frame is solved.

    Returns ``(array, report)``: the validated state's read-only matrix
    for the physical backends, the probability vector for FrequencyBias.
    """
    group = mt.group
    if not all(0 <= q < povm.n for q in group):
        raise ValueError(f"marginal table group {group} does not match the {povm.n}-qubit POVM")
    dim = 2 ** len(group)
    if dim > DIMENSION_CAP:
        raise ValueError(f"group dimension {dim} exceeds the cap {DIMENSION_CAP}")
    if mt.S == 0:
        raise ValueError("empty dataset")
    f = mt.frequencies
    M = math.prod(povm.locals[q].d for q in group)
    if f.shape != (M,):
        raise ValueError("marginal table does not match the effect count")

    if isinstance(backend, FrequencyBias):
        probs = (mt.counts + backend.S_bias / M) / (mt.S + backend.S_bias)
        return probs, ReconstructionReport(residual=_residual(f, probs), iterations=0)

    effects = povm.group_effects(group)
    # one solve per distinct local POVM; a product POVM usually repeats one
    solved: dict[int, np.ndarray] = {}
    for q in group:
        local = povm.locals[q]
        if id(local) not in solved:
            frame = canonical_duals(povm.group_effects((q,)), (q,))
            solved[id(local)] = hermitian_stack(frame.duals)
    start = kron_coords([solved[id(povm.locals[q])] for q in group])
    init = project_to_density(linear_inversion(mt, start))
    n = len(group)
    if isinstance(backend, LinearInversionPSD):
        report = ReconstructionReport(
            residual=_residual(f, outcome_probabilities(effects, init)), iterations=0
        )
        return DensityMatrix(n, init).matrix, report

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
        report = ReconstructionReport(residual=best_r, iterations=it, converged=converged)
        return DensityMatrix(n, best).matrix, report

    raise TypeError(f"unknown backend {type(backend).__name__}")


def klo_duals(
    ds: Dataset,
    k: int = 4,
    backend=None,
    partitioner="greedy",
    floor: float = PROBABILITY_FLOOR,
) -> GlobalDuals:
    """Per-group optimal duals learned from shot data.

    Pipeline: partition the qubits, histogram each group's outcomes,
    reconstruct each group state with the tomography backend (LAD by
    default), and invert the predicted probabilities into weights.
    ``partitioner`` is a name from ``correlations.PARTITIONERS``, called
    with ``(ds, k)``, or an explicit Partition, which ``k`` does not bound.
    """
    if ds.S == 0:
        raise ValueError("empty dataset")
    if ds.povm_id != "pauli6":
        raise ValueError("dataset does not declare a known POVM")
    povm = pauli6_product(ds.n)
    if backend is None:
        backend = ConstrainedLAD()
    if isinstance(partitioner, Partition):
        partition = partitioner
    else:
        partition = resolve_partitioner(partitioner)(ds, k)
    sigmas = (reconstruct(marginal_counts(ds, g), povm, backend)[0] for g in partition.groups)
    return optimal_global(partition, sigmas, povm, floor, f"klo-{type(backend).__name__}")
