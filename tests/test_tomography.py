import warnings

import numpy as np
import pytest

from icshadows import (
    ConstrainedLAD,
    FrequencyBias,
    LinearInversionPSD,
    LocalPOVM,
    ProductPOVM,
    ReconstructionReport,
    bell_state,
    marginal_counts,
    pauli6,
    pauli6_product,
    product_state,
    reconstruct,
    sample_shots,
)
from icshadows import tomography
from icshadows.algebra import hermitian_stack, project_to_density
from icshadows.povm import outcome_probabilities
from icshadows.sampling import MarginalTable
from icshadows.tomography import linear_inversion
from icshadows.frames import canonical_duals

from .oracles import einsum_sum, lad_loop

BACKENDS = [FrequencyBias(36.0), LinearInversionPSD(), ConstrainedLAD()]


def table(counts, group=(0,)):
    counts = np.asarray(counts, dtype=np.int64)
    return MarginalTable(group=group, counts=counts, S=int(counts.sum()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_reconstruct_rejects_an_empty_table(backend):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty dataset"):
            reconstruct(table([0] * 6), pauli6_product(1), backend)


def test_report_rejects_a_negative_or_nan_residual():
    for residual in (-1e-12, float("nan")):
        with pytest.raises(ValueError, match="residual must be non-negative"):
            ReconstructionReport(residual=residual, iterations=0)


def test_frequency_bias_posterior_closed_form():
    mt = table([10, 0, 2, 0, 0, 0])
    probs, report = reconstruct(mt, pauli6_product(1), FrequencyBias(6.0))
    # counts plus one pseudo-count each, over S plus the bias mass
    assert np.allclose(probs, np.array([11, 1, 3, 1, 1, 1]) / 18)
    assert report.iterations == 0
    assert probs.sum() == pytest.approx(1.0)


def test_frequency_bias_zero_bias_returns_frequencies():
    mt = table([3, 1, 0, 0, 0, 0])
    probs, _ = reconstruct(mt, pauli6_product(1), FrequencyBias(0.0))
    assert np.allclose(probs, mt.frequencies)


def test_frequency_bias_rejects_negative_mass():
    with pytest.raises(ValueError):
        FrequencyBias(-1.0)
    with pytest.raises(ValueError):
        FrequencyBias(float("nan"))


def test_constrained_lad_recovers_pure_state_from_exact_counts():
    # Born counts of |0> under Pauli-6: (1/3, 0, 1/6, 1/6, 1/6, 1/6)
    povm = pauli6_product(1)
    mt = table([200, 0, 100, 100, 100, 100])
    rho, report = reconstruct(mt, povm, ConstrainedLAD())
    target = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(rho - target).max() < 1e-3
    assert report.residual < 1e-6
    assert report.converged


def test_all_backends_agree_on_uniform_counts():
    povm = pauli6_product(2)
    effects = povm.group_effects((0, 1))
    mt = table(np.full(36, 50), group=(0, 1))
    for backend in BACKENDS:
        result, report = reconstruct(mt, povm, backend)
        if isinstance(backend, FrequencyBias):
            probs = result
        else:
            probs = outcome_probabilities(effects, result)
            assert np.allclose(result, np.eye(4) / 4, atol=1e-6)
        assert np.allclose(probs, np.full(36, 1 / 36), atol=1e-6)


def test_linear_inversion_unit_trace_but_possibly_indefinite():
    effects = pauli6_product(1).group_effects((0,))
    mt = table([12, 0, 0, 0, 0, 0])  # impossible frequencies for any state
    duals = canonical_duals(effects, (0,)).duals
    est = linear_inversion(mt, duals)
    assert np.abs(est - einsum_sum(mt.frequencies, hermitian_stack(duals))).max() < 1e-14
    assert np.trace(est).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(est).min() < -1e-3


def test_psd_backend_output_is_a_density_matrix():
    povm = pauli6_product(1)
    mt = table([12, 0, 0, 0, 0, 0])
    rho, report = reconstruct(mt, povm, LinearInversionPSD())
    # the validated state's read-only matrix, as tomo saves it
    assert isinstance(rho, np.ndarray) and not rho.flags.writeable
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0)
    assert report.converged


def test_lad_improves_on_linear_inversion_for_sampled_data():
    povm = pauli6_product(2)
    ds = sample_shots(bell_state(), povm, 2000, seed=31)
    mt = marginal_counts(ds, (0, 1))
    _, psd_report = reconstruct(mt, povm, LinearInversionPSD())
    _, lad_report = reconstruct(mt, povm, ConstrainedLAD())
    assert lad_report.residual <= psd_report.residual + 1e-12
    assert lad_report.iterations >= 1


def test_reconstruct_rejects_oversized_groups(monkeypatch):
    povm = pauli6_product(2)
    mt = table(np.full(36, 1), group=(0, 1))
    monkeypatch.setattr(tomography, "DIMENSION_CAP", 2)
    with pytest.raises(ValueError, match="exceeds the cap"):
        reconstruct(mt, povm, LinearInversionPSD())


def test_reconstruct_rejects_count_shape_mismatch():
    povm = pauli6_product(1)
    mt = table(np.full(36, 1), group=(0, 1))
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(mt, povm, LinearInversionPSD())


def test_reconstruct_rejects_unknown_backend():
    povm = pauli6_product(1)
    with pytest.raises(TypeError, match="unknown backend"):
        reconstruct(table([1, 1, 1, 1, 1, 1]), povm, object())


def test_predicted_probabilities_roundtrip_on_product_state():
    state = product_state("0")
    ds = sample_shots(state, pauli6_product(1), 100_000, seed=33)
    povm = pauli6_product(1)
    effects = povm.group_effects((0,))
    mt = marginal_counts(ds, (0,))
    for backend in (LinearInversionPSD(), ConstrainedLAD()):
        rho, _ = reconstruct(mt, povm, backend)
        probs = outcome_probabilities(effects, rho)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(probs - np.array([1 / 3, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6])).max() < 0.01


def test_lad_respects_iteration_budget(monkeypatch):
    ds = sample_shots(bell_state(), pauli6_product(2), 500, seed=34)
    mt = marginal_counts(ds, (0, 1))
    povm = pauli6_product(2)
    monkeypatch.setattr(tomography, "LAD_MAX_ITERS", 3)
    _, report = reconstruct(mt, povm, ConstrainedLAD())
    assert report.iterations == 3
    assert not report.converged


def test_lad_matches_reference_loop(h2_4q_ground):
    # a seeded 4-qubit histogram of the H2 ground state; the fit converges at 300
    _, psi = h2_4q_ground
    povm = pauli6_product(4)
    effects = povm.group_effects((0, 1, 2, 3))
    mt = marginal_counts(sample_shots(psi, povm, 3000, seed=2), (0, 1, 2, 3))
    rho, report = reconstruct(mt, povm, ConstrainedLAD())
    want_rho, want = lad_loop(mt, hermitian_stack(effects))
    assert (report.iterations, report.converged) == (want.iterations, want.converged)
    assert report.iterations > 100
    assert np.abs(rho - want_rho).max() < 1e-10
    assert report.residual == pytest.approx(want.residual, rel=1e-10)


@pytest.mark.parametrize("group", [(0,), (2, 0), (1, 3, 0), (3, 1, 0, 2)])
def test_factorized_canonical_start_equals_svd_start(group, monkeypatch):
    # a differently rotated Pauli-6 per qubit, so a slip in qubit order shows
    rng = np.random.default_rng(len(group))
    rotated = []
    for _ in range(4):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rotated.append(LocalPOVM(u @ pauli6().effects @ u.conj().T))
    povm = ProductPOVM(tuple(rotated))
    effects = povm.group_effects(group)
    mt = table(rng.integers(0, 40, size=len(effects)), group=group)
    starts = []

    def projected(h):
        starts.append(h)
        return project_to_density(h)

    monkeypatch.setattr(tomography, "project_to_density", projected)
    reconstruct(mt, povm, LinearInversionPSD())
    # the start the group-sized SVD of the canonical frame gives
    want = linear_inversion(mt, canonical_duals(effects, group).duals)
    assert len(starts) == 1
    assert np.abs(starts[0] - want).max() < 1e-12



def test_canonical_start_solves_each_distinct_local_povm_once(monkeypatch):
    u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))
    p6, rot = pauli6(), LocalPOVM(u @ pauli6().effects @ u.conj().T)
    shared = ProductPOVM((p6, rot, p6, rot))
    # equal local POVMs as distinct objects, so each qubit is solved alone
    apart = ProductPOVM((p6, rot, pauli6(), LocalPOVM(rot.effects.copy())))
    mt = table(np.random.default_rng(3).integers(0, 40, size=6**4), group=(3, 0, 1, 2))
    solved = []

    def counted(effects, group):
        solved.append(effects)
        return canonical_duals(effects, group)

    monkeypatch.setattr(tomography, "canonical_duals", counted)
    rho, _ = reconstruct(mt, shared, LinearInversionPSD())
    assert len(solved) == 2
    want, _ = reconstruct(mt, apart, LinearInversionPSD())
    assert len(solved) == 6
    assert np.array_equal(rho, want)
