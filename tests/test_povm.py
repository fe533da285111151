import numpy as np
import pytest

from icshadows import (
    LocalPOVM,
    completeness_rank,
    group_effects,
    outcome_probabilities,
    pauli6,
    pauli6_product,
)

from .conftest import random_density
from .oracles import group_effect


def test_pauli6_outcome_order_is_pinned():
    # order is part of the dataset format and may never change
    s = 1 / np.sqrt(2)
    kets = [
        np.array([1, 0]),
        np.array([0, 1]),
        np.array([s, s]),
        np.array([s, -s]),
        np.array([s, 1j * s]),
        np.array([s, -1j * s]),
    ]
    effects = pauli6().effects
    for m, ket in enumerate(kets):
        assert np.allclose(effects[m], np.outer(ket, ket.conj()) / 3, atol=1e-15)


def test_pauli6_completeness_and_rank():
    p = pauli6()
    assert np.allclose(p.effects.sum(axis=0), np.eye(2), atol=1e-14)
    assert completeness_rank(p) == 4
    assert p.d == 6


def test_local_povm_rejects_non_psd():
    effects = np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]).astype(complex)
    with pytest.raises(ValueError, match="PSD"):
        LocalPOVM(effects)


def test_local_povm_rejects_incomplete_sum():
    effects = pauli6().effects.copy()
    effects[0] = effects[0] * 0.5
    with pytest.raises(ValueError, match="sum"):
        LocalPOVM(effects)


def test_local_povm_rejects_non_ic():
    # projective Z measurement spans only a 2-dim operator subspace
    effects = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    assert completeness_rank(effects) == 2
    with pytest.raises(ValueError, match="IC"):
        LocalPOVM(effects)


def test_product_povm_identifier():
    assert pauli6_product(3).identifier == "pauli6"


def test_group_effects_are_kron_products():
    povm = pauli6_product(3)
    effects = group_effects(povm, (0, 2))
    assert effects.shape == (36, 4, 4)
    e1 = povm.locals[0].effects
    idx = 0
    for m0 in range(6):
        for m2 in range(6):
            assert np.allclose(effects[idx], np.kron(e1[m0], e1[m2]))
            idx += 1
    # single lookup agrees with the stacked array
    assert np.allclose(group_effect(povm, (0, 2), (3, 5)), effects[3 * 6 + 5])


def test_group_effects_follow_listed_order():
    povm = pauli6_product(2)
    single = povm.locals[0].effects
    fwd = group_effects(povm, (0, 1))
    rev = group_effects(povm, (1, 0))
    # first listed qubit is the most significant digit and first kron factor
    assert np.allclose(fwd[2 * 6 + 1], np.kron(single[2], single[1]))
    assert np.allclose(rev[1 * 6 + 2], np.kron(single[1], single[2]))


def test_outcome_probabilities_born_rule():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    probs = outcome_probabilities(pauli6().effects, rho)
    assert probs.shape == (6,)
    assert np.isclose(probs.sum(), 1.0)
    want = [np.trace(e @ rho).real for e in pauli6().effects]
    assert np.allclose(probs, want)
