import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icshadows import PauliObservable
from icshadows.observables import PAULI_MATRICES, mask_term

from .oracles import kron_matrix, per_term_apply, same_bits, tensordot_apply

words2 = st.text(alphabet="IXYZ", min_size=2, max_size=2)


@st.composite
def pauli_sums(draw):
    """Pauli sums on 1 to 5 qubits; words may repeat."""
    n = draw(st.integers(1, 5))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(st.floats(-3, 3), words), min_size=1, max_size=8))
    return PauliObservable(n, tuple(terms))


def test_duplicate_words_merge_in_first_seen_order():
    obs = PauliObservable(2, ((1.0, "XZ"), (0.5, "II"), (2.0, "XZ")))
    assert obs.terms == ((3.0, "XZ"), (0.5, "II"))


def test_lowercase_words_are_normalized():
    obs = PauliObservable.single("xy")
    assert obs.terms == ((1.0, "XY"),)


def test_rejects_bad_letter_and_wrong_length():
    with pytest.raises(ValueError, match="invalid Pauli letter"):
        PauliObservable(1, ((1.0, "Q"),))
    with pytest.raises(ValueError, match="not length"):
        PauliObservable(2, ((1.0, "X"),))
    with pytest.raises(ValueError, match="non-finite"):
        PauliObservable(1, ((float("nan"), "X"),))
    # finite terms whose merged sum overflows
    with pytest.raises(ValueError, match="non-finite"):
        PauliObservable(1, ((1e308, "X"), (1e308, "X")))


def test_from_terms_requires_terms():
    with pytest.raises(ValueError):
        PauliObservable.from_terms([])


def test_without_identity_and_identity_coefficient():
    obs = PauliObservable(2, ((0.7, "II"), (1.5, "ZZ")))
    stripped = obs.without_identity()
    assert stripped.terms == ((1.5, "ZZ"),)
    # all-identity observable degrades to an explicit zero term
    only_id = PauliObservable(2, ((0.7, "II"),)).without_identity()
    assert only_id.terms == ((0.0, "II"),)


def test_matrix_of_single_letters():
    # the matrix that apply realizes, column by column
    for ch, mat in PAULI_MATRICES.items():
        obs = PauliObservable.single(ch)
        assert np.array_equal(np.stack([obs.apply(e) for e in np.eye(2)], axis=1), mat)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.floats(-3, 3), words2), min_size=1, max_size=5))
def test_apply_agrees_with_matrix(terms):
    obs = PauliObservable(2, tuple(terms))
    rng = np.random.default_rng(0)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(obs.apply(vec), kron_matrix(obs) @ vec, atol=1e-12)


def test_mask_form_of_a_word():
    # qubit 0 is the most significant bit; Y sets both masks
    term = mask_term(0.5, "XYZI")
    assert (term.coeff, term.x, term.z) == (0.5, 0b1100, 0b0110)
    want = np.diag(kron_matrix(PauliObservable.single("XYZI"))[np.arange(16) ^ 0b1100])
    assert np.array_equal(term.phase, want)


@settings(max_examples=150, deadline=None)
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_per_term_apply_is_bit_identical_to_tensordot_oracle(obs, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**obs.n) + 1j * rng.normal(size=2**obs.n)
    assert same_bits(per_term_apply(obs, vec), tensordot_apply(obs, vec))


@settings(max_examples=150, deadline=None)
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_grouped_apply_matches_per_term_oracle(obs, seed):
    # summing a mask's terms into one diagonal first moves only the rounding:
    # every entry is a sum of at most T products |c_t| |v_k|
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2**obs.n) + 1j * rng.normal(size=2**obs.n)
    scale = sum(abs(c) for c, _ in obs.terms) * np.abs(vec).max()
    assert np.abs(obs.apply(vec) - per_term_apply(obs, vec)).max() <= 1e-13 * scale


@pytest.mark.parametrize("length", [7, 9])
def test_apply_rejects_wrong_length(length):
    obs = PauliObservable.from_terms([(1.0, "XYZ"), (0.5, "ZZI")])
    with pytest.raises(ValueError, match="length-8"):
        obs.apply(np.ones(length, dtype=complex))
