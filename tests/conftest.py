import numpy as np
import pytest

from icshadows import (
    BlockProductState,
    DensityMatrix,
    LocalPOVM,
    PureState,
    bundled_hamiltonian,
    canonical_global,
    ground_state,
    pauli6_product,
    reduced_density,
)

# filled by tests/test_acceptance.py; printed after the run
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        name, ok, detail = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} {name}: {verdict} ({detail})")


@pytest.fixture(scope="session")
def h2_4q():
    return bundled_hamiltonian("h2_sto3g_4q.txt")


@pytest.fixture(scope="session")
def h2_4q_ground(h2_4q):
    return ground_state(h2_4q)


@pytest.fixture(scope="session")
def povm2():
    return pauli6_product(2)


@pytest.fixture(scope="session")
def povm4():
    return pauli6_product(4)


@pytest.fixture(scope="session")
def canonical2(povm2):
    return canonical_global(povm2)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator, n: int) -> PureState:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def sic4() -> LocalPOVM:
    """The tetrahedral SIC POVM: four outcomes, (I + n.sigma) / 4."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    r, s = np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0)
    vertices = [(0, 0, 1), (2 * r, 0, -1 / 3), (-r, s, -1 / 3), (-r, -s, -1 / 3)]
    effects = [(np.eye(2) + np.tensordot(v, paulis, axes=1)) / 4 for v in vertices]
    return LocalPOVM(np.stack(effects))


def grouped_product_state(state, partition) -> BlockProductState:
    """Product of the state's reduced densities over the partition."""
    return BlockProductState(partition, tuple(reduced_density(state, g) for g in partition.groups))


def refuse_dense_builds(monkeypatch) -> None:
    """Fail the test if a block of a block-product state is built densely.

    Every density tensor of a block product first reduces each block it
    touches, a ``DensityMatrix``, through ``states.density_tensor``; the
    spy raises on any such call and lets every other through.
    """
    from icshadows import states

    build = states.density_tensor

    def guarded(state, axes):
        if isinstance(state, DensityMatrix):
            raise AssertionError("dense build reached above the density cap")
        return build(state, axes)

    monkeypatch.setattr(states, "density_tensor", guarded)


def anti_hermitian_duals(duals: np.ndarray) -> np.ndarray:
    """One-qubit Pauli-6 duals moved off the Hermitian set along a
    duality-preserving direction: |0><0| + |1><1| = |+><+| + |-><-|, so adding
    i c_m Z with c = (1, 1, -1, -1, 0, 0) leaves every frame identity intact."""
    c = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0])
    return duals + 1e-3j * c[:, None, None] * np.diag([1.0, -1.0])
