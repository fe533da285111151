"""Observable estimation with overcomplete local POVMs and optimized duals."""

from .algebra import project_to_density
from .correlations import (
    MIGraph,
    greedy_partition,
    mi_graph,
    naive_partition,
    resolve_partitioner,
)
from .estimation import (
    CoefficientCache,
    EstimateReport,
    estimate,
    exact_expectation,
    exact_moments,
    exact_variance,
    rmse_experiment,
)
from .frames import (
    DualFrame,
    GlobalDuals,
    canonical_duals,
    canonical_global,
    duality_residual,
    duals_from_weights,
    optimal_duals,
    optimal_global,
    optimize_product_duals,
    state_mse,
)
from .io import (
    RunConfig,
    bundled_hamiltonian,
    read_dataset,
    read_duals,
    read_hamiltonian,
    read_partition,
    write_dataset,
    write_duals,
    write_hamiltonian,
    write_partition,
)
from .observables import PauliObservable
from .partition import Partition
from .povm import (
    LocalPOVM,
    ProductPOVM,
    completeness_rank,
    outcome_probabilities,
    pauli6,
    pauli6_product,
)
from .sampling import (
    Dataset,
    MarginalTable,
    SamplingPlan,
    joint_probabilities,
    marginal_counts,
    sample_shots,
    shot_uniforms,
)
from .states import (
    BlockProductState,
    DensityMatrix,
    PureState,
    bell_pair_chain,
    bell_state,
    ghz_state,
    ground_state,
    maximally_mixed,
    product_state,
    reduced_density,
    toy_mixed,
    toy_pure,
)
from .tomography import (
    ConstrainedLAD,
    FrequencyBias,
    LinearInversionPSD,
    ReconstructionReport,
    klo_duals,
    linear_inversion,
    reconstruct,
)

__version__ = "0.1.0"
