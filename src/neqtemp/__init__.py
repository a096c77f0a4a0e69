"""Nonequilibrium temperatures of finite-dimensional quantum states.

The temperature of a state rho relative to a Hamiltonian H is defined as the
partial derivative of the von Neumann entropy with respect to the internal
energy along the Hamiltonian direction,

    1/T = Cov(H, -log rho) / Var(H)

with moments taken against the maximally mixed state. The package computes
this functional, its bipartite refinement (local, correlation and tilde
temperatures) and the linear relation tying them to the global temperature,
together with a closed-form two-qubit reference model and a CLI.
"""

__version__ = "0.1.0"

from .exceptions import (
    DegenerateDirectionError,
    NeqTempError,
    NumericalError,
    RankDeficiencyError,
    StepTooLargeError,
    UndefinedQuantityError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    MatrixLog,
    SpectralDecomposition,
    eig_hermitian,
    hs_inner,
    matrix_exp,
    matrix_log,
    partial_trace,
    tensor_product,
)
from .basis import (
    OperatorBasis,
    StateCoordinates,
    complete_basis,
    expand_state,
    hamiltonian_unit,
    reconstruct_state,
    rotate_tail,
)
from .thermometry import (
    GeneralizedGibbsForm,
    HeatWork,
    TemperatureReport,
    VariationSplit,
    finite_difference_beta,
    generalized_gibbs_decomposition,
    heat_and_work,
    helmholtz_free_energy,
    internal_energy,
    inverse_temperature,
    is_passive,
    reconstruct_generalized_gibbs,
    variation_split,
    von_neumann_entropy,
)
from .correlation import (
    BipartiteFrame,
    BipartiteReport,
    BipartiteSystem,
    EffectiveHamiltonians,
    binding_energy,
    chi_unit,
    correlation_inverse_temperature,
    correlation_log_hamiltonian,
    mutual_information,
)
from .relation import (
    expansion_coefficients,
    relation_coefficients,
    tilde_inverse_temperatures,
    verify_universal_relation,
)
from .models import (
    TwoQubitClosedForm,
    TwoQubitXYParams,
    build_two_qubit_xy,
    closed_form,
    sample_bipartite,
    sample_full_rank,
    sample_gibbs,
    sample_passive_pair,
    sample_pure,
)
