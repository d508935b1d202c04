"""Periodic EAM chain with quasi-nonlocal and local quasicontinuum couplings.

Library layout: :mod:`~eamchain.lattice` (grids, fields, difference
operators, norms), :mod:`~eamchain.potentials` (scalar potential triples),
:mod:`~eamchain.models` (the three chain energies with exact gradients and
strain Hessians), :mod:`~eamchain.stability` (the stability cubic and its
assumption checks, spectra, critical strains), :mod:`~eamchain.solver`
(linearized strain solves, consistency negative norms, rate studies), and
:mod:`~eamchain.cli` (batch experiment driver).
"""

from .lattice import (
    ChainGrid,
    PeriodicField,
    diff,
    displacement_from_strain,
    norm_l2eps,
    norm_region,
)
from .models import (
    Deformation,
    ModelKind,
    RegionDecomposition,
    SymmetricBandedOperator,
    energy,
    force_scale,
    gradient,
)
from .potentials import (
    EAMPotential,
    ScalarFunctionC2,
    load_potential_file,
    shipped_potential,
    validate_derivatives,
)
from .solver import (
    ConvergenceRecord,
    DeadLoad,
    NotPositiveDefiniteError,
    convergence_study,
    cosine_load,
)
from .stability import (
    AssumptionReport,
    BracketError,
    SpectrumReport,
    StabilityCoefficients,
    check_assumptions,
    coefficients,
    critical_strain,
    fourier_spectrum,
    lambda_cubic,
    lambda_min,
    rayleigh_quotient,
    remark_test_functions,
)

__version__ = "0.1.0"
