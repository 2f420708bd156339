"""Numerical laboratory for non-local pair energies with oscillating periodic weights."""

from .kernel import (
    AntiderivativeTable,
    PeriodicStepFunction,
    PeriodicStepKernel,
    make_lambda_kernel,
)
from .states import (
    StepFunction,
    TripleWellPotential,
    integrate,
    oscillating_profile,
)
from .energy import (
    EnergyReport,
    evaluate,
    evaluate_potentials,
    evaluate_quadrature,
    rect_integral,
)
from .cell import (
    CellKernelMatrix,
    CellMinimum,
    CellProfile,
    CellSolveResult,
    build_cell_matrix,
    cell_energy,
    cell_minimum,
    gamma_closed_form,
    optimal_profile,
    solve_brute_force,
    solve_relaxed,
)
from .gammalab import (
    Certificate,
    ConvergenceStudy,
    fM_threshold_experiment,
    gamma_limit_constant_value,
    implied_g1,
    non_representability_certificate,
    run_flat_study,
    run_recovery_study,
    run_step_study,
    step_limit_value,
    two_scale_pairing,
)
from .util import ArgumentRangeError, ResourceLimitError
from . import _accel  # perfbench reads nlhomog._accel

__version__ = "0.1.0"
