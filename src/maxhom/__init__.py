"""maxhom: numerical homogenization of multiscale Maxwell wave equations.

Cell problems and recursive effective tensors, time-domain fine/homogenized
wave solves with edge elements, first-order correctors, periodic unfolding
operators and convergence-study drivers, all on structured grids.
"""

from .coeffs import CoefficientError, CoefficientPart, CoefficientSpec, ScaleSchedule
from .mesh import CellMesh, DomainMesh, MeshError
from .fem import (AssemblyError, SolveError, SparseSymSystem,
                  assemble_curl_stiffness, assemble_scalar_stiffness,
                  assemble_vector_mass, solve_spd)
from .cells import (HomogenizationError, HomogenizationResult, curl_level_tensor,
                    homogenize, scalar_level_tensor, solve_curl_cell, solve_scalar_cell)
from .wave import (Forcing, WaveData, WaveProblem, WaveSetupError, WaveTrajectory,
                   energy, integrate, setup_problem)
from .corrector import (CorrectorField, CorrectorInputError, ErrorSeries,
                        corrector_error, multiscale_corrector_error, reconstruct_corrector)
from .unfolding import UnfoldedField, fold, fold_integral, sample_points, unfold
from .harness import ConfigError, ConvergenceReport, fit_slope, load_config, parse_config, run

__version__ = "0.1.0"
