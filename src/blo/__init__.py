"""Bilevel optimization bench: single-loop dual-correction solver,
classical hypergradient baselines, analytic testbeds, and the study
runner behind the ``blo`` CLI."""

__version__ = "0.1.0"

from .errors import (CapabilityError, ConfigError, DivergenceError,
                     MissingOracleError, NonPositiveCurvatureError,
                     SingularHessianError)
from .linalg import (CGResult, LinearOperator, cg_solve, diagonal_operator,
                     gaussian_vector, identity_operator, matrix_operator,
                     neumann_apply, power_iteration_lmax)
from .problem import (BilevelProblem, Counts, FdCheckReport, aggregate,
                      counting_problem, fd_check_gradients)
from .metrics import (AnalyticOracle, TRACE_COLUMNS, TRACE_HEADER, TraceRecord,
                      hypergrad_error, kkt_residual, kkt_residual_aggregated,
                      lyapunov_value, quadratic_oracle)
from .solvers import (HypergradientResult, MethodSpec, RunSummary,
                      ScheduleConfig, SolverState, StepInfo, StopRule,
                      bagdc_step, bda_hypergradient,
                      implicit_cg_hypergradient, implicit_ns_hypergradient,
                      nosa_step, resolve_schedule, rhg_hypergradient,
                      run_solver, schedule_at)
from .testbeds import (Dataset, HyperCleaningProblem, MultiMinimizerBilevel,
                       QuadraticBilevel, classifier_accuracy, corrupt_labels,
                       f1_clean, hypercleaning_problem, make_multimin,
                       make_quadratic, split_dataset, synth_blobs)
from .dataio import ParseError, load_idx, read_idx
from .config import ExperimentConfig, ProblemSpec, parse_config
from .experiments import (STUDIES, build_problem, execute_run, reproduce,
                          run_experiments)
from .svgplot import AxesSpec, Series, emit_svg

__all__ = [name for name in dir() if not name.startswith("_")]
