"""Discrete-time regret-optimal and robust regret-optimal control synthesis."""

from .statespace import (StateSpace, static_gain, series, append,
                         invert, zoh_discretize, tf1_to_ss, UNIT)
from .plants import (GeneralizedPlant, UncertainPlant, lft_lower, lft_upper,
                     weight_disturbance, structural_prune)
from .signals import Signal, simulate, random_signal, sinusoid_signal
from .norms import FrequencyGrid, LoopMargins, NormBracket, hinf_norm, loop_margins
from .riccati import (DareProblem, DareSolution, DareAssumptionReport,
                      check_dare_assumptions, solve_dare, dare_residual)
from .noncausal import (NoncausalController, NoncausalClosedLoop,
                        build_noncausal, build_phat, eval_noncausal_cost)
from .spectral import (SpectralFactor, spectral_factor_regret, effective_gamma_d,
                       EPS_CR)
from .hinf import SynthesisResult, synth_hinf, hinf_optimize, hinf_search
from .regret import (RegretLevel, ParetoFront, ParetoPoint, synth_regret,
                     optimize_special, pareto_front, verify_regret)
from .robust import (AugmentedOpenLoop, DScaling, UncertaintySample,
                     build_M, dk_iteration, dk_feasibility_oracle, fit_dscale,
                     matrix_rp_test, robust_pareto_front, robust_perf_test,
                     sample_uncertainty, verify_robust_regret)
from .examples import (EXAMPLE_NAMES, ExampleSpec, build_example,
                       example_components, example_spec,
                       quartercar_response_plant, road_pulse)
from . import errors
from . import io

__version__ = "0.1.0"
