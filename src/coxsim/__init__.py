"""coxsim: simulation and verification toolkit for Cox point processes.

Two models: a Cox process built by scattering 1-D Poisson points on the
lines of a Poisson line process in the plane, and a satellite model placing
Poisson points on great-circle orbits of Binomially drawn base points on the
sphere.  Both converge to a Poisson point process; the package simulates the
models exactly, evaluates the explicit convergence bounds, and verifies the
O(1/lambda_n) and O(1/n) rates by Monte Carlo.
"""

from .geometry import Annulus, Disk, LatitudeBand, Rect, SphericalCap
from .pointprocess import (CoupledBatch, ModelParams, ReplicateBatch, sample_ppp_window,
                           sample_uniform_sphere)
from .coxmodels import (CoxLineSample, SatelliteSample, effective_intensity,
                        sample_cox_line, sample_cox_line_batch, sample_satellites_batch,
                        sample_satellites_with_twin)
from .glauber import (GlauberSpec, contraction_estimate, generator_apply,
                      glauber_simulate, semigroup_trajectory_consistency)
from .steinbound import (QuadratureError, chord_square_integral, coarea_check,
                         cox_bound, satellite_bound)
from .diagnostics import (DistanceEstimate, Functional, RateFit,
                          count_tv_lower_bound, coupled_wasserstein_lower_bound,
                          invariance_check, mecke_check_bpp, mecke_check_ppp,
                          rate_regression, wasserstein_lower_bound)
from .harness import (ExperimentConfig, ExperimentResult, run_experiment,
                      run_validation_suite, stream)

__version__ = "0.1.0"
