"""Quantum-to-classical transient simulations.

Squeezed-mode analytics feed closed-time-path kernels; factorizing the
symmetric kernel yields colored classical noise; memory-kernel Langevin
dynamics then grow classical order parameters out of unstable quantum modes.
"""

from .core import (ConfigError, DivergenceError, NumericalError, TimeGrid,
                   derive_seed, make_grid, trapezoid_history)
from .kernels import (ADVANCED, RETARDED, SYMMETRIC, ContourMatrix,
                      DeSitterParams, KernelMatrix, build_contour_matrix,
                      build_hadamard, build_retarded, desitter_hadamard,
                      elementwise_power, fluctuation_kernel, keldysh_rotate,
                      memory_kernel, psd_factor, psd_project, squeezed_factor)
from .langevin import (EnsembleStats, PotentialSpec, SpectrumEstimate,
                       Trajectory, aggregate_paths, ensemble_run,
                       estimate_spectrum, integrate_memory,
                       integrate_overdamped_mode, integrate_white,
                       relaxation_rate)
from .noise import (NoiseEnsemble, draw_from_factor, hs_moment_check,
                    sample_colored, sample_white)
from .scenarios import (BECConfig, BECReport, SSBConfig, SSBReport,
                        kuiper_statistic, recursion_probability, run_bec,
                        run_inflation, run_ssb, scenario_noise_kernel)
from .squeeze import (BogolubovCoeffs, SqueezeParams, accumulate_coherent_shift,
                      bogolubov_coefficients, coherent_overlap,
                      coherent_particle_number, commutator_green, hadamard_green,
                      mode_two_point, particle_number, quadrature_variances)

__version__ = "0.10.0"
