"""Adaptive catalytic network toolkit.

Simulation and analysis of coupled graph/concentration dynamics: exact
and numerical equilibria of the autocatalytic flow on a fixed digraph,
the discrete delete-and-resample adaptation loop, and seeded Monte Carlo
experiments with closed-form waiting-time oracles.
"""
import os
import sys

# the environment variables that set BLAS's thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:  # one BLAS thread: bytes do not depend on the host
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .adaptation import (
    AdaptiveState,
    AdaptiveTrace,
    StepRecord,
    jk_step,
    min_prevalence_set,
    plant_directed_cycle,
    run_adaptive,
    trace_from_json_lines,
    trace_to_json_lines,
)
from .dynamics import (
    EquilibriumResult,
    EquilibriumSetBasis,
    Trajectory,
    andi_residual,
    equilibrium,
    equilibrium_set_basis,
    integrate,
    integrate_projective,
    simplex_vector,
    uniform_state,
    vector_field,
)
from .graph import (
    InteractionMatrix,
    ModelParams,
    NonConvergenceError,
    SpectralData,
    dump_edge_list,
    has_directed_cycle,
    has_undirected_cycle,
    is_acs,
    load_interaction_matrix,
    parse_interaction_matrix,
    path_counts,
    resample_vertex,
    sample_er_digraph,
    spectral_radius_pf,
    strongly_connected_components,
    terminal_vertices,
)
from .rng import stream

__version__ = "0.1.0"
