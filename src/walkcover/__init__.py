"""Covering probabilities of lattice sets and paths under simple random walk.

Exact enumeration, reproducible Monte Carlo, reflection machinery with
its sign-cover combinatorics, and lattice Green's functions with the
first-entry (hitting) calculus built on them.
"""

from .lattice import (CoverTarget, Path, Point, REPETITIONS, TRACE,
                      connects_origin_to_sphere, path_from_json, path_to_json,
                      repetition_profile, staircase_path, straight_path,
                      total_difference, validate_path)
from .reflect import (ArcDecomposition, Hyperplane, apply_configuration,
                      arc_decompose, canonical_representative,
                      normalize_to_positive_orthant, reduce_path, reflect_point)
from .comb import ArcCollection, check_cover_inequality, cover_count, cover_count_split
from .exact import (ExactResult, count_reflected_pair, exact_cover_probability,
                    reflection_monotonicity_sweep, verify_staircase_max)
from .montecarlo import (CompareResult, Estimate, SimConfig, mc_compare,
                         mc_cover_probability)
from .green import (GreenValue, WalkSpectrum, asymptotic_sweep,
                    character_power_moment, diagonal_difference_walk,
                    diagonal_return_probability, green_value, offdiag_green,
                    offdiagonal_sum, return_probability, simple_walk)
from .hitting import (CounterexampleResult, HittingQuery,
                      counterexample_probabilities, first_entry_distribution,
                      truncation_bias_estimate)

__version__ = "0.1.0"
