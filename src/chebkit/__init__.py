"""chebkit: desk-scale prime counting in Frobenius classes, smoothed
explicit-formula verification, and explicit analytic bound calculators.

Subpackage map:

- ``weights``      smoothing weight f and its Laplace transform F, with the
                   decay-bound checks
- ``bounds``       complexity, zero-density, repulsion, exclusion, the
                   classical Brun-Titchmarsh constant, range thresholds
- ``sieve``        segmented prime generation, prime powers, Li(x)
- ``progressions`` primes in arithmetic progressions + Brun-Titchmarsh checks
- ``bqf``          binary quadratic forms: reduction, class numbers,
                   represented primes
- ``chebotarev``   Frobenius-class counters for quadratic/cyclotomic fields
- ``characters``   Dirichlet characters mod q as class functions, and their table
- ``explicit``     contour evaluation of the smoothed prime sum
- ``elliptic``     traces of Frobenius and the Lang-Trotter counters
- ``cli``          command-line frontend over all of the above
"""

from .bounds import (FieldInvariants, brun_titchmarsh_constant, density_bound,
                     deuring_heilbronn_exclusion, log_complexity,
                     low_lying_density_bound, range_thresholds, repulsion_threshold)
from .bqf import (ClassGroupSummary, ReducedForm, class_number,
                  count_represented_primes, delta_q, reduce_form,
                  representation_density_report)
from .chebotarev import (AbelianExtension, ConjClass, artin_class,
                         counting_chain_check, cyclotomic_field,
                         density_ratio_report, pi_class, psi_class,
                         quadratic_field, theta_class, theta_partial_sum,
                         trivial_extension, weighted_prime_sum)
from .elliptic import (CurveModel, FrobeniusRecord, frobenius_field_count,
                       frobenius_traces, growth_shape_report, read_curves,
                       trace_match_count, trace_of_frobenius)
from .errors import CapacityError, DomainError
from .explicit import (LogDerivSeries, character_log_deriv, class_log_deriv,
                       contour_sum, support_cap, tail_bound, zeta_log_deriv)
from .progressions import (APQuery, euler_phi, maynard_check,
                           montgomery_vaughan_check, pi_ap, residue_counts)
from .reports import BoundReport, PowerValue
from .sieve import CountSeries, li, prime_powers, primes_upto, segmented_primes
from .weights import (WeightSpec, check_decay_bound, check_growth_bound,
                      check_left_line_bound, check_real_axis_bound,
                      laplace_transform, laplace_transform_quadrature,
                      weight_value)

__version__ = "0.1.0"
