"""Infinite Sidon and B_h sequences from discrete logarithms.

Each prime p gets a digit per basis prime q_j (the discrete log of p mod
q_j lifted into a window), and the digits are read as a mixed-radix
integer. Digit windows make h-fold sums carry-free, which turns sum
collisions into divisibility constraints that either cannot happen at all
or are destroyed by removing an explicit sparse set of primes.
"""

from .arith import (INTEGERS, PrimeInterval, discrete_log, dyadic_interval, factorize,
                    is_prime, is_primitive_root, lift_to_window, log_table, prime_count,
                    primes_in_interval, primes_upto, smallest_primitive_root)
from .auditor import (CollisionReport, check_collision_structure, find_collisions,
                      find_collisions_bruteforce, growth_bracket_check, is_bh, is_sidon)
from .basis import Basis, build_basis
from .bh import (BhPruneResult, bh_generate, bh_params, bh_prune, montecarlo_bad_ratio,
                 negative_taper_blocks, prune_repeated_sums)
from .blocks import (BlockParams, block_of_prime, const_decimal, const_sqrt2, const_sqrt5,
                     const_window, primes_in_block, sidon_params, tapered_params)
from .encoder import (SidonElement, decode_value, digits_for_block, digits_of_prime,
                      element_for_prime, element_in_block, encode_value)
from .errors import (ArityOutOfRange, AuditTooLarge, BasisGap, ConsistencyError,
                     DegreeTooLarge, DigitOutOfRange, DlogSidonError, DLogTooLarge,
                     DLogUndefined, ExcludedPrime, InvalidModulus, MissingDigits,
                     NotIrreducible, PrecisionAmbiguity, PrefixTooShort,
                     RatioBoundExceeded, SieveTooLarge, ValueTooLarge)
from .generator import (ExclusionRecord, SequencePrefix, count_upto,
                        expected_finite_size, finite_dlog_sidon_set, generate_blocks)
from .gf2x import (GF2, gf2_deg, gf2_discrete_log, gf2_finite_sidon, gf2_generate_blocks,
                   gf2_generator, gf2_mod, gf2_mul, irreducible_count, irreducibles_of_degree,
                   is_irreducible, least_irreducible)
from .pruner import (BadPrimeRecord, PruneResult, SRangeBounds, bad_primes,
                     eligible_k2s, pruned_generate, s_bounds)

__version__ = "0.1.0"
