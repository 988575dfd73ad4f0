"""qhslab: a desk-scale laboratory for learning small DNF formulas under
the uniform distribution with a simulated quantum weak parity learner
inside a smooth booster, cross-checked against exact Fourier oracles.
"""

from .boolfn import (DnfFormula, best_parity, chi, dnf_from_json, dnf_to_json,
                     eval_dnf, heavy_coeffs, load_dnf, mux_dnf, planted_parity,
                     random_dnf, save_dnf, table_cap, to_pm1, wht, wht_unscaled)
from .boosting import (CombinedHypothesis, StageBudgetExceeded, boost, combine,
                       weight_from_margin)
from .sieve import (MODES, QhsConfig, RunReport, StageRow, WeakLearnerFailure, learn_dnf,
                    query_sweep, weak_learner)
from .simulator import (QueryCounter, StateNormError, StateVector, amplify,
                        apply_marked_phase, apply_membership, correlation_op,
                        correlation_op_dagger, cz_answer_phase, dump_state,
                        grover_step, hadamard_index, index_distribution, init_state,
                        load_state, measure_index, prepare_spectrum_state,
                        reflect_zero_index, x_phase)
from .weaklearn import (NoHeavyCoefficient, SharedSample, SignedDigits, WeakHypothesis,
                        exact_weak_parity, quantum_weak_parity, sample_correlations,
                        sampled_weak_parity, signed_digit_decompose, weighted_weak_parity)

__version__ = "0.1.0"
