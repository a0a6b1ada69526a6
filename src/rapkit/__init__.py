"""rapkit: a desk-scale laboratory for RoPE-aligned KV-cache pruning.

The package builds a deterministic toy attention LM, scores rotation pairs
with empirical Fisher information, allocates adaptive compression budgets,
prunes whole pairs (keeping the rotation structure, so the expansion matrix
absorbs into downstream weights), compares against SVD/PaLU-style low-rank
baselines, recovers accuracy with adapter distillation, and verifies the
structural claims (commutativity, greedy optimality, loss bound, resource
scaling) with executable checks.
"""

from .analyze import ResourceReport, analytic_kv_projection, measure_forward, sweep
from .budget import BudgetPlan, allocate, uniform_plan
from .factorize import (HeadFactor, build_compressed, reconstructed_reference,
                        svd_factor)
from .numcore import Matrix, Tape, grad, gradients
from .recover import KdConfig, distill, kd_loss, merge_adapters, pretrain
from .rope import PairingScheme, RetainedIndex, RopeConfig, rotate, rotate_indexed
from .scoring import PairScoreTable, estimate_fisher, magnitude_scores, pair_scores
from .toymodel import (AttentionModel, CalibrationSet, KvCache, ModelSpec,
                       default_spec, forward_decode, forward_prefill, load_model,
                       loss_ce, markov_calibration, save_model)
from .verify import (BoundReport, check_commutativity, check_greedy_optimality,
                     check_loss_bound, quadratic_bound_case)

__version__ = "0.1.0"
