"""Spherical sparse coding networks.

Feed-forward coders whose activations solve, in closed form, an
L1-penalized reconstruction objective constrained to the unit sphere —
and an energy-based classifier that biases those codes per class
hypothesis.  Includes exact-adjoint conv/pool primitives, a reverse-mode
tape for training, unrolled coordinate-ascent inference, deconvolutional
decoding, and iterative oracles that certify the closed forms.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .coder import (ClassBiasParams, CodeResult, class_thresholds,
                    ebssc_encode, ssc_encode, unit_scale_to_lsq)
from .config import (RunConfig, parse_config, parse_network,
                     serialize_config, serialize_network, variant_spec)
from .data import Dataset, Whitening, augment, digits_arrays, load_idx, \
    preprocess
from .energy import EnergyBreakdown, e_class, e_code, e_reparam
from .errors import (CheckpointError, ConfigError, DataError,
                     ImproperThresholdError, OracleDivergenceError,
                     ShapeError)
from .learn import TrainConfig, evaluate, train
from .network import (BlockSpec, NetworkSpec, build, class_energy_breakdown,
                      decode, decode_class_bias, decode_residual, forward,
                      unrolled_infer)
from .oracle import ista_csc, pga_ssc, run_check_suite, unit_recon_solve
from .shrinkage import ThresholdPair, shrink

__all__ = [
    "BlockSpec", "Checkpoint", "ClassBiasParams", "CodeResult",
    "CheckpointError", "ConfigError", "DataError", "Dataset",
    "EnergyBreakdown", "ImproperThresholdError", "NetworkSpec",
    "OracleDivergenceError", "RunConfig", "ShapeError", "ThresholdPair",
    "TrainConfig", "Whitening", "augment", "build",
    "class_energy_breakdown", "class_thresholds", "decode",
    "decode_class_bias", "decode_residual", "digits_arrays", "e_class",
    "e_code", "e_reparam", "ebssc_encode", "evaluate", "forward",
    "ista_csc", "load_checkpoint", "load_idx", "parse_config",
    "parse_network", "pga_ssc", "preprocess", "run_check_suite",
    "save_checkpoint", "serialize_config", "serialize_network", "shrink",
    "ssc_encode", "train", "unit_recon_solve", "unit_scale_to_lsq",
    "unrolled_infer", "variant_spec",
]
