"""Distance upper bounds for quantum stabilizer codes via decoupled BP-OSD."""

from .codes import (
    StabilizerCode,
    chamon,
    hypergraph_product,
    logical_basis,
    planar_surface,
    repetition,
    toric,
    validate,
    xyz_product,
    xzzx_surface,
    ztgre,
)
from .decoder import BPConfig, ChannelPrior, DecodeOutcome, decode
from .estimator import (
    DistanceReport,
    NoiseKind,
    OracleResult,
    TrialConfig,
    brute_force_distance,
    estimate_upper_bound,
    logical_mask,
    sample_error,
    verify_witness,
)
from .pauli import SymplecticPauli, from_string, to_string

__all__ = [
    "BPConfig",
    "ChannelPrior",
    "DecodeOutcome",
    "DistanceReport",
    "NoiseKind",
    "OracleResult",
    "StabilizerCode",
    "SymplecticPauli",
    "TrialConfig",
    "brute_force_distance",
    "chamon",
    "decode",
    "estimate_upper_bound",
    "from_string",
    "hypergraph_product",
    "logical_basis",
    "logical_mask",
    "planar_surface",
    "repetition",
    "sample_error",
    "to_string",
    "toric",
    "validate",
    "verify_witness",
    "xyz_product",
    "xzzx_surface",
    "ztgre",
]

__version__ = "0.1.0"
