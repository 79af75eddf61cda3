"""Deterministic simulator and analysis toolkit for privacy-preserving
decentralized model aggregation over time-varying communication graphs."""

__version__ = "0.5.1"

from .field import PrimeModulus
from .fixedpoint import Precision, check_p_bound, decode_residues, encode_fixed
from .protocol import ProtocolConfig, execute_round, run_training
from .privacy import AdversarySet, adversary_infer, perfect_secrecy
from .topology import RoundTopology, TopologySchedule, generate_topology, mh_weights

__all__ = [
    "AdversarySet",
    "Precision",
    "PrimeModulus",
    "ProtocolConfig",
    "RoundTopology",
    "TopologySchedule",
    "adversary_infer",
    "check_p_bound",
    "decode_residues",
    "encode_fixed",
    "execute_round",
    "generate_topology",
    "mh_weights",
    "perfect_secrecy",
    "run_training",
]
