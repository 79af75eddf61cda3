"""Deterministic simulator and analysis toolkit for privacy-preserving
decentralized model aggregation over time-varying communication graphs."""

__version__ = "0.7.0"

import os


def _apply_thread_cap() -> None:
    # PPDFL_THREADS caps BLAS parallelism. BLAS reads its thread count once,
    # when numpy loads, which the imports below do: so the cap is applied
    # here, before them, and whatever imports ppdfl.cli passes this first.
    cap = os.environ.get("PPDFL_THREADS")
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

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
