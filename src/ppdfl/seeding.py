"""Stable derivation of independent RNG substreams from one master seed."""

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Collapse a tag tuple into a 64-bit seed, stable across processes."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))
