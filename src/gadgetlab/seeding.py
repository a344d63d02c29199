"""Deterministic seed derivation.

Every stochastic stage derives its own stream from one master seed by
hashing the stage name (and any indices) into it, so pipelines are
reproducible and stages are independent regardless of ordering.
"""
from __future__ import annotations

import hashlib
import random


def derive_seed(master: int, *stage) -> int:
    text = f"{master}|" + "|".join(str(s) for s in stage)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master: int, *stage) -> random.Random:
    return random.Random(derive_seed(master, *stage))


def as_rng(rng: random.Random | int) -> random.Random:
    """The given stream itself, or a fresh one seeded with the given int."""
    return rng if isinstance(rng, random.Random) else random.Random(rng)
