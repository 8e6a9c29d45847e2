"""Counter-based random streams for reproducible Monte Carlo.

Each replication owns one stream. Streams are keyed, not jumped: the
generator state is a pure function of (master_seed, stream_index), so any
replication can be regenerated in isolation and in any order, which is what
makes worker-count-independent parallel runs possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError

__all__ = ["SeededStream", "derive_seed"]

_U64 = 2**64


@dataclass(frozen=True)
class SeededStream:
    """One reproducible random stream, addressed by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, (int, np.integer)):
            raise ParameterDomainError(f"master_seed must be an integer, got {type(self.master_seed).__name__}")
        if not 0 <= int(self.master_seed) < _U64:
            raise ParameterDomainError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if not isinstance(self.stream_index, (int, np.integer)) or self.stream_index < 0:
            raise ParameterDomainError(f"stream_index must be a non-negative integer, got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        # Philox is counter-based; using (seed, index) as the 128-bit key gives
        # independent, non-overlapping streams without sequential jumping.
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_seed(base_seed: int, *levels: int) -> int:
    """Mix a base seed with one or more index levels into a fresh 64-bit seed.

    Used for the alpha rows of a regime map, so that each row gets a seed
    decorrelated from the other rows and from the base run.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(x) for x in levels]])
    return int(ss.generate_state(1, np.uint64)[0])
