"""Input blocks, made from the workload seed and never timed.

Recipe: runs of 128-384 bytes that alternate between zeros and random
bytes, so about half of every block is zeros.  The first run's kind is
drawn from the seed too.  The program under test never sees the seed,
only the finished blocks.
"""

from __future__ import annotations

import random


def make_block(rng: random.Random, size: int) -> bytes:
    """One block of exactly `size` bytes from the recipe above."""
    out = bytearray()
    zeros = rng.random() < 0.5
    while len(out) < size:
        run = rng.randint(128, 384)
        out += bytes(run) if zeros else rng.randbytes(run)
        zeros = not zeros
    return bytes(out[:size])


def make_blocks(seed: int, stream: str, count: int, size: int) -> list[bytes]:
    """`count` blocks for one workload; equal arguments give equal blocks."""
    rng = random.Random(f"{stream}:{seed}")
    return [make_block(rng, size) for _ in range(count)]
