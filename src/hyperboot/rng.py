"""Deterministic random streams.

Every random decision in the package is drawn from a named substream of a
single master seed.  Substreams are identified by an integer path; the same
(master seed, path) pair always yields the same stream, independent of how
many other streams were created before it or of the worker that draws from
it.  That is what makes trial-level parallelism bit-reproducible.

Philox is counter-based, so a stream can also be evaluated at an arbitrary
offset without generating the prefix (used by the per-edge coin oracle).
Each counter position is one 4-word Philox block whose first word gives the
variate at that position, so a run of consecutive positions is read as one
block: value_at(key, i, size)[j] == value_at(key, i + j) exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# Fixed stream labels.  New labels must be appended, never renumbered,
# or archived seeds stop reproducing.
VERTEX_DRAW = 0
EDGE_COIN = 1
PROCESS_CHOICE = 2
TRIAL = 3
INSTANCE = 4


def substream(master_seed: int, *path: int) -> Generator:
    """Generator for the substream identified by an integer path."""
    return Generator(Philox(SeedSequence(master_seed, spawn_key=tuple(path))))


def stream_key(master_seed: int, *path: int) -> np.ndarray:
    """Raw 128-bit Philox key for a substream.

    Callers that need random access by counter (rather than a sequential
    generator) build their own ``Philox(key=...)`` from this and advance it.
    """
    return SeedSequence(master_seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


def value_at(key: np.ndarray, index: int, size: Optional[int] = None,
             gen: Optional[Generator] = None):
    """The uniform [0,1) variate at position ``index`` of a keyed stream.

    Pure function of (key, index): evaluation order cannot change it.  With
    size, an array of the variates at positions index .. index+size-1, read
    in one call; each equals the scalar value at its position.  gen, a
    Generator over a Philox that the caller owns, is re-keyed and reused
    instead of building a new Philox for the read.
    """
    if gen is None:
        gen = Generator(Philox(key=key))
    # Philox(key=key) advanced by index: the counter at index, no buffered
    # words
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([index, 0, 0, 0], dtype=np.uint64),
                  "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    if size is None:
        return gen.random()
    return gen.random(4 * size)[::4]
