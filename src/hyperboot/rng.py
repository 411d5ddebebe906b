"""Deterministic random streams.

Every random decision in the package is drawn from a named substream of a
single master seed.  Substreams are identified by an integer path; the same
(master seed, path) pair always yields the same stream, independent of how
many other streams were created before it or of the worker that draws from
it.  That is what makes trial-level parallelism bit-reproducible.

Philox is counter-based, so a stream can also be evaluated at an arbitrary
offset without generating the prefix (used by the per-edge coin oracle).
Each counter position is one 4-word Philox block whose first raw 64-bit
word is the word at that position, so a run of consecutive positions is read
as one block: value_at(key, i, size, gen)[j] == value_at(key, i + j, 1,
gen)[0] exactly.

IndexDraws draws bounded indices from a sequential stream exactly as
Generator.integers does, but from raw words read in blocks, so a long run of
scalar draws (the process's choice stream) costs no Generator call each.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .hypergraph import is_count

# Fixed stream labels.  New labels must be appended, never renumbered,
# or archived seeds stop reproducing.
VERTEX_DRAW = 0
EDGE_COIN = 1
PROCESS_CHOICE = 2
TRIAL = 3
INSTANCE = 4


def check_seed(seed) -> None:
    """Refuse a master seed that is not an integer in [0, 2**64): a bool,
    a float, a negative or a wider integer raises ValueError."""
    if not is_count(seed) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed={seed!r} must be an integer in [0, 2**64)")


def substream(master_seed: int, *path: int) -> Generator:
    """Generator for the substream identified by an integer path."""
    check_seed(master_seed)
    return Generator(Philox(SeedSequence(master_seed, spawn_key=tuple(path))))


def stream_key(master_seed: int, *path: int) -> np.ndarray:
    """Raw 128-bit Philox key for a substream.

    Callers that need random access by counter (rather than a sequential
    generator) build their own ``Philox(key=...)`` from this and advance it.
    """
    check_seed(master_seed)
    return SeedSequence(master_seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


# The buffer of a freshly re-keyed Philox: buffer_pos 4 marks it used up.
_NO_WORDS = (0, 0, 0, 0)


def value_at(key: np.ndarray, index: int, size: int,
             gen: Generator) -> np.ndarray:
    """The raw 64-bit words (uint64) at positions index .. index+size-1 of
    a keyed stream, read in one call: lane 0 of each position's Philox block,
    the word from which a fresh Philox advanced there makes its next uniform
    (w >> 11) * 2**-53.

    Pure function of (key, index, size): evaluation order cannot change it.
    gen, a Generator over a Philox that the caller owns, is re-keyed and
    reused instead of building a new Philox for each read.
    """
    # Philox(key=key) advanced by index: the counter at index, no buffered
    # words.  The setter copies each field, so plain sequences serve.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [index, 0, 0, 0], "key": key},
        "buffer": _NO_WORDS, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen.bit_generator.random_raw(4 * size)[::4]


# Raw 64-bit words IndexDraws reads from its bit generator per block.
INDEX_BLOCK = 512
_WORD = 1 << 32


def _uint32_words(bitgen, pending: Optional[int]) -> Iterator[int]:
    """The 32-bit words next_uint32 would return: a buffered half word
    first, then each raw 64-bit word split low half first."""
    if pending is not None:
        yield pending
    words = np.empty(2 * INDEX_BLOCK, dtype=np.uint64)
    while True:
        raw = bitgen.random_raw(INDEX_BLOCK)
        words[0::2] = raw & 0xFFFFFFFF
        words[1::2] = raw >> 32
        yield from words.tolist()


class IndexDraws:
    """Uniform indices in [0, n), equal draw for draw to gen.integers(n).

    draw(n) == int(gen.integers(n)) for every 1 <= n < 2**32, in the same
    order: numpy bounds a draw by Lemire's multiply-and-reject method on
    32-bit words ("Fast random integer generation in an interval", ACM
    TOMACS 2019), which is computed here on words read from the bit
    generator in blocks.  n == 1 gives 0 without consuming a word, and a
    word whose low product half is below (2**32 - n) % n is rejected.  The
    stream starts from the generator's current state, a buffered half word
    included; from then on gen must be drawn from only through this stream,
    which is ahead of it by up to a block.  gen's bit generator must buffer
    half words as Philox does (a has_uint32 state).
    """

    def __init__(self, gen: Generator):
        bitgen = gen.bit_generator
        state = bitgen.state
        if "has_uint32" not in state:
            raise ValueError(f"{state['bit_generator']} keeps no half-word "
                             "buffer; index draws need one like Philox's")
        pending = state["uinteger"] if state["has_uint32"] else None
        self._next_word = _uint32_words(bitgen, pending).__next__

    def draw(self, n: int) -> int:
        if not 1 <= n < _WORD:
            raise ValueError(f"index bound {n} outside [1, 2**32)")
        if n == 1:
            return 0
        m = self._next_word() * n
        if m & 0xFFFFFFFF < n:
            # n is an upper bound of the threshold, so most draws skip the %
            threshold = (_WORD - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_word() * n
        return m >> 32
