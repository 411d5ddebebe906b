"""IndexDraws against Generator.integers on the same stream, draw for draw."""

import numpy as np
import pytest

from hyperboot import rng as rng_mod
from hyperboot.rng import INDEX_BLOCK, IndexDraws


def _twins(seed: int):
    """Two generators on the same substream: a reference and one to wrap."""
    return (rng_mod.substream(seed, rng_mod.PROCESS_CHOICE),
            rng_mod.substream(seed, rng_mod.PROCESS_CHOICE))


def _assert_same_draws(ref, draws, bounds) -> None:
    for k, n in enumerate(bounds):
        assert draws.draw(n) == int(ref.integers(n)), (k, n)


def test_index_draws_match_integers():
    pick = np.random.default_rng(7)
    small = pick.integers(1, 10 ** 6, size=4000).tolist()
    # above 2**31 the rejection threshold 2**32 - n is close to n itself,
    # so a large share of the words is rejected
    large = pick.integers(2 ** 31, 2 ** 32, size=4000).tolist()
    edges = [2 ** 31, 2 ** 31 + 1, 2 ** 32 - 2, 2 ** 32 - 1, 2, 3]
    # n == 1 consumes no word, interleaved with bounds that do
    mixed = [1 if k % 3 == 0 else n for k, n in enumerate(small[:3000])]
    for seed, bounds in enumerate([small, large, edges * 50, mixed,
                                   [1] * 10 + small[:10]]):
        ref, gen = _twins(seed)
        _assert_same_draws(ref, IndexDraws(gen), bounds)


def _with_next_words(words: list):
    """Two generators whose next 32-bit words are the eight given: Philox
    serves its buffered 64-bit words first, low half first."""
    raw = [lo | hi << 32 for lo, hi in zip(words[0::2], words[1::2])]
    gens = _twins(0)
    for g in gens:
        state = g.bit_generator.state
        state["buffer"] = np.array(raw, dtype=np.uint64)
        state["buffer_pos"] = 0
        g.bit_generator.state = state
    return gens


def test_index_draws_reject_exactly_below_the_threshold():
    # words whose low product half lands on 0, threshold - 1 (rejected) and
    # threshold (kept), for odd n where every low half is reachable
    for n in (3, 1000001, 2 ** 31 + 1, 2 ** 32 - 1):
        threshold = (2 ** 32 - n) % n
        inverse = pow(n, -1, 2 ** 32)
        word = [t * inverse % 2 ** 32 for t in (0, threshold - 1, threshold)]
        assert [w * n % 2 ** 32 for w in word] == [0, threshold - 1, threshold]
        ref, gen = _with_next_words([word[0], word[2], word[1], word[2],
                                     word[2], word[1], word[1], word[2]])
        _assert_same_draws(ref, IndexDraws(gen), [n] * 6)


def test_index_draws_start_from_a_half_used_word():
    for prefix in range(4):
        ref, gen = _twins(11 + prefix)
        # integers leaves the high half of a word buffered; random() reads
        # whole words past it, leaving that half still buffered
        for g in (ref, gen):
            g.random(prefix)
            g.integers(17)
            g.random(prefix)
        assert gen.bit_generator.state["has_uint32"] == 1
        bounds = np.random.default_rng(prefix).integers(1, 5000, 500).tolist()
        _assert_same_draws(ref, IndexDraws(gen), bounds)


def test_index_draws_in_chunks_across_blocks():
    ref, gen = _twins(21)
    draws = IndexDraws(gen)
    bounds = np.random.default_rng(5).integers(1, 300, 5 * INDEX_BLOCK)
    # several runs on one stream, the later ones crossing word blocks,
    # equal one run of integers
    for lo, hi in [(0, 1), (1, 10), (10, 2 * INDEX_BLOCK - 3),
                   (2 * INDEX_BLOCK - 3, 5 * INDEX_BLOCK)]:
        _assert_same_draws(ref, draws, bounds[lo:hi].tolist())


def test_index_draws_reject_bad_bounds_and_generators():
    draws = IndexDraws(_twins(0)[1])
    for n in (0, -1, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError):
            draws.draw(n)
    with pytest.raises(ValueError):
        IndexDraws(np.random.Generator(np.random.MT19937(0)))
