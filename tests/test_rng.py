import warnings

import numpy as np
import pytest

from blockmf.rng import (ORACLE_CHECK, BatchedDraws, at_key, substream,
                         substream_keys)


def schedule(k):
    """Block sizes one stream pulls to serve k draws: FIRST, doubling,
    capped at BLOCK."""
    sizes, n = [], BatchedDraws.FIRST
    while sum(sizes) < k:
        sizes.append(n)
        n = min(2 * n, BatchedDraws.BLOCK)
    return sizes


def same_state(a, b):
    """Philox states (counter, key, buffer) of two generators agree."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa.keys() == sb.keys()
            and sa["buffer_pos"] == sb["buffer_pos"]
            and np.array_equal(sa["buffer"], sb["buffer"])
            and all(np.array_equal(sa["state"][f], sb["state"][f])
                    for f in sa["state"]))


def test_schedule_is_the_documented_one():
    assert schedule(1) == [32]
    assert schedule(33) == [32, 64]
    assert schedule(9000)[:9] == [32, 64, 128, 256, 512, 1024, 2048, 4096,
                                  8192]
    assert schedule(40000)[-2:] == [8192, 8192]


@pytest.mark.parametrize("k", [1, 31, 32, 33, 100, 9000])
def test_equal_generators_give_equal_interleaved_sequences(k):
    # the same interleaving of calls on equal generators must give the
    # same numbers, across block boundaries of both streams
    a = BatchedDraws(substream(3, 1))
    b = BatchedDraws(substream(3, 1))
    pattern = np.random.default_rng(k).integers(0, 3, k)

    def take(d):
        out = []
        for p in pattern:
            out.append(d.uniform() if p else d.exponential())
        return out

    seq = take(a)
    assert seq == take(b)
    assert a.drawn == b.drawn
    assert a.uniform() == b.uniform()
    assert a.exponential() == b.exponential()


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
@pytest.mark.parametrize("k", [1, 31, 33, 100, 9000])
def test_generator_advances_by_the_schedule(kind, k):
    gen = substream(11, k)
    twin = substream(11, k)
    draws = BatchedDraws(gen)
    got = [getattr(draws, kind)() for _ in range(k)]
    by_hand = []
    for n in schedule(k):
        block = twin.random(n) if kind == "uniform" else (
            twin.standard_exponential(n))
        by_hand += block.tolist()
    assert got == by_hand[:k]
    assert draws.drawn == len(by_hand)
    # nothing more was pulled: both generators continue identically
    assert same_state(gen, twin)
    assert gen.random() == twin.random()


def test_streams_refill_independently():
    # a refill of one stream does not change the other's schedule
    gen, twin = substream(5), substream(5)
    draws = BatchedDraws(gen)
    assert draws.exponential() == twin.standard_exponential(32)[0]
    u = [draws.uniform() for _ in range(40)]
    assert u == (twin.random(32).tolist() + twin.random(64).tolist())[:40]
    assert draws.drawn == 32 + 32 + 64


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]
# replica ids of one and of two uint32 words, in one call
REPLICAS = np.array([0, 1, 2, 2**31, 2**32, 2**40 + 3, 2**64 - 1],
                    dtype=np.uint64)


@pytest.mark.parametrize("entries", range(1, 7))
@pytest.mark.parametrize("seed", SEEDS)
def test_substream_keys_match_seed_sequence(seed, entries):
    # the path is the seed, then entries - 2 fixed words, then the
    # replica; paths of more than 4 words take SeedSequence's branch that
    # mixes the words beyond its pool in one by one
    if entries == 1:
        paths, keys = [(seed,)], substream_keys(seed)
    else:
        middle = list(range(5, 3 + entries))
        paths = [(seed, *middle, int(r)) for r in REPLICAS]
        keys = substream_keys(seed, *middle, REPLICAS)
    want = [np.random.SeedSequence(list(p)).generate_state(2, np.uint64)
            for p in paths]
    assert keys.dtype == np.uint64 and keys.shape == (len(paths), 2)
    np.testing.assert_array_equal(keys, want)


def test_substream_keys_are_the_philox_keys_of_substream():
    keys = substream_keys(515, 0, np.arange(6), ORACLE_CHECK)
    for rep, key in enumerate(keys):
        gen = substream(515, 0, rep, ORACLE_CHECK)
        np.testing.assert_array_equal(
            gen.bit_generator.state["state"]["key"], key)


def test_substream_keys_wrap_without_warnings():
    # SeedSequence's hash wraps uint32 products; the port wraps them as
    # uint32 arrays do, which raises no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = substream_keys(2**64 - 1, 2**64 - 1, REPLICAS)
    want = np.random.SeedSequence([2**64 - 1, 2**64 - 1, 2**64 - 1])
    np.testing.assert_array_equal(keys[-1], want.generate_state(2, np.uint64))


@pytest.mark.parametrize("path", [(-1, 0), (3, -2), (3, np.array([0, -1])),
                                  (3, 0.5)])
def test_substream_keys_reject_what_seed_sequence_rejects(path):
    with pytest.raises((ValueError, TypeError)):
        substream_keys(*path)


def test_at_key_resets_to_a_fresh_substream():
    keys = substream_keys(11, 0, np.arange(3), ORACLE_CHECK)
    gen = substream(99, 1)
    for rep in (2, 0, 1):
        # leave a partial buffer and a cached 32-bit half behind: a
        # full-range uint32 draw takes one half of a 64-bit output
        for _ in range(8):
            gen.integers(0, 2**32, dtype=np.uint32)
            dirty = gen.bit_generator.state
            if dirty["has_uint32"] and dirty["buffer_pos"] < 4:
                break
        assert dirty["has_uint32"] == 1 and dirty["buffer_pos"] < 4
        fresh = substream(11, 0, rep, ORACLE_CHECK)
        assert at_key(gen, keys[rep]) is gen
        assert same_state(gen, fresh)
        assert gen.bit_generator.state["has_uint32"] == 0
        assert np.array_equal(gen.integers(0, 7, 5, dtype=np.uint32),
                              fresh.integers(0, 7, 5, dtype=np.uint32))
        assert gen.random() == fresh.random()
