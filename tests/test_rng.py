import numpy as np
import pytest

from blockmf.rng import BatchedDraws, substream


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
