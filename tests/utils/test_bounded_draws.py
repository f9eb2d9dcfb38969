"""Bounded draws from raw PCG64 words against ``Generator.integers``.

:func:`repro.utils.rng.bounded_draws` is the vector kernels' per-event
draw.  numpy itself is the oracle here: every value, and the bit
generator's whole state (the buffered ``has_uint32``/``uinteger`` half
word included), must equal what ``int(generator.integers(size))`` calls
produce on a twin generator.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.utils.rng import BoundedDraws, bounded_draws, raw_draw_fallback

_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _same_state(a, b):
    """Bit-generator states equal, numpy-array fields (MT19937, Philox) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _next_word_is(word, seed=0):
    """A PCG64 generator whose next raw 64-bit output is *word*.

    PCG64 steps its 128-bit LCG state, then outputs ``rotr(hi ^ lo, hi >>
    58)``; a stepped state with ``hi < 2**58`` and ``lo = hi ^ word``
    outputs *word*, and the state one step before it is solved for.
    """
    generator = np.random.default_rng(seed)
    state = generator.bit_generator.state
    inc = state["state"]["inc"]
    hi = 0x0123456789ABCDEF & ((1 << 58) - 1)
    stepped = (hi << 64) | (hi ^ word)
    state["state"]["state"] = ((stepped - inc) * pow(_MULTIPLIER, -1, 1 << 128)) & _MASK128
    state["has_uint32"] = 0
    state["uinteger"] = 0
    generator.bit_generator.state = state
    return generator


def _word_with_leftover(size, leftover, high=0xABCDEF01):
    """A 64-bit word whose low half x has ``x * size mod 2**32 == leftover``."""
    assert size % 2 == 1  # odd: invertible modulo 2**32
    low = leftover * pow(size, -1, 1 << 32) % (1 << 32)
    return (high << 32) | low


class TestRawWordDraws:
    def test_fast_path_on_pcg64(self):
        generator = np.random.default_rng(0)
        assert raw_draw_fallback(generator) is None
        draws = bounded_draws(generator)
        assert draws.fallback is None
        assert type(draws) is not BoundedDraws

    def test_matches_integers_over_many_draws(self):
        reference, generator = _twins(20140)
        draws = bounded_draws(generator)
        rng = np.random.default_rng(1)
        sizes = rng.integers(1, 2**32, size=120_000).tolist()
        for t, size in enumerate(sizes):
            if t % 3 == 0:
                size = 2**31 + 1  # rejects about half of all values
            elif t % 17 == 0:
                size = 1
            elif t % 29 == 0:
                size = 2**32 - 1
            assert draws.integers(size) == int(reference.integers(size)), t
            if t % 11 == 0:
                assert generator.random() == reference.random()
            if t % 23 == 0:
                ours, theirs = generator.uniform(-0.2, 0.2, size=3), reference.uniform(-0.2, 0.2, size=3)
                assert np.array_equal(ours, theirs)
        draws.sync()
        assert generator.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("calls", [1, 2, 3])
    def test_state_after_sync_includes_the_buffered_half(self, calls):
        reference, generator = _twins(7)
        draws = bounded_draws(generator)
        for _ in range(calls):
            assert draws.integers(1000) == int(reference.integers(1000))
        draws.sync()
        state = generator.bit_generator.state
        assert state == reference.bit_generator.state
        assert state["has_uint32"] == calls % 2
        assert state["uinteger"] == reference.bit_generator.state["uinteger"]

    def test_picks_up_a_half_word_buffered_before_it(self):
        reference, generator = _twins(8)
        assert int(generator.integers(10)) == int(reference.integers(10))
        assert generator.bit_generator.state["has_uint32"] == 1
        draws = bounded_draws(generator)
        for size in (5, 6, 7):
            assert draws.integers(size) == int(reference.integers(size))
        draws.sync()
        assert generator.bit_generator.state == reference.bit_generator.state

    def test_size_one_consumes_no_word(self):
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        draws = bounded_draws(generator)
        assert [draws.integers(1) for _ in range(5)] == [0] * 5
        draws.sync()
        assert generator.bit_generator.state == before

    def test_sync_and_reload_bracket_direct_use(self):
        reference, generator = _twins(9)
        draws = bounded_draws(generator)
        assert draws.integers(77) == int(reference.integers(77))
        draws.sync()
        bounds = np.arange(50, 0, -1)
        assert np.array_equal(generator.integers(bounds), reference.integers(bounds))
        draws.reload()
        assert [draws.integers(s) for s in (9, 8, 7)] == [int(reference.integers(s)) for s in (9, 8, 7)]
        draws.sync()
        assert generator.bit_generator.state == reference.bit_generator.state

    def test_bounds_beyond_32_bits_take_integers(self):
        reference, generator = _twins(10)
        draws = bounded_draws(generator)
        for size in (3, 2**32, 2**40 + 3, 5, 2**32 + 1, 6):
            assert draws.integers(size) == int(reference.integers(size))
        draws.sync()
        assert generator.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "size, leftover",
        [
            # threshold = 2**32 mod size; a value is rejected iff its
            # leftover is below it.
            (2**31 + 1, (2**32) % (2**31 + 1)),  # exactly the threshold: kept
            (2**31 + 1, (2**32) % (2**31 + 1) - 1),  # one below: rejected
            (3 * 2**30 + 1, (2**32) % (3 * 2**30 + 1)),
            (3 * 2**30 + 1, (2**32) % (3 * 2**30 + 1) - 1),
            (1001, 1000),  # below size, above the threshold: kept
            (1001, 1001),  # at size: no threshold test at all
        ],
    )
    def test_rejection_threshold_boundaries(self, size, leftover):
        word = _word_with_leftover(size, leftover)
        assert int(_next_word_is(word).bit_generator.random_raw()) == word
        reference, generator = _next_word_is(word), _next_word_is(word)
        draws = bounded_draws(generator)
        for _ in range(3):
            assert draws.integers(size) == int(reference.integers(size))
        draws.sync()
        assert generator.bit_generator.state == reference.bit_generator.state

    def test_self_check_does_not_run_at_import(self):
        code = (
            "import repro.experiments.cli, repro.simulator.vector_kernels\n"
            "from repro.utils.rng import _raw_draws_agree\n"
            "print(_raw_draws_agree.cache_info().misses)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestFallback:
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM])
    def test_other_bit_generators_call_integers(self, bit_generator):
        generator = np.random.Generator(bit_generator(5))
        reference = np.random.Generator(bit_generator(5))
        draws = bounded_draws(generator)
        assert draws.fallback == f"bit-generator:{bit_generator.__name__}"
        assert raw_draw_fallback(generator) == draws.fallback
        for size in (2**31 + 1, 1, 10, 7, 2**33):
            assert draws.integers(size) == int(reference.integers(size))
        draws.sync()
        assert _same_state(generator.bit_generator.state, reference.bit_generator.state)

    def test_a_pcg64_subclass_is_not_exact(self):
        class _Wrapped(np.random.PCG64):
            pass

        assert raw_draw_fallback(np.random.Generator(_Wrapped(1))) == "bit-generator:_Wrapped"
