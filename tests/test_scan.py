"""The packed scanners against the former whole-word scanners that visit
every period (``tests/reference_kernel.py``): ``max_exponent`` and
``exists_repetition`` must return the same occurrence, witness included,
both with the aligned-block period filter at its default cut-off and with
the filter applied to every band."""

import importlib
import random
from fractions import Fraction

from repthresh import (
    DetectionReport,
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    colorize,
    exists_repetition,
    max_exponent,
    thue_morse,
)
from reference_kernel import ref_exists_repetition, ref_max_exponent

# the package re-exports the function `detect` under the submodule's name
detect_module = importlib.import_module("repthresh.detect")

MIN_PERIODS = (1, 4, 20)
THRESHOLDS = tuple(Fraction(r) for r in ("11/10", "6/5", "3/2", "2", "5/2"))
CUTOFFS = (detect_module._FILTER_MIN_WORK, 1)

# Letters each random word draws from.  At 300 (two bytes per letter) the
# bytes of 1, 256 and 257 collide across letter boundaries; at 2^33 (eight
# bytes, no relabelling) 1 and 2^32 + 1 differ only in their upper half;
# 2^70 is relabelled densely; at 2^20 (four bytes) the bytes of 1, 2^16
# and 2^16 + 1 collide across letter boundaries.
LETTERS = {
    2: (0, 1),
    3: (0, 1, 2),
    4: (0, 1, 2, 3),
    300: (0, 1, 256, 257, 299),
    2**33: (1, 2**32 + 1, 2**32, 2**33 - 1),
    2**70: (1, 2**64 + 1, 2**69, 2**70 - 1),
    2**20: (1, 2**16, 2**16 + 1, 2**20 - 1),
}


def _grid_words():
    words = [thue_morse(n) for n in (1, 2, 7, 100, 1000, 4096)]
    words += [colorize(thue_morse(n), a, 1) for a in (6, 300) for n in (40, 300, 600)]
    rng = random.Random(404)
    for a, pool in LETTERS.items():
        for planted in (False, True, True):
            n = rng.randint(1, 300 if a < 300 else 120) if not planted else rng.randint(200, 900)
            letters = [rng.choice(pool[: rng.randint(2, len(pool))]) for _ in range(n)]
            if planted:
                # one repetition of period p and exponent up to 3
                p = rng.randint(1, n // 3)
                length = p + rng.randint(1, 2 * p)
                s = rng.randint(0, n - length)
                for i in range(s + p, s + length):
                    letters[i] = letters[i - p]
            words.append(Word(a, tuple(letters)))
    return words


WORDS = _grid_words()


def test_max_exponent_matches_reference(monkeypatch):
    for w in WORDS:
        for l in MIN_PERIODS:
            ref = ref_max_exponent(w, l)
            for cut in CUTOFFS:
                monkeypatch.setattr(detect_module, "_FILTER_MIN_WORK", cut)
                rep = max_exponent(w, l)
                assert rep.witness == ref, (w.alphabet, len(w), l, cut)
                assert rep.max_exponent == (None if ref is None else ref.exponent)


def test_exists_repetition_matches_reference(monkeypatch):
    for w in WORDS:
        for l in MIN_PERIODS:
            for r in THRESHOLDS:
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    ref = ref_exists_repetition(w, c)
                    for cut in CUTOFFS:
                        monkeypatch.setattr(detect_module, "_FILTER_MIN_WORK", cut)
                        got = exists_repetition(w, c)
                        assert got == ref, (w.alphabet, len(w), l, str(r), mode, cut)


# --- the prunings of max_exponent and the period floor ---------------------
#
# Words of distinct letters, alphabet 256 (one byte per letter) or 300 (two
# bytes, letters on both sides of 256), with repetitions copied in, in order.
# The first planted repetition, A, is the first best the scan meets.


def _planted(alphabet, n, occurrences):
    letters = [alphabet - 1 - i for i in range(n)]
    for s, p, length in occurrences:
        for i in range(s + p, s + length):
            letters[i] = letters[i - p]
    return Word(alphabet, tuple(letters))


A = (40, 10, 13)  # exponent 13/10, start 40
B = (100, 10, 13)
PRUNING_CASES = [
    # (planted, expected witness)
    ([A, (39, 20, 26)], (39, 20, 26)),  # equal exponent, later period, start 39: wins
    ([A, (40, 20, 26)], A),  # equal exponent, later period, same start: loses
    ([A, (70, 15, 21)], (70, 15, 21)),  # 7/5 after A: wins
    ([A, (40, 20, 28)], (40, 20, 28)),  # 7/5 at A's start: wins
    ([A, (30, 12, 17)], (30, 12, 17)),  # 17/12 before A: wins
    # the tie at 39 wins, then a longer run of the same period further on
    ([A, (39, 20, 26), (100, 20, 28)], (100, 20, 28)),
    # the tie at 39 wins; a second tie of that period, further on, loses
    ([A, (39, 20, 26), (100, 20, 26)], (39, 20, 26)),
    # two ties before B: each later period must start earlier still to win
    ([B, (60, 20, 26), (10, 30, 39)], (10, 30, 39)),
    ([B, (60, 30, 39), (10, 20, 26)], (10, 20, 26)),
]


def _check_scanners(monkeypatch, w, min_periods, thresholds):
    for l in min_periods:
        ref = ref_max_exponent(w, l)
        for cut in CUTOFFS:
            monkeypatch.setattr(detect_module, "_FILTER_MIN_WORK", cut)
            rep = max_exponent(w, l)
            assert rep.witness == ref, (w.alphabet, len(w), l, cut)
            assert rep.max_exponent == (None if ref is None else ref.exponent)
            for r in thresholds:
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    assert exists_repetition(w, c) == ref_exists_repetition(w, c), (l, str(r), mode, cut)


def test_max_exponent_tie_and_better_pruning(monkeypatch):
    exponents = (Fraction(13, 10), Fraction(7, 5), Fraction(17, 12))
    for alphabet in (256, 300):
        for planted, expected in PRUNING_CASES:
            w = _planted(alphabet, 140, planted)
            assert ref_max_exponent(w, 1) == Occurrence(*expected)
            _check_scanners(monkeypatch, w, (1, 10, 11), exponents)


def test_period_floor_at_closest_equal_letters(monkeypatch):
    for alphabet in (256, 300):
        for l in (4, 20):
            for d in (l - 1, l, l + 1):
                # one pair of equal letters at distance l + 3, then the closest at d
                w = _planted(alphabet, 120, [(5, l + 3, l + 4), (60, d, d + 1)])
                expected = (60, d, d + 1) if d >= l else (5, l + 3, l + 4)
                assert ref_max_exponent(w, l) == Occurrence(*expected)
                thresholds = (Fraction(l + 4, l + 3), Fraction(l + 2, l + 1), Fraction(l + 1, l))
                _check_scanners(monkeypatch, w, (l,), thresholds)


def test_all_letters_distinct_give_none(monkeypatch):
    for alphabet, n in ((256, 1), (256, 2), (256, 256), (300, 300), (2**33, 50)):
        w = _planted(alphabet, n, [])
        for l in (1, 4):
            assert max_exponent(w, l) == DetectionReport(None)
        _check_scanners(monkeypatch, w, (1, 4), (Fraction(11, 10), Fraction(2)))


def test_filter_reaches_the_first_and_last_aligned_blocks(monkeypatch):
    # One run in a word of otherwise distinct letters, at the first or the
    # last offsets, so that its later copy holds only the filter's first or
    # last aligned blocks; every band goes through the filter.
    monkeypatch.setattr(detect_module, "_FILTER_MIN_WORK", 1)
    rng = random.Random(2323)
    for alphabet in (256, 300):
        for p in range(4, 20):
            for extra in range(1, 8):
                n = rng.randint(60, 64)
                length = p + extra
                r = Fraction(length, p)
                for s in (0, 1, 2, n - length - 2, n - length - 1, n - length):
                    w = _planted(alphabet, n, [(s, p, length)])
                    assert max_exponent(w, 1).witness == ref_max_exponent(w, 1) == Occurrence(s, p, length)
                    for t in (r, Fraction(2 * length - 1, 2 * p)):
                        for mode in (Mode.GEQ, Mode.STRICT):
                            c = FreenessConstraint(1, t, mode)
                            got = exists_repetition(w, c)
                            assert got == ref_exists_repetition(w, c), (alphabet, n, s, p, length, str(t), mode)


def test_lifts_match_reference(monkeypatch):
    for a in (6, 300):
        for block in (1, 4, 20):
            for n in (150, 599):
                w = colorize(thue_morse(n), a, block)
                _check_scanners(monkeypatch, w, MIN_PERIODS, (Fraction(11, 10), Fraction(2)))


def test_lifts_with_a_win_inside_a_band(monkeypatch):
    # On these lifts the best appears at period 150, the first of the band
    # [150, 299]; the rest of the band is filtered again with the need of
    # the new best, so only a handful of periods get a match vector.
    words = [colorize(thue_morse(n), 300, 1) for n in (1100, 1995)]
    for w in words:
        _check_scanners(monkeypatch, w, (1, 151), (Fraction(11, 10), Fraction(2)))
    monkeypatch.setattr(detect_module, "_FILTER_MIN_WORK", CUTOFFS[0])
    periods = []
    match_vector = detect_module._match_vector

    def counted(x, n, k, p):
        periods.append(p)
        return match_vector(x, n, k, p)

    monkeypatch.setattr(detect_module, "_match_vector", counted)
    for w in words:
        periods.clear()
        assert max_exponent(w, 1).witness == Occurrence(6, 150, 156)
        assert len(periods) < 10, periods
