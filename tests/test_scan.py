"""The packed scanners against the former whole-word scanners that visit
every period (``tests/reference_kernel.py``): ``max_exponent`` and
``exists_repetition`` must return the same occurrence, witness included,
both with the aligned-block period filter at its default cut-off and with
the filter applied to every band."""

import importlib
import random
from fractions import Fraction

from repthresh import (
    FreenessConstraint,
    Mode,
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
# 2^70 is relabelled densely.
LETTERS = {
    2: (0, 1),
    3: (0, 1, 2),
    4: (0, 1, 2, 3),
    300: (0, 1, 256, 257, 299),
    2**33: (1, 2**32 + 1, 2**32, 2**33 - 1),
    2**70: (1, 2**64 + 1, 2**69, 2**70 - 1),
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
