import random
from fractions import Fraction

import pytest

from repthresh import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    detect,
    exists_repetition,
    max_exponent,
    min_repeat_distance,
    naive_oracle,
    parse_word,
    thue_morse,
    verify_occurrence,
    violations_ending_at,
)
from conftest import brute_max_exponent, random_word


def geq(l, num, den=1):
    return FreenessConstraint(l, Fraction(num, den), Mode.GEQ)


def strict(l, num, den=1):
    return FreenessConstraint(l, Fraction(num, den), Mode.STRICT)


# --- naive oracle -----------------------------------------------------------


def test_naive_oracle_examples():
    assert naive_oracle(parse_word("000", 2), geq(1, 3)) == Occurrence(0, 1, 3)
    w = parse_word("012012", 3)
    assert naive_oracle(w, geq(3, 2)) == Occurrence(0, 3, 6)
    assert naive_oracle(w, geq(4, 2)) is None


def test_naive_oracle_tie_break():
    # two exponent-2 occurrences; smallest start wins
    w = parse_word("001212", 3)
    occ = naive_oracle(w, geq(1, 2))
    assert occ == Occurrence(0, 1, 2)


def test_naive_oracle_strict_vs_geq():
    w = parse_word("0120120", 3)  # maximal exponent exactly 7/3
    assert naive_oracle(w, geq(3, 7, 3)) == Occurrence(0, 3, 7)
    assert naive_oracle(w, strict(3, 7, 3)) is None


def test_naive_oracle_empty_word():
    with pytest.raises(ValueError):
        naive_oracle(Word(2, ()), geq(1, 2))


# --- max_exponent -----------------------------------------------------------


def test_max_exponent_examples():
    w = parse_word("01001", 2)  # "abaab"
    rep = max_exponent(w, 1)
    assert rep.max_exponent == Fraction(2)
    assert rep.witness == Occurrence(2, 1, 2)
    rep = max_exponent(w, 3)
    assert rep.max_exponent == Fraction(5, 3)
    assert rep.witness == Occurrence(0, 3, 5)
    rep = max_exponent(parse_word("012", 3), 1)
    assert rep.max_exponent is None and rep.witness is None
    assert not rep.constraint_violated


def test_max_exponent_witness_verifies():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, rng.choice([2, 3]), rng.randint(1, 60))
        min_period = rng.randint(1, 4)
        rep = max_exponent(w, min_period)
        if rep.witness is not None:
            assert verify_occurrence(w, rep.witness)
            assert rep.witness.exponent == rep.max_exponent
            assert rep.witness.period >= min_period


# --- exists_repetition ------------------------------------------------------


def test_exists_repetition_thue_morse_is_overlap_free():
    w = thue_morse(1024)
    assert exists_repetition(w, strict(1, 2)) is None


def test_exists_repetition_examples():
    w = parse_word("0120120", 3)
    occ = exists_repetition(w, geq(3, 7, 3))
    assert occ == Occurrence(0, 3, 7)
    assert exists_repetition(w, strict(3, 7, 3)) is None


def test_exists_witness_is_forbidden():
    rng = random.Random(6)
    for _ in range(300):
        w = random_word(rng, rng.choice([2, 3, 4]), rng.randint(1, 80))
        c = FreenessConstraint(
            rng.randint(1, 5),
            Fraction(rng.randint(9, 24), 8),
            rng.choice([Mode.GEQ, Mode.STRICT]),
        )
        occ = exists_repetition(w, c)
        if occ is not None:
            assert verify_occurrence(w, occ)
            assert c.forbids_occurrence(occ)


# --- agreement between the fast path and the oracle -------------------------


def _random_case(rng):
    a = rng.choice([2, 3, 4])
    w = random_word(rng, a, rng.randint(1, 120))
    l = rng.randint(1, 8)
    den = rng.randint(1, 8)
    num = rng.randint(den + 1, 3 * den)
    mode = rng.choice([Mode.GEQ, Mode.STRICT])
    return w, FreenessConstraint(l, Fraction(num, den), mode)


def test_fast_path_agrees_with_oracle():
    rng = random.Random(99)
    for _ in range(1500):
        w, c = _random_case(rng)
        assert (exists_repetition(w, c) is None) == (naive_oracle(w, c) is None)


def test_max_exponent_agrees_with_brute_force():
    rng = random.Random(100)
    for _ in range(800):
        w, c = _random_case(rng)
        rep = max_exponent(w, c.min_period)
        brute = brute_max_exponent(w, c.min_period)
        if brute is None:
            assert rep.max_exponent is None
        else:
            assert rep.max_exponent == Fraction(brute[0], brute[1])


def test_generic_path_large_alphabet():
    # alphabets above 256 are packed at two bytes per letter, and the
    # scanners fold each letter's match to one byte
    rng = random.Random(11)
    for _ in range(150):
        w = random_word(rng, 300, rng.randint(1, 40))
        c = FreenessConstraint(rng.randint(1, 3), Fraction(rng.randint(3, 6), 2))
        assert (exists_repetition(w, c) is None) == (naive_oracle(w, c) is None)
        brute = brute_max_exponent(w, 1)
        rep = max_exponent(w, 1)
        if brute is None:
            assert rep.max_exponent is None
        else:
            assert rep.max_exponent == Fraction(brute[0], brute[1])


# --- monotonicity properties -------------------------------------------------


def test_prefix_monotonicity():
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        w, c = _random_case(rng)
        if exists_repetition(w, c) is not None:
            continue
        checked += 1
        for cut in range(1, len(w)):
            prefix = Word(w.alphabet, w.letters[:cut])
            assert exists_repetition(prefix, c) is None


def test_threshold_monotonicity():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        w, c = _random_case(rng)
        if exists_repetition(w, c) is not None:
            continue
        checked += 1
        num, den = c.threshold.numerator, c.threshold.denominator
        higher = FreenessConstraint(
            c.min_period, Fraction(num * 2 + 1, den * 2), c.mode
        )
        assert higher.threshold > c.threshold
        assert exists_repetition(w, higher) is None


# --- incremental checking ----------------------------------------------------


def test_violations_ending_at_examples():
    w = parse_word("010", 2)  # "aba"
    assert violations_ending_at(w, geq(2, 3, 2), 2) == Occurrence(0, 2, 3)
    assert violations_ending_at(w, strict(2, 3, 2), 2) is None
    assert violations_ending_at(parse_word("01", 2), geq(1, 2), 1) is None


def test_violations_ending_at_bounds():
    w = parse_word("010", 2)
    with pytest.raises(ValueError):
        violations_ending_at(w, geq(1, 2), 3)


def test_incremental_completeness():
    # growing letter by letter, all-clean incremental checks match the scanner
    rng = random.Random(14)
    for _ in range(400):
        w, c = _random_case(rng)
        clean = True
        for pos in range(len(w)):
            prefix = Word(w.alphabet, w.letters[: pos + 1])
            occ = violations_ending_at(prefix, c, pos)
            if occ is not None:
                assert verify_occurrence(prefix, occ)
                assert c.forbids_occurrence(occ)
                assert occ.end == pos + 1
                clean = False
                break
        assert clean == (exists_repetition(w, c) is None)


# --- detect convenience -------------------------------------------------------


def test_detect_with_constraint():
    w = parse_word("012012", 3)
    rep = detect(w, 3, geq(3, 2))
    assert rep.constraint_violated
    assert rep.max_exponent == Fraction(2)
    rep = detect(w, 3, geq(4, 2))
    assert not rep.constraint_violated


def test_detect_matches_separate_scans():
    # equal periods take the verdict from the maximum; others scan again
    rng = random.Random(17)
    for _ in range(600):
        w, c = _random_case(rng)
        min_period = c.min_period if rng.random() < 0.5 else rng.randint(1, 8)
        rep = detect(w, min_period, c)
        me = max_exponent(w, min_period)
        assert (rep.max_exponent, rep.witness) == (me.max_exponent, me.witness)
        assert rep.constraint_violated == (exists_repetition(w, c) is not None)


# --- min_repeat_distance ------------------------------------------------------


def test_min_repeat_distance_examples():
    assert min_repeat_distance(parse_word("0101", 2), 2) == 2
    assert min_repeat_distance(parse_word("0123", 4), 2) is None
    assert min_repeat_distance(parse_word("001", 2), 1) == 1


def test_min_repeat_distance_bounds():
    with pytest.raises(ValueError):
        min_repeat_distance(parse_word("01", 2), 3)
    with pytest.raises(ValueError):
        min_repeat_distance(parse_word("01", 2), 0)


def _brute_min_distance(w, n):
    best = None
    for i in range(len(w) - n + 1):
        for j in range(i + 1, len(w) - n + 1):
            if w.letters[i : i + n] == w.letters[j : j + n]:
                if best is None or j - i < best:
                    best = j - i
    return best


def test_min_repeat_distance_brute_force():
    rng = random.Random(15)
    for _ in range(300):
        a = rng.choice([2, 3, 300])
        w = random_word(rng, a, rng.randint(1, 40))
        n = rng.randint(1, len(w))
        assert min_repeat_distance(w, n) == _brute_min_distance(w, n)


def test_min_repeat_distance_grows_with_factor_length():
    # a repeat of length n+1 at distance d is also one of length n
    rng = random.Random(16)
    for _ in range(300):
        w = random_word(rng, 2, rng.randint(2, 50))
        n = rng.randint(1, len(w) - 1)
        d1 = min_repeat_distance(w, n)
        d2 = min_repeat_distance(w, n + 1)
        if d1 is not None and d2 is not None:
            assert d1 <= d2
        if d2 is not None:
            assert d1 is not None
