import json
import random
from fractions import Fraction

import pytest

from repthresh import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    WordFormatError,
    parse_exponent,
    parse_word,
    read_word_file,
    render_word,
    verify_occurrence,
)
from repthresh.words import fraction_from_json, fraction_json
from conftest import periodic_prefix_oracle, random_word


def test_parse_basic():
    assert parse_word("0110", 2).letters == (0, 1, 1, 0)
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        parse_word("", 0)
    assert parse_word("", 2).letters == ()
    assert parse_word("a", 11).letters == (10,)
    assert parse_word("z", 36).letters == (35,)


def test_parse_out_of_range():
    with pytest.raises(WordFormatError, match="letter 2 >= alphabet size 2"):
        parse_word("2", 2)
    with pytest.raises(WordFormatError, match="position 3"):
        parse_word("0103", 3)


def test_parse_bad_character():
    with pytest.raises(WordFormatError, match="invalid letter"):
        parse_word("01!", 2)


def test_parse_comma_format():
    w = parse_word("37,0,41", 64)
    assert w.letters == (37, 0, 41)
    assert parse_word("", 64).letters == ()
    with pytest.raises(WordFormatError, match="letter 64 >= alphabet size 64"):
        parse_word("0,64", 64)
    with pytest.raises(WordFormatError, match="position 1: letter -1 is negative"):
        parse_word("1,-1", 40)
    with pytest.raises(WordFormatError, match="invalid letter token"):
        parse_word("1,x", 64)


def test_render_roundtrip_random():
    rng = random.Random(101)
    for _ in range(500):
        a = rng.choice([1, 2, 3, 10, 36, 37, 64, 300])
        w = random_word(rng, a, rng.randrange(0, 40))
        assert parse_word(render_word(w), a) == w


def test_word_validation():
    w = Word(2, [0, 1])  # a list of letters is stored as a tuple
    assert w.letters == (0, 1)
    assert str(w) == "01"
    with pytest.raises(ValueError):
        Word(0, ())
    with pytest.raises(ValueError, match="position 1"):
        Word(2, (0, 2))
    with pytest.raises(ValueError):
        Word(2, (-1,))


def test_read_word_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# comment\n0110\n\n1001\n")
    words = read_word_file(path, 2)
    assert [w.letters for w in words] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    path.write_text("012\n")
    with pytest.raises(WordFormatError, match="line 1"):
        read_word_file(path, 2)


def test_exponent_order_is_exact():
    for p in range(1, 12):
        for n in range(p + 1, 3 * p + 1):
            e = Occurrence(0, p, n).exponent
            assert isinstance(e, Fraction) and e == Fraction(n, p)
            assert Occurrence(0, 2 * p, 2 * n).exponent == e
    # exponents that a float would round to 1, and so to each other
    big = 10**17
    e = Occurrence(0, big, big + 1).exponent
    assert e > 1
    assert FreenessConstraint(1, Fraction(big + 2, big + 1)).forbids(e)
    assert not FreenessConstraint(1, Fraction(big + 1, big), Mode.STRICT).forbids(e)
    # a tie with the threshold meets GEQ but not STRICT, at every scale
    geq = FreenessConstraint(1, Fraction(7, 3), Mode.GEQ)
    strict = FreenessConstraint(1, Fraction(7, 3), Mode.STRICT)
    for occ in (Occurrence(0, 3, 7), Occurrence(0, 6, 14)):
        assert geq.forbids(occ.exponent)
        assert not strict.forbids(occ.exponent)
    assert strict.forbids(Occurrence(0, 3, 8).exponent)
    assert not geq.forbids(Occurrence(0, 3, 6).exponent)


def test_parse_exponent():
    assert parse_exponent("7/4") == Fraction(7, 4)
    assert parse_exponent("2") == Fraction(2)
    with pytest.raises(ValueError):
        parse_exponent("7/0")
    with pytest.raises(ValueError):
        parse_exponent("x")


def test_verify_occurrence_examples():
    w = parse_word("01001", 2)  # "abaab"
    assert verify_occurrence(w, Occurrence(0, 3, 5))
    assert not verify_occurrence(w, Occurrence(0, 4, 5))
    assert verify_occurrence(parse_word("0000", 2), Occurrence(0, 1, 4))


def test_verify_occurrence_out_of_bounds():
    w = parse_word("0101", 2)
    assert not verify_occurrence(w, Occurrence(2, 2, 4))


def test_occurrence_geometry():
    occ = Occurrence(1, 3, 7)
    assert occ.end == 8
    assert occ.exponent == Fraction(7, 3)
    with pytest.raises(ValueError):
        Occurrence(0, 3, 3)  # length must exceed period
    with pytest.raises(ValueError):
        Occurrence(-1, 1, 2)
    with pytest.raises(ValueError):
        Occurrence(0, 0, 2)


def test_verify_occurrence_agrees_with_prefix_oracle():
    # both readings of "is a fractional power occurrence" must coincide
    rng = random.Random(2024)
    for _ in range(10_000):
        a = rng.choice([2, 3, 4])
        n = rng.randint(2, 30)
        w = random_word(rng, a, n)
        period = rng.randint(1, n)
        length = rng.randint(period + 1, period + n)
        start = rng.randint(0, n - 1)
        occ = Occurrence(start, period, length)
        assert verify_occurrence(w, occ) == periodic_prefix_oracle(w, occ)


def test_constraint_validation():
    with pytest.raises(ValueError):
        FreenessConstraint(0, Fraction(2))
    with pytest.raises(ValueError, match="threshold"):
        FreenessConstraint(1, Fraction(1))
    c = FreenessConstraint(2, Fraction(3, 2), Mode.STRICT)
    assert c.forbids(Fraction(7, 4))
    assert not c.forbids(Fraction(3, 2))
    geq = FreenessConstraint(2, Fraction(3, 2), Mode.GEQ)
    assert geq.forbids(Fraction(3, 2))
    assert geq.forbids_occurrence(Occurrence(0, 2, 3))
    assert not geq.forbids_occurrence(Occurrence(0, 1, 2))  # period below minimum


def test_constraint_rejects_float_threshold():
    # Fraction(1.1) would be 2476979795053773/2251799813685248, just above
    # 11/10, so a GEQ check would let an exponent of exactly 11/10 through
    for r in (1.1, 2.0, float("inf")):
        with pytest.raises(ValueError, match="float; pass a Fraction, an int or"):
            FreenessConstraint(1, r)
    assert FreenessConstraint(1, "11/10").threshold == Fraction(11, 10)
    assert FreenessConstraint(1, 2).threshold == Fraction(2)
    assert FreenessConstraint(1, "11/10").forbids(Fraction(11, 10))


def test_fraction_json_roundtrip():
    for f in [None, Fraction(7, 4), Fraction(2), Fraction(5, 4), Fraction(3**50, 2**61)]:
        doc = json.loads(json.dumps(fraction_json(f)))
        assert fraction_from_json(doc) == f
        assert fraction_json(fraction_from_json(doc)) == doc
    # an unreduced encoding decodes to the reduced rational
    assert fraction_from_json({"num": 6, "den": 4}) == Fraction(3, 2)
