import json
import random
import sys
from fractions import Fraction

import pytest

import repthresh
from repthresh import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    WordFormatError,
    build_mapped_word,
    colorize,
    detect,
    exists_repetition,
    naive_oracle,
    parse_exponent,
    parse_word,
    read_word_file,
    render_word,
    verify_occurrence,
)
from repthresh.words import fraction_from_json, fraction_json
from conftest import periodic_prefix_oracle, random_word
from reference_kernel import ref_parse_word, ref_rank_map_block_extend


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


def test_comma_tokens_are_ascii_digits():
    # int() alone also reads signs, spaces, '_' separators and non-ASCII
    # digits; none of these is a letter
    for text, pos, tok in [
        (" 7", 0, " 7"), ("7 ", 0, "7 "), ("+3", 0, "+3"), ("1_0", 0, "1_0"),
        ("\u0663", 0, "\u0663"), ("1,\uff12", 1, "\uff12"), ("1, 2", 1, " 2"),
        ("-0", 0, "-0"), ("5,-00", 1, "-00"), ("-", 0, "-"), ("--1", 0, "--1"),
        ("2,1e3", 1, "1e3"), ("1,,2", 1, ""), ("3,", 1, ""), (",", 0, ""),
    ]:
        with pytest.raises(WordFormatError) as exc:
            parse_word(text, 64)
        assert str(exc.value) == f"position {pos}: invalid letter token {tok!r}", text
    for text, message in [
        ("-007", "position 0: letter -7 is negative"),
        ("4,-12", "position 1: letter -12 is negative"),
        ("99,x", "position 0: letter 99 >= alphabet size 64"),
        ("1,x,99", "position 1: invalid letter token 'x'"),
        ("0,64", "position 1: letter 64 >= alphabet size 64"),
    ]:
        with pytest.raises(WordFormatError) as exc:
            parse_word(text, 64)
        assert str(exc.value) == message, text
    # a token past int()'s digit limit (Python 3.10.7 and later) is reported,
    # not raised as a bare ValueError; without the limit it is read as a letter
    if hasattr(sys, "get_int_max_str_digits"):
        expected = "^position 1: invalid letter token '999"
    else:
        expected = "^position 1: letter 999+ >= alphabet size 64$"
    with pytest.raises(WordFormatError, match=expected):
        parse_word("1," + "9" * 5000, 64)
    # leading zeros are still letters
    assert parse_word("007,0,63,00", 64).letters == (7, 0, 63, 0)
    rng = random.Random(7)
    letters = tuple(rng.randrange(300) for _ in range(500))
    assert parse_word(",".join(map(str, letters)), 300).letters == letters


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


def test_word_rejects_non_integer_letters():
    # Before this check Word(2, [0.5, 1]) was accepted, and the naive
    # oracle answered None on it while max_exponent raised TypeError.
    for letters in ([0.5, 1], (0, Fraction(1, 2)), [0, "1"], (1, None)):
        with pytest.raises(TypeError, match="is not an integer"):
            Word(2, letters)
    with pytest.raises(TypeError, match="^position 1: letter 1.0 is not an integer$"):
        Word(2, (x for x in [0, 1.0]))
    assert Word(2, [True, False]).letters == (True, False)  # bool is an integer


def test_word_accepts_every_iterable_form():
    forms = {
        "generator": lambda: (x for x in range(5)),
        "list": lambda: list(range(5)),
        "range": lambda: range(5),
        "tuple": lambda: tuple(range(5)),
        "bytes": lambda: bytes(range(5)),
        "bytearray": lambda: bytearray(range(5)),
    }
    for name, make in forms.items():
        w = Word(5, make())
        assert type(w.letters) is tuple and w.letters == (0, 1, 2, 3, 4), name
        with pytest.raises(ValueError) as exc:
            Word(3, make())
        assert str(exc.value) == "position 3: letter 3 out of range for alphabet size 3", name
    for empty in ((), [], range(0), iter(()), b"", bytearray()):
        assert Word(2, empty).letters == ()
    with pytest.raises(ValueError, match="^position 1: letter 255 out of range for alphabet size 3$"):
        Word(3, b"\x00\xff")
    assert Word(300, bytes([255, 0])).letters == (255, 0)
    assert Word(256, bytearray([255])).letters == (255,)


def _decode_both(text, alphabet):
    """parse_word and the reference decoder on one text: ("ok", letters) or
    ("error", message) for each."""
    results = []
    for parse in (parse_word, ref_parse_word):
        try:
            letters = parse(text, alphabet).letters
        except WordFormatError as exc:
            results.append(("error", str(exc)))
        else:
            assert type(letters) is tuple
            results.append(("ok", letters))
    return results


def test_decoder_and_lift_match_reference():
    rng = random.Random(17)
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    junk = list("ABZ!.-_ ,;\t") + ["\u00e9", "\u2603"]
    errors = 0
    for _ in range(4500):
        a = rng.choice([1, 2, 3, 10, 35, 36, 37, 64, 300])
        bad = rng.choice([0.0, 0.01, 0.05, 0.3])
        n = rng.randrange(0, 60)
        if a <= 36:
            bad_pieces = junk + list(digits[a:])  # invalid characters, out-of-range digits
            pieces = [rng.choice(bad_pieces) if rng.random() < bad else digits[rng.randrange(a)] for _ in range(n)]
            text = "".join(pieces)
        else:
            bad_pieces = junk + ["", "-1", "+3", " 7", "1e3", str(a), str(a + 1)]
            pieces = [rng.choice(bad_pieces) if rng.random() < bad else str(rng.randrange(a)) for _ in range(n)]
            text = ",".join(pieces)
        new, ref = _decode_both(text, a)
        assert new == ref, (text, a)
        errors += new[0] == "error"
    assert 1000 < errors < 3500
    # an out-of-range digit before an invalid character is reported first
    assert _decode_both("2!", 2) == [("error", "position 0: letter 2 >= alphabet size 2")] * 2
    # non-ASCII text: each code point, lone surrogates from undecodable argv
    # bytes and characters outside the BMP included, is one position
    for text, a in [("0\ud8001", 2), ("0\udcff1", 2), ("0?1", 2), ("0\U0001f6001", 2),
                    ("e\u0301", 2), ("e\u0301", 16), ("2\u00e9", 2), ("\u00e92", 2)]:
        new, ref = _decode_both(text, a)
        assert new == ref and new[0] == "error", (text, a)
    assert _decode_both("0\udcff1", 2)[0] == ("error", "position 1: invalid letter character '\\udcff'")
    assert _decode_both("e\u0301", 16)[0] == ("error", "position 1: invalid letter character '\u0301'")
    assert _decode_both("2\u00e9", 2)[0] == ("error", "position 0: letter 2 >= alphabet size 2")
    assert _decode_both("\u00e92", 2)[0] == ("error", "position 0: invalid letter character '\u00e9'")

    for _ in range(300):
        a = rng.randrange(6, 301, 2)
        l = rng.randint(1, 12)
        n = rng.choice([0, rng.randrange(a // 2 * l), rng.randrange(3 * a * l)])
        bits = [rng.randrange(2) for _ in range(n)]
        lifted = colorize(Word(2, bits), a, l)
        assert lifted.letters == tuple(2 * ((p // l) % (a // 2)) + b for p, b in enumerate(bits))

    for _ in range(200):
        m, l = rng.randint(2, 4), rng.randint(1, 20)
        n = rng.randrange(0, 200)
        values = [ref_rank_map_block_extend(i, m, l) for i in range(n)]
        source = random_word(rng, 300, max(values, default=-1) + 1 + rng.randrange(3))
        mapped = build_mapped_word(source, m, l, n)
        assert mapped.letters == tuple(source.letters[v] for v in values)


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
    assert parse_exponent("014/08") == Fraction(7, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_exponent("7/0")
    # each number is one or more ASCII digits, as in comma-format words;
    # int() alone would read "-7/-4" as 7/4, and signs, spaces, '_' and
    # non-ASCII digits in general
    for text in ("x", "-7/-4", "-7/4", "+7/4", " 7/4", "7/4 ", "1_0/7",
                 "\u0667/\u0664", "7/", "/4", "7/4/2", ""):
        with pytest.raises(ValueError, match="bad exponent"):
            parse_exponent(text)


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
    # a mode given as its value is normalised to the member, so every
    # detector reads it the same way
    w = Word(2, (0, 0))
    for mode in Mode:
        c = FreenessConstraint(1, Fraction(2), mode.value)
        assert c.mode is mode
        assert c == FreenessConstraint(1, Fraction(2), mode)
        square = Occurrence(0, 1, 2) if mode is Mode.GEQ else None
        assert naive_oracle(w, c) == exists_repetition(w, c) == square
        assert detect(w, 1, c).constraint_violated is (square is not None)
    with pytest.raises(ValueError, match="'GEQ' is not a valid Mode"):
        FreenessConstraint(1, Fraction(2), "GEQ")
    # min_period is normalised to an int like the other fields: a float is
    # rejected here, not deep inside whichever detector reads it first
    with pytest.raises(TypeError):
        FreenessConstraint(1.0, Fraction(2))
    c = FreenessConstraint(True, Fraction(2))
    assert type(c.min_period) is int and c.min_period == 1


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


def test_fraction_from_json_rejects_malformed_fractions():
    # a zero or negative den, and a num or den that is not an int (a bool
    # is not one either): a reader must not turn these into a rational or
    # into an error other than ValueError
    for doc in ({"num": 1, "den": 0}, {"num": 3, "den": -2}, {"num": 1.5, "den": 2},
                {"num": "3", "den": 2}, {"num": True, "den": 1}):
        with pytest.raises(ValueError, match="bad fraction"):
            fraction_from_json(doc)


def test_package_reexports_every_module_all():
    # each module's __all__ is the one declaration of its public names;
    # repthresh.detect is the function, so the module comes from sys.modules
    for name in ("words", "detect", "search", "sampler", "construct"):
        module = sys.modules[f"repthresh.{name}"]
        for public in module.__all__:
            assert getattr(repthresh, public, None) is getattr(module, public), (name, public)
