import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from repthresh import (
    Bracket,
    FreenessConstraint,
    Occurrence,
    Outcome,
    SearchCertificate,
    Word,
    BoundReport,
    build_mapped_word,
    colorize,
    exists_repetition,
    fov_lower_bound,
    fov_upper_main_term,
    growth_lambda,
    max_exponent,
    parse_word,
    pigeonhole_witness,
    rank_map_eval,
    rank_map_image_size,
    rank_map_table,
    render_word,
    simple_lower_bound,
    thue_morse,
    verify_occurrence,
    weak_upper_bound,
)
from repthresh import FreenessConstraint, Mode, construct
from conftest import random_word
from reference_kernel import ref_rank_map_block_extend


# --- Thue-Morse ---------------------------------------------------------------


def test_thue_morse_goldens():
    assert render_word(thue_morse(8)) == "01101001"
    with pytest.raises(ValueError, match="length must be >= 0"):
        thue_morse(-1)
    assert render_word(thue_morse(1)) == "0"
    assert render_word(thue_morse(16)) == "0110100110010110"
    assert len(thue_morse(0)) == 0


def test_thue_morse_matches_popcount_parity():
    for n in [*range(1101), 2**15 - 1, 2**15 + 1]:
        assert thue_morse(n).letters == tuple(i.bit_count() & 1 for i in range(n)), n


def test_thue_morse_recurrence():
    t = thue_morse(2**16).letters
    assert t[0] == 0
    for i in range(2**15):
        assert t[2 * i] == t[i]
        assert t[2 * i + 1] == 1 - t[i]


def test_thue_morse_overlap_free_prefix():
    w = thue_morse(2**11)
    rep = max_exponent(w, 1)
    assert rep.max_exponent == Fraction(2)
    assert exists_repetition(w, FreenessConstraint(1, Fraction(2), Mode.STRICT)) is None


# --- rank mapping ---------------------------------------------------------------


def test_rank_map_eval_examples():
    assert rank_map_eval(3, 2, 8) == (2, 3)
    assert rank_map_eval(0, 2, 8) == (0, 1)
    assert rank_map_eval(8, 3, 9) == (4, 3)


def test_rank_map_worked_table():
    table = rank_map_table(2, 8)
    assert [value for _, _, value in table] == [0, 1, 0, 2, 0, 1, 0, 3]
    assert rank_map_image_size(2, 8) == 4


def test_rank_map_validation():
    with pytest.raises(ValueError):
        rank_map_eval(8, 2, 8)
    with pytest.raises(ValueError):
        rank_map_eval(0, 1, 8)
    with pytest.raises(ValueError):
        rank_map_eval(-1, 2, 8)
    with pytest.raises(ValueError, match="block size must be >= 1"):
        rank_map_eval(0, 2, 0)
    with pytest.raises(ValueError, match="block size must be >= 1, got 0"):
        rank_map_image_size(2, 0)
    # checked before the closed form, whose recursion would not end at radix 1
    with pytest.raises(ValueError, match="radix must be >= 2, got 1"):
        rank_map_image_size(1, 5)


def _rule_matches(i: int, m: int) -> list[int]:
    """Direct reading of the per-rank rules: rank k applies iff the low k-1
    base-m digits of i are all m-1 and the next digit is not."""
    ranks = []
    k = 1
    while m ** (k - 1) <= i + 1:
        block = m ** (k - 1)
        if i % block == block - 1 and (i // block) % m != m - 1:
            ranks.append(k)
        k += 1
    return ranks


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rank_map_totality_and_uniqueness(m):
    limit = 1000
    for i in range(limit):
        ranks = _rule_matches(i, m)
        assert len(ranks) == 1, (i, m, ranks)
        value, rank = rank_map_eval(i, m, limit)
        assert rank == ranks[0]
        # rank-k values occupy the k-th band of m-1 source positions
        assert (rank - 1) * (m - 1) <= value <= rank * (m - 1) - 1


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rank_window_property(m):
    limit = 1000
    ranks = [rank_map_eval(i, m, limit)[1] for i in range(limit)]
    for k in range(1, 6):
        window = m**k
        if window > limit:
            break
        prefix = [0]
        for r in ranks:
            prefix.append(prefix[-1] + (1 if r > k else 0))
        for start in range(limit - window + 1):
            assert prefix[start + window] - prefix[start] <= 1


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rank_map_image_contiguous(m):
    limit = 1000
    seen = set()
    top = -1
    for l in range(1, limit + 1):
        v = rank_map_eval(l - 1, m, limit)[0]
        seen.add(v)
        top = max(top, v)
        assert len(seen) == top + 1, f"gap in image at l={l}, m={m}"
        # top is the largest value of f on [0, l), which depends on l only
        # through the bounds check
        assert rank_map_image_size(m, l) == top + 1, (l, m)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rank_map_image_size_bound(m):
    for l in [1, 2, 5, 17, 100, 999, 4096]:
        L = rank_map_image_size(m, l)
        assert L <= (m - 1) * (math.ceil(math.log(l, m)) + 1 if l > 1 else 1)


def test_rank_map_block_extend_examples():
    assert ref_rank_map_block_extend(11, 2, 8) == 6
    assert ref_rank_map_block_extend(5, 2, 8) == 1
    assert ref_rank_map_block_extend(16, 2, 8) == 8


def test_rank_map_block_extend_is_shifted_copy():
    m, l = 3, 10
    L = rank_map_image_size(m, l)
    for i in range(l):
        base = ref_rank_map_block_extend(i, m, l)
        for j in range(1, 4):
            assert ref_rank_map_block_extend(i + j * l, m, l) == base + j * L


# --- mapped words -----------------------------------------------------------------


def test_build_mapped_word_examples():
    digits = parse_word("0123456789", 10)
    w = build_mapped_word(digits, 2, 8, 8)
    assert w.letters == (0, 1, 0, 2, 0, 1, 0, 3)
    w2 = build_mapped_word(parse_word("01", 2), 2, 2, 2)
    assert w2.letters == (0, 1)
    assert len(build_mapped_word(digits, 2, 8, 0)) == 0


def test_build_mapped_word_evaluates_only_the_indices_it_uses(monkeypatch):
    # n < l letters need only the block's first n values, not its l rows
    calls = []
    evaluate = construct.rank_map_eval

    def counting_eval(i, m, l):
        calls.append(i)
        return evaluate(i, m, l)

    monkeypatch.setattr(construct, "rank_map_eval", counting_eval)
    w = build_mapped_word(Word(4, (0, 1, 2, 3)), 2, 1000, 4)
    assert w.letters == (0, 1, 0, 2)
    assert calls == [0, 1, 2, 3]


def test_build_mapped_word_source_too_short():
    with pytest.raises(ValueError, match="need 4 letters, have 2"):
        build_mapped_word(parse_word("01", 2), 2, 8, 8)
    with pytest.raises(ValueError, match="length must be >= 0"):
        build_mapped_word(parse_word("01", 2), 2, 8, -1)


def test_build_mapped_word_checks_the_source_length_first():
    # the needed length comes from one block, not from an index list of n
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="need 100000 letters, have 2"):
            build_mapped_word(parse_word("01", 2), 2, 8, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_build_mapped_word_holds_no_index_list():
    # 200,000 letters from a 1.5M-letter source: the result (a tuple) and
    # the list it is copied from take 1.5 MiB each; a list of the n source
    # indices, as ints, would take 6 MiB more
    source = thue_morse(1_500_000)
    tracemalloc.start()
    try:
        w = build_mapped_word(source, 2, 8, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 200_000
    for i in range(0, 200_000, 997):
        assert w.letters[i] == source.letters[ref_rank_map_block_extend(i, 2, 8)]
    assert peak < 4 << 20


def test_mapped_word_pullback_property():
    rng = random.Random(21)
    source = random_word(rng, 2, 64)
    m, l, n = 2, 8, 40
    w = build_mapped_word(source, m, l, n)
    for i in range(n):
        assert w.letters[i] == source.letters[ref_rank_map_block_extend(i, m, l)]


# --- coloring lift -----------------------------------------------------------------


def test_colorize_goldens():
    base = parse_word("000000", 2)
    assert colorize(base, 6, 1).letters == (0, 2, 4, 0, 2, 4)
    base = parse_word("101010", 2)
    assert colorize(base, 6, 2).letters == (1, 0, 3, 2, 5, 4)
    assert len(colorize(parse_word("", 2), 6, 1)) == 0


def test_colorize_validation():
    base = parse_word("01", 2)
    with pytest.raises(ValueError):
        colorize(base, 7, 1)
    with pytest.raises(ValueError):
        colorize(base, 4, 1)
    with pytest.raises(ValueError):
        colorize(parse_word("012", 3), 6, 1)
    with pytest.raises(ValueError):
        colorize(base, 6, 0)


def test_coloring_distance_property_spot():
    # no equal letters at distances l..(a/2-1)*l, whatever the base bits
    rng = random.Random(22)
    for a in (6, 8):
        for l in (1, 2, 5):
            for base in [Word(2, (0,) * 150), random_word(rng, 2, 150)]:
                v = colorize(base, a, l).letters
                for d in range(l, (a // 2 - 1) * l + 1):
                    for p in range(len(v) - d):
                        assert v[p] != v[p + d]


# --- pigeonhole witness --------------------------------------------------------------


def test_pigeonhole_examples():
    occ = pigeonhole_witness(parse_word("010", 2), 2, 1)
    assert occ == Occurrence(0, 2, 3)
    assert occ.exponent == Fraction(3, 2)
    occ = pigeonhole_witness(parse_word("001", 2), 2, 1)
    assert occ.start == 0 and occ.period == 1 and occ.length == 2
    occ = pigeonhole_witness(parse_word("011010", 2), 2, 2)
    assert (occ.start, occ.period, occ.length) == (2, 2, 3)


def test_pigeonhole_validation():
    with pytest.raises(ValueError, match="too short"):
        pigeonhole_witness(parse_word("01", 2), 2, 1)
    with pytest.raises(ValueError, match="alphabet"):
        pigeonhole_witness(parse_word("012", 3), 2, 1)
    with pytest.raises(ValueError, match="need a >= 1 and l >= 1"):
        pigeonhole_witness(parse_word("010", 2), 0, 1)


def test_pigeonhole_witness_random_validity():
    rng = random.Random(23)
    for _ in range(1000):
        a = rng.randint(2, 5)
        l = rng.randint(1, 4)
        w = random_word(rng, a, a * l + 1)
        occ = pigeonhole_witness(w, a, l)
        assert verify_occurrence(w, occ)
        assert occ.period % l == 0 and l <= occ.period <= a * l
        assert occ.exponent >= 1 + Fraction(1, a * l)


# --- bound formulas -------------------------------------------------------------------


def test_simple_lower_bound():
    assert simple_lower_bound(2, 1) == Fraction(3, 2)
    assert simple_lower_bound(2, 2) == Fraction(5, 4)
    assert simple_lower_bound(10, 10) == Fraction(101, 100)
    with pytest.raises(ValueError, match="alphabet size must be >= 2"):
        simple_lower_bound(1, 1)


def test_fov_lower_bound():
    assert fov_lower_bound(2, 2) == Fraction(4, 3)
    assert fov_lower_bound(2, 1) == Fraction(3, 2)
    assert fov_lower_bound(3, 1) == Fraction(4, 3)
    with pytest.raises(ValueError, match="min period must be >= 1"):
        fov_lower_bound(2, 0)


def test_lower_bound_ordering_spot():
    for a in range(2, 8):
        for l in range(1, 30):
            assert fov_lower_bound(a, l) >= simple_lower_bound(a, l)


def test_growth_lambda():
    assert abs(growth_lambda(2) - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(growth_lambda(3) - (1 + math.sqrt(3))) < 1e-12
    with pytest.raises(ValueError, match="alphabet size must be >= 2"):
        growth_lambda(1)


def test_fov_upper_main_term():
    value, degenerate = fov_upper_main_term(2, 1)
    assert value == 1.0 and degenerate
    value, degenerate = fov_upper_main_term(3, 10, sig_digits=6)
    expected = 1 + 2 * math.log(10) / (10 * math.log(1 + math.sqrt(3)))
    assert not degenerate
    assert abs(value - expected) < 1e-5


def test_weak_upper_bound():
    assert weak_upper_bound(2, 8) == 1.375
    assert weak_upper_bound(2, 1) == 1.0
    assert weak_upper_bound(4, 16) == 1.125
    with pytest.raises(ValueError):
        weak_upper_bound(1.0, 4)
    with pytest.raises(ValueError, match="min period must be >= 1"):
        weak_upper_bound(2, 0)


def test_bracket_c_hat():
    # the empirical constant c_hat = (r_hi - 1) * a * l of a bracket, whose
    # r_hi is the threshold of its last certificate when that is REACHED
    def cert(a, r, outcome):
        witness = Word(a, (0,)) if outcome is Outcome.REACHED else None
        return SearchCertificate(a, FreenessConstraint(1, r), outcome, None, 0, witness, 0.0)

    assert Bracket(2, 1, [cert(2, Fraction(2), Outcome.REACHED)]).c_hat == Fraction(2)
    assert Bracket(3, 1, [cert(3, Fraction(9, 5), Outcome.REACHED)]).c_hat == Fraction(12, 5)
    # no REACHED rung: no upper end, so no constant
    unbounded = Bracket(2, 1, [cert(2, Fraction(2), Outcome.BUDGET_EXCEEDED)])
    assert unbounded.c_hat is None
    assert unbounded.summary_line().endswith("r_hi=- c_hat=-")


def test_bound_report():
    report = BoundReport(2, 2)
    assert report.simple_lower == Fraction(5, 4)
    assert report.fov_lower == Fraction(4, 3)
    doc = report.to_jsonable()
    assert doc["simple_lower"] == {"num": 5, "den": 4}
    assert doc["fov_upper_omits_correction"] is True
    assert doc["weak_upper"] is None
    report = BoundReport(5, 16, weak_log_base=4.0)
    assert report.weak_upper == 1.125
    with pytest.raises(ValueError, match="weak_log_base"):
        BoundReport(2, 4, weak_log_base=2.5)
    # a, l and sig_digits must be integers: a float would fail only later,
    # in to_jsonable()
    for args, kwargs in [((2.5, 2), {}), ((3, 2.0), {}), ((2, 2), {"sig_digits": 2.5})]:
        with pytest.raises(TypeError):
            BoundReport(*args, **kwargs)
