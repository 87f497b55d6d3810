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
    naive_oracle,
    parse_word,
    thue_morse,
    verify_occurrence,
    violations_ending_at,
)
from repthresh.detect import _naive_wins
from repthresh.search import _canonical_words
from conftest import brute_max_exponent, random_word
from reference_kernel import ref_naive_oracle


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


def test_naive_oracle_tie_across_periods():
    # (6,1,2) is found first, at period 1; (0,3,6) has the same exponent 2
    # at a larger period and wins by its smaller start
    w = parse_word("01201233", 4)
    assert naive_oracle(w, geq(1, 2)) == Occurrence(0, 3, 6)
    assert naive_oracle(w, geq(1, 3, 2)) == Occurrence(0, 3, 6)
    assert naive_oracle(w, strict(1, 2)) is None


def test_naive_oracle_whole_word_at_last_period():
    # the whole word is a repetition of period exactly n*den/num
    for text, alphabet, num, den, p in (
        ("01201", 3, 5, 3, 3),
        ("0120120", 3, 7, 3, 3),
        ("01230123", 4, 2, 1, 4),
        ("0120", 3, 4, 3, 3),
    ):
        w = parse_word(text, alphabet)
        for l in range(1, p + 1):
            assert naive_oracle(w, geq(l, num, den)) == Occurrence(0, p, len(w))
            assert naive_oracle(w, strict(l, num, den)) is None
        assert naive_oracle(w, geq(p + 1, num, den)) is None


def _oracle_grid_words():
    rng = random.Random(2718)
    words = [thue_morse(n) for n in (1, 2, 3, 5, 8, 13, 31, 32, 33, 60)]
    for a in (1, 2, 3, 4, 300):
        for planted in (False,) * 10 + (True,) * 10:
            n = rng.randint(1, 60)
            letters = [rng.randrange(a) for _ in range(n)]
            if planted and n >= 2:
                # one repetition of period p and exponent up to 3
                p = rng.randint(1, max(1, n // 2))
                length = min(n, p + rng.randint(1, 2 * p))
                s = rng.randint(0, n - length)
                for i in range(s + p, s + length):
                    letters[i] = letters[i - p]
            words.append(Word(a, tuple(letters)))
    return words


def test_naive_oracle_matches_reference():
    """The oracle against its former every-start, every-period scan, witness
    included.  Thresholds mix integers, fractions with denominators up to
    12, and the exponents n/p of the whole word, where the last period that
    can violate decides GEQ against STRICT."""
    rng = random.Random(31415)
    pool = sorted({Fraction(num, den) for den in range(1, 13)
                   for num in range(den + 1, 3 * den + 1)})
    for w in _oracle_grid_words():
        n = len(w)
        for l in (1, 2, 3, 4, 5, n, n + 1):
            thresholds = {Fraction(2), Fraction(3), *rng.sample(pool, 4)}
            thresholds.update(Fraction(n, p) for p in rng.sample(range(1, n), min(3, n - 1)))
            for r in thresholds:
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    assert naive_oracle(w, c) == ref_naive_oracle(w, c), (w, l, str(r), mode)


def test_naive_scan_first_and_last_views_agree():
    """The naive scan has two readers: verify_certificate takes its first
    run, naive_oracle its last.  On every canonical word over 2 and 3
    letters up to length 8: there is a first run exactly when the oracle
    and its reference find one, every run is a forbidden maximal run,
    each strictly beats the one before (a larger exponent, or an equal one
    with a smaller (start, period)), and the last is the oracle's."""
    thresholds = (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2))
    constraints = [FreenessConstraint(l, r, mode) for l in (1, 2, 3) for r in thresholds for mode in Mode]
    for a in (2, 3):
        for n in range(1, 9):
            for letters in _canonical_words(a, n):
                w = Word(a, letters)
                for c in constraints:
                    r = c.threshold
                    scan = _naive_wins(letters, c.min_period, r.numerator, r.denominator, c.mode is Mode.STRICT)
                    runs = [Occurrence(*run) for run in scan]
                    oracle = naive_oracle(w, c)
                    assert (not runs) == (oracle is None) == (ref_naive_oracle(w, c) is None), (w, c)
                    for occ in runs:
                        s, p, e = occ.start, occ.period, occ.end
                        assert verify_occurrence(w, occ) and c.forbids_occurrence(occ), (w, c, occ)
                        assert s == 0 or letters[s - 1] != letters[s - 1 + p], (w, c, occ)
                        assert e == n or letters[e] != letters[e - p], (w, c, occ)
                    for before, after in zip(runs, runs[1:]):
                        assert after.exponent > before.exponent or (
                            after.exponent == before.exponent
                            and (after.start, after.period) < (before.start, before.period)
                        ), (w, c, runs)
                    assert not runs or runs[-1] == oracle, (w, c, runs)


def test_naive_oracle_is_invariant_under_renaming():
    """The oracle compares letters only for equality, so renaming the
    alphabet by a permutation leaves its answer unchanged, witness
    included.  verify_certificate relies on this to check only canonical
    words."""
    rng = random.Random(2718)
    pool = sorted({Fraction(num, den) for den in range(1, 7)
                   for num in range(den + 1, 3 * den + 1)})
    found = 0
    for _ in range(2500):
        a = rng.choice([2, 3, 4, 300])
        # a few letters of the alphabet, so that repetitions are common
        used = rng.sample(range(a), min(a, rng.randint(2, 4)))
        w = Word(a, tuple(rng.choice(used) for _ in range(rng.randint(1, 40))))
        sigma = rng.sample(range(a), a)
        renamed = Word(a, tuple(sigma[x] for x in w.letters))
        mode = rng.choice([Mode.GEQ, Mode.STRICT])
        c = FreenessConstraint(rng.randint(1, 5), rng.choice(pool), mode)
        occ = naive_oracle(w, c)
        assert naive_oracle(renamed, c) == occ, (w, renamed, c)
        found += occ is not None
    assert 500 < found < 2000


def _min_violating_run(p, c):
    """Least run r >= 1 with (p + r)/p meeting the threshold, by search."""
    r = 1
    while not c.forbids(Fraction(p + r, p)):
        r += 1
    return r


def _planted_runs(n, p, runs):
    """A word of n distinct letters, except that w[s+p+i] = w[s+i] for each
    (s, run) in runs and i < run: its match-runs at period p are exactly
    the [s, s+run), given ascending and at least one index apart."""
    letters = list(range(n))
    for s, run in runs:
        for i in range(s, s + run):
            letters[i + p] = letters[i]
    return Word(n, tuple(letters))


def test_naive_oracle_probe_boundaries():
    """Match-runs of m-1, m and m+1 letters (m the minimal violating run)
    at every offset mod m, ending inside the word or at its last
    comparable index, alone or followed after one mismatch by a run of m
    letters.  Thresholds include ones where m = 1 for small p (11/10, 6/5,
    GEQ 2 at p = 1)."""
    thresholds = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(7, 4),
                  Fraction(5, 3), Fraction(6, 5), Fraction(11, 10), Fraction(7, 3)]
    checked_m1 = 0
    for r in thresholds:
        for mode in (Mode.GEQ, Mode.STRICT):
            for p in range(1, 7):
                m = _min_violating_run(p, FreenessConstraint(1, r, mode))
                checked_m1 += m == 1
                for run in (m - 1, m, m + 1):
                    if run < 1:
                        continue
                    for s in range(m):
                        first = Occurrence(s, p, p + run) if run >= m else None
                        e = s + run
                        for runs, tail, want in (
                            ([(s, run)], 0, first),
                            ([(s, run)], 2, first),
                            ([(s, run), (e + 1, m)], 1, first or Occurrence(e + 1, p, p + m)),
                        ):
                            end = max(t + k for t, k in runs)
                            w = _planted_runs(end + p + tail, p, runs)
                            c = FreenessConstraint(p, r, mode)
                            got = naive_oracle(w, c)
                            assert got == ref_naive_oracle(w, c), (p, runs, tail, str(r), mode)
                            # multiples of p copy the runs with a lower exponent
                            assert got == want
                            c1 = FreenessConstraint(1, r, mode)
                            assert naive_oracle(w, c1) == ref_naive_oracle(w, c1)
    assert checked_m1 >= 10


def test_naive_oracle_spacing_boundaries():
    """After a best of exponent L/P, a later period p is probed every
    u = max(m, need) letters, need = ceil(p*(L-P)/P) the least run that
    ties or beats the best.  A run of exactly need matches that starts
    before the best must win (by a larger exponent, or on a tie by its
    smaller start); one of need-1 must not.  Each is planted at every
    offset mod u, alone in a word of otherwise distinct letters, after
    (period order) and before (start order) the best's run."""
    checked_ties = checked_wider = 0
    for r in (Fraction(11, 10), Fraction(6, 5), Fraction(3, 2), Fraction(7, 4)):
        for mode in (Mode.GEQ, Mode.STRICT):
            c = FreenessConstraint(1, r, mode)
            for P, R in ((2, 1), (3, 2), (4, 3), (5, 2)):
                if not c.forbids(Fraction(P + R, P)):
                    continue
                for p in range(P + 1, 3 * P + 1):
                    need = -(-p * R // P)
                    m = _min_violating_run(p, c)
                    u = max(m, need)
                    checked_ties += need * P == p * R
                    checked_wider += u > m
                    # the best's run starts past every planted one
                    sb = u + p + need
                    for run in (need, need - 1):
                        for s in range(u):
                            letters = list(range(sb + P + R + 1))
                            for i in range(s, s + run):
                                letters[i + p] = letters[i]
                            for i in range(sb, sb + R):
                                letters[i + P] = letters[i]
                            w = Word(len(letters), tuple(letters))
                            want = Occurrence(s, p, p + run) if run == need else Occurrence(sb, P, P + R)
                            got = naive_oracle(w, c)
                            assert got == ref_naive_oracle(w, c), (P, R, p, run, s, str(r), mode)
                            assert got == want, (P, R, p, run, s, str(r), mode)
    assert checked_ties >= 10 and checked_wider >= 10


class _CountingLetters:
    """A letter sequence that counts its reads."""

    def __init__(self, letters):
        self.letters = letters
        self.reads = 0

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        self.reads += 1
        return self.letters[i]


def test_naive_scan_skips_runs_that_cannot_win():
    """A word that opens with k equal letters has its best run (exponent
    k) at period 1, so no later period can beat it and the scan reads a
    few letters per index in all.  Probing every later period at the
    threshold's need alone reads Theta(n^2/m) letters: 48,514 at 201/200
    and 3,190 at GEQ 2 for k = 20, n = 200."""
    rng = random.Random(1)
    for k, n in ((20, 200), (40, 200), (50, 400)):
        letters = (0,) * k + (1,) + tuple(rng.randrange(3) for _ in range(n - k - 1))
        for num, den, strict in ((201, 200, False), (2, 1, False), (3, 2, True)):
            seq = _CountingLetters(letters)
            runs = list(_naive_wins(seq, 1, num, den, strict))
            assert runs[-1] == (0, 1, k)
            assert seq.reads <= 3 * n, (k, n, num, den, strict, seq.reads)


def test_naive_oracle_long_words_match_reference():
    """Words of 400-600 letters, where the probe stride m is far above 1,
    against the every-start, every-period reference."""
    for n in (511, 512):
        w = thue_morse(n)
        for l in (1, 5):
            assert naive_oracle(w, strict(l, 2)) is None
            assert ref_naive_oracle(w, strict(l, 2)) is None
        occ = naive_oracle(w, geq(40, 2))
        assert occ is not None and occ == ref_naive_oracle(w, geq(40, 2))
    rng = random.Random(4242)
    for a in (2, 3):
        for _ in range(2):
            n = rng.randint(400, 600)
            letters = [rng.randrange(a) for _ in range(n)]
            for _ in range(3):
                # planted repetitions of period 20-150 and exponent 1.3-2.1
                p = rng.randint(20, 150)
                length = min(n, p + rng.randint(3 * p // 10, 11 * p // 10))
                s = rng.randint(0, n - length)
                for i in range(s + p, s + length):
                    letters[i] = letters[i - p]
            w = Word(a, tuple(letters))
            for l in (1, 16):
                for r in (Fraction(3, 2), Fraction(7, 4)):
                    c = FreenessConstraint(l, r, Mode.GEQ)
                    assert naive_oracle(w, c) == ref_naive_oracle(w, c), (w, l, str(r))


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


def test_scanners_reject_bad_input():
    empty = Word(2, ())
    for call in (
        lambda: max_exponent(empty),
        lambda: max_exponent(empty, 0),  # the empty word is reported first
        lambda: exists_repetition(empty, geq(1, 2)),
        lambda: detect(empty),
        lambda: detect(empty, 1, geq(2, 2)),
    ):
        with pytest.raises(ValueError, match="non-empty"):
            call()
    w = parse_word("0101", 2)
    for call in (lambda: max_exponent(w, 0), lambda: detect(w, 0, geq(1, 2))):
        with pytest.raises(ValueError, match="min_period"):
            call()


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
