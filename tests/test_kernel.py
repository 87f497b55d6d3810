"""The shared violation kernel against the reference per-period walk: the
searcher must produce field-identical certificates, and
``violations_ending_at`` the same occurrence, on both small periods (direct
loop) and large ones (C-level band search), at one, two and eight bytes
per letter.  ``first_period`` is also driven directly through the call
orders its callers use (advance, sibling rewrite, backtrack, a span
written by ``write`` and rescanned), which is what decides when a kept
band search may be reused.
``lowest_start``, the sampler's bad event, is held equal to the walk over
every period at each position where ``first_period`` finds a violation."""

import random
from fractions import Fraction

import pytest

from repthresh import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    candidate_exponents,
    extend_search,
    naive_oracle,
    violations_ending_at,
)
from reference_kernel import ref_extend_search, ref_lowest_start, ref_violation_ending_at
from repthresh.detect import ViolationKernel

GRID_TARGET = 200
GRID_BUDGET = 3000


def cert_fields(cert):
    return cert.outcome.value, cert.max_depth, cert.nodes_visited, cert.witness


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_search_matches_reference_on_grid(a):
    for l in range(1, 6):
        for r in candidate_exponents(6, 1, 3):
            for mode in (Mode.GEQ, Mode.STRICT):
                c = FreenessConstraint(l, r, mode)
                got = extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET)
                ref = ref_extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET)
                assert cert_fields(got) == ref, (a, l, str(r), mode)


def test_search_matches_reference_without_symmetry_and_shuffled():
    # Without symmetry a letter order is only a relabelling: the reference
    # tree in a shuffled order is the ascending one with its letters
    # renamed, node for node.  The canonical search is the one in src.
    rng = random.Random(20)
    for a in (2, 3, 4):
        for l in (1, 2, 3):
            for r in candidate_exponents(4, 1, 2):
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    order = rng.sample(range(a), a)
                    outcome, depth, nodes, witness = ref_extend_search(
                        a, c, GRID_TARGET, symmetry=False, node_budget=GRID_BUDGET
                    )
                    renamed = None if witness is None else Word(a, [order[x] for x in witness.letters])
                    shuffled = ref_extend_search(
                        a, c, GRID_TARGET, symmetry=False, letter_order=order, node_budget=GRID_BUDGET
                    )
                    assert shuffled == (outcome, depth, nodes, renamed), (a, l, str(r), mode, order)
                    got = extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET)
                    ref = ref_extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET)
                    assert cert_fields(got) == ref, (a, l, str(r), mode)


def test_search_matches_reference_large_alphabet():
    # Two-byte letters (byte collisions across letter boundaries are
    # covered by test_first_period_in_random_call_orders and
    # test_violations_ending_at_matches_reference); 41/40 forces 41
    # distinct letters.  Each row also holds the canonical search to the
    # outcome and depth of the reference's unreduced one.
    a = 300
    cases = [
        (FreenessConstraint(1, Fraction(3, 2)), 200),
        (FreenessConstraint(2, Fraction(7, 5), Mode.STRICT), 200),
        (FreenessConstraint(1, Fraction(41, 40)), 120),
    ]
    for c, target in cases:
        got = extend_search(a, c, target, node_budget=20_000)
        assert cert_fields(got) == ref_extend_search(a, c, target, node_budget=20_000), c
        outcome, max_depth, _, witness = ref_extend_search(a, c, target, symmetry=False, node_budget=20_000)
        assert (got.outcome.value, got.max_depth) == (outcome, max_depth), c
        assert witness is None or naive_oracle(witness, c) is None


@pytest.mark.parametrize(
    "a, l, r, target",
    [(2, 3, Fraction(5, 3), 1000), (3, 1, Fraction(9, 5), 1000), (3, 2, Fraction(8, 5), 1000)],
)
def test_deep_reached_search_matches_reference(a, l, r, target):
    # deep enough for bands up to [384, 767], whose kept searches serve
    # over a hundred positions each and must survive the backtracks
    c = FreenessConstraint(l, r)
    got = extend_search(a, c, target)
    assert got.outcome.value == "REACHED"
    assert cert_fields(got) == ref_extend_search(a, c, target)


# (alphabet, letter pool) at one, two, four and eight bytes per letter;
# the wider pools hold letters whose bytes collide across letter
# boundaries, so unaligned rfind hits occur.  The last row is an alphabet
# above the widest format, 2**70, with every letter below 2**64 (the
# searcher's case), so letters are stored as given, not relabelled.
WIDTHS = [
    (256, list(range(256))),
    (300, [1, 256, 257] + list(range(2, 200))),
    (2**20, [1, 2**16, 2**16 + 1, 2**20 - 1] + [x << 8 for x in range(1, 200)]),
    (2**40, [1, 2**32 + 1, 2**32, 2**39 + 1] + [x << 20 for x in range(1, 200)]),
    (2**70, [1, 2**63, 2**63 + 1, 2**64 - 1] + [x << 48 for x in range(1, 200)]),
]
# 41/40 with l=1 has bands with need 1 (no reuse) and need 2 (reuse for
# one position); STRICT has need 1 up to period 39, GEQ up to 40.
CONSTRAINTS = [
    FreenessConstraint(3, Fraction(5, 3)),
    FreenessConstraint(1, Fraction(9, 5)),
    FreenessConstraint(2, Fraction(7, 4)),
    FreenessConstraint(1, Fraction(41, 40)),
    FreenessConstraint(1, Fraction(41, 40), Mode.STRICT),
]


class _Driver:
    """A word written and checked in the call orders of the searcher and the
    sampler.  Most letters copy the letter q back, for a copy period q that
    changes now and then, so long match-runs of band periods start and end
    at every offset from the positions where band searches are kept.  The
    reference reads its own copy of the word, so a letter the kernel
    stores wrongly shows."""

    def __init__(self, rng: random.Random, alphabet: int, pool: list[int], c: FreenessConstraint, length: int):
        self.rng, self.pool, self.c = rng, pool, c
        self.word = [0] * length
        self.kernel = ViolationKernel(c, alphabet, self.word)
        self.q = 12
        self.calls = self.hits = 0

    def letter(self, pos: int) -> int:
        rng = self.rng
        if rng.random() < 0.05:
            self.q = rng.choice([rng.randrange(12, 400), *(b + rng.randrange(-2, 3) for b in (12, 24, 48, 96, 192, 384))])
        if pos >= self.q and rng.random() < 0.9:
            return self.word[pos - self.q]
        return rng.choice(self.pool)

    def check(self, pos: int) -> None:
        got = self.kernel.first_period(pos)
        ref = ref_violation_ending_at(self.word, self.c, pos)
        assert got == (ref.period if ref else 0), (self.c, pos, self.word[: pos + 1])
        self.calls += 1
        self.hits += bool(got)


@pytest.mark.parametrize("alphabet, pool", WIDTHS, ids=("1-byte", "2-byte", "4-byte", "8-byte", "8-byte-a2^70"))
@pytest.mark.parametrize("c", CONSTRAINTS, ids=lambda c: f"{c.threshold}-l{c.min_period}" + "-strict" * (c.mode is Mode.STRICT))
def test_first_period_in_random_call_orders(alphabet, pool, c):
    rng = random.Random(f"calls/{alphabet}/{c}")
    length = rng.randrange(300, 1501)
    d = _Driver(rng, alphabet, pool, c, length)
    word, seq = d.word, d.kernel.seq
    pos = 0
    seq[0] = word[0] = d.letter(0)
    d.check(0)
    while pos < length - 1:
        op = rng.random()
        if op < 0.7:  # advance
            pos += 1
        elif op < 0.85:  # sibling rewrite at the same position
            pass
        elif op < 0.9:  # backtrack by 1 to 50, mostly by a few
            pos = max(0, pos - min(50, 1 + int(rng.expovariate(0.25))))
        else:  # resample a span ending at pos, write it, rescan from its start
            s = max(0, pos - rng.randrange(40))
            for i in range(s, pos + 1):
                word[i] = d.letter(i)
            d.kernel.write(s, word[s : pos + 1])
            assert list(seq[s : pos + 1]) == word[s : pos + 1]
            for i in range(s, pos + 1):
                d.check(i)
            continue
        seq[pos] = word[pos] = d.letter(pos)
        d.check(pos)
    assert d.hits and d.hits < d.calls


def _planted_word(rng: random.Random, alphabet: int, letters: list[int]) -> Word:
    """A random word with a planted long repetition of a random period, so
    that large periods (the band search) are exercised, plus noise."""
    p = rng.randrange(1, 90)
    block = [rng.choice(letters) for _ in range(p)]
    reps = block * 2 + block[: rng.randrange(p)]
    head = [rng.choice(letters) for _ in range(rng.randrange(40))]
    tail = [rng.choice(letters) for _ in range(rng.randrange(40))]
    word = head + reps + tail
    if rng.random() < 0.5:
        word[rng.randrange(len(word))] = rng.choice(letters)
    return Word(alphabet, tuple(word))


@pytest.mark.parametrize(
    "alphabet, letters",
    [
        (2, [0, 1]),
        (3, [0, 1, 2]),
        (5, [0, 1, 2, 3, 4]),
        (300, [0, 1, 256, 257]),
        (300, list(range(300))),
        (2**70, [0, 1, 2**64 + 1, 2**69]),
    ],
)
def test_violations_ending_at_matches_reference(alphabet, letters):
    rng = random.Random(f"kernel/{alphabet}/{len(letters)}")
    grid = candidate_exponents(6, 1, 3)
    for _ in range(40):
        w = _planted_word(rng, alphabet, letters)
        c = FreenessConstraint(rng.randrange(1, 40), rng.choice(grid), rng.choice(list(Mode)))
        for pos in range(len(w)):
            got = violations_ending_at(w, c, pos)
            assert got == ref_violation_ending_at(w.letters, c, pos), (w, c, pos)


# Letter pools for lowest_start at one, two, four and eight bytes per
# letter.  The kernel is built as the sampler builds it, on alphabet a;
# letters of 2**70 below 2**64 are stored as given; the wider pools hold
# letters whose bytes collide across letter boundaries, so unaligned rfind
# hits occur and must be skipped.
LOWEST_START_POOLS = {
    2: [0, 1],
    3: [0, 1, 2],
    300: [0, 1, 2, 256, 257],
    2**20: [0, 1, 2**16, 2**16 + 1, 2**19 + 1, 2**20 - 1],
    2**70: [1, 5, 2**32, 2**32 + 1, 2**39 + 1],
}


def _copy_word(rng: random.Random, pool: list[int], n: int) -> list[int]:
    """Random letters, most copying the letter q back for a q that changes
    now and then, so runs of several periods end at the same position."""
    letters: list[int] = []
    q = rng.randrange(1, 64)
    for i in range(n):
        if rng.random() < 0.05:
            q = rng.randrange(1, 200)
        letters.append(letters[i - q] if i >= q and rng.random() < 0.8 else rng.choice(pool))
    return letters


@pytest.mark.parametrize("a", sorted(LOWEST_START_POOLS), ids=("a2", "a3", "a300", "a2^20", "a2^70"))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.name)
# 41/40 has need 1 for every period up to 40
@pytest.mark.parametrize("r", [Fraction(41, 40), Fraction(5, 4), Fraction(7, 4), Fraction(2)], ids=str)
def test_lowest_start_matches_reference(a, mode, r):
    rng = random.Random(f"lowest/{a}/{mode.name}/{r}")
    hits = 0
    for _ in range(3):
        letters = _copy_word(rng, LOWEST_START_POOLS[a], rng.randrange(64, 513))
        c = FreenessConstraint(rng.choice([1, 1, 2, 5, 13]), r, mode)
        kernel = ViolationKernel(c, a, letters)
        for pos in range(len(letters)):
            p = kernel.first_period(pos)
            ref = ref_lowest_start(letters, c.min_period, r.numerator, r.denominator, mode is Mode.STRICT, pos)
            if not p:
                assert ref is None, (c, pos, letters)
                continue
            assert Occurrence(*kernel.lowest_start(pos, p)) == ref, (c, pos, letters)
            hits += 1
    assert hits


@pytest.mark.parametrize("a", [256, 300, 2**70], ids=("1-byte", "2-byte", "8-byte"))
def test_lowest_start_tie_goes_to_smallest_period(a):
    # u^3 with |u| = 20 after distinct letters: the full runs of periods 20
    # and 40 both start at s, and both violate 5/4 (exponents 3 and 3/2).
    # u ends in A B C A, so period 3 violates too, starting later.
    scale = {256: 1, 300: 3, 2**70: 2**56}[a]
    head = [100 + i for i in range(10)]
    u = list(range(1, 17)) + [50, 51, 52, 50]
    letters = [x * scale for x in head + u * 3]
    s, pos = len(head), len(letters) - 1
    c = FreenessConstraint(1, Fraction(5, 4))
    kernel = ViolationKernel(c, a, letters)
    p = kernel.first_period(pos)
    assert p == 3
    assert letters[s - 1] not in (letters[s + 19], letters[s + 39])  # both runs are maximal at s
    assert ref_lowest_start(letters, 1, 5, 4, False, pos) == Occurrence(s, 20, 60)
    assert kernel.lowest_start(pos, p) == (s, 20, 60)


@pytest.mark.parametrize("alphabet", [3, 300, 2**20, 2**40], ids=("1-byte", "2-byte", "4-byte", "8-byte"))
def test_write_rejects_a_span_outside_the_word(alphabet):
    # A one-byte word used to grow past its end and a negative start wrote
    # from the end; wider words raised BufferError on growth.
    kernel = ViolationKernel(FreenessConstraint(1, Fraction(2)), alphabet, [0, 1, 2, 0, 1])
    for start, letters in ((4, [2, 0, 1]), (-2, [2]), (5, [0]), (6, [])):
        with pytest.raises(ValueError, match="outside the word"):
            kernel.write(start, letters)
    assert list(kernel.seq) == [0, 1, 2, 0, 1]
    kernel.write(3, [2, 2])
    kernel.write(5, [])
    assert list(kernel.seq) == [0, 1, 2, 2, 2]


def test_kernel_stores_letters_exactly_as_given():
    # A letter of 64 bits or more used to make the kernel relabel its word
    # while write took raw letters: after write(1, [0]) the word
    # 2**69 0 7 read as a square 0 0 at position 1.  Such a letter is now
    # rejected at construction, by write and by seq, and letters below
    # 2**64 over the same alphabet are stored as they are.
    c = FreenessConstraint(1, Fraction(2))
    with pytest.raises(ValueError):
        ViolationKernel(c, 2**70, [2**69, 5, 7])
    kernel = ViolationKernel(c, 2**70, [2**63, 5, 7])
    assert list(kernel.seq) == [2**63, 5, 7]
    with pytest.raises(ValueError):
        kernel.write(1, [2**69])
    with pytest.raises(ValueError):
        kernel.seq[1] = 2**64
    kernel.write(1, [0])
    assert list(kernel.seq) == [2**63, 0, 7]
    assert kernel.first_period(1) == 0
    with pytest.raises(ValueError):
        ViolationKernel(c, 300, [1, 2**16])  # past the alphabet's width
