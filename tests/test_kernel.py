"""The shared violation kernel against the reference per-period walk: the
searcher must produce field-identical certificates, and
``violations_ending_at`` the same occurrence, on both small periods (direct
loop) and large ones (C-level band search), at one, two and eight bytes
per letter."""

import random
from fractions import Fraction

import pytest

from repthresh import (
    FreenessConstraint,
    Mode,
    Word,
    candidate_exponents,
    extend_search,
    violations_ending_at,
)
from reference_kernel import ref_extend_search, ref_violation_ending_at

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
    rng = random.Random(52)
    for a in (2, 3, 4):
        for l in (1, 2, 3):
            for r in candidate_exponents(4, 1, 2):
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    order = list(range(a))
                    rng.shuffle(order)
                    for kw in ({"symmetry": False}, {"letter_order": order}):
                        got = extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET, **kw)
                        ref = ref_extend_search(a, c, GRID_TARGET, node_budget=GRID_BUDGET, **kw)
                        assert cert_fields(got) == ref, (a, l, str(r), mode, kw)


def test_search_matches_reference_large_alphabet():
    # Two-byte letters whose bytes collide across letter boundaries
    # (1 = 01 00, 256 = 00 01, 257 = 01 01), so unaligned substring hits
    # occur and must be skipped; and 41/40 forces 41 distinct letters.
    a = 300
    collide = [256, 1, 257, 0]
    order = collide + [x for x in range(a) if x not in collide]
    cases = [
        (FreenessConstraint(1, Fraction(3, 2)), 200, {"symmetry": False, "letter_order": order}),
        (FreenessConstraint(2, Fraction(7, 5), Mode.STRICT), 200, {"symmetry": False, "letter_order": order}),
        (FreenessConstraint(1, Fraction(41, 40)), 120, {"symmetry": False, "letter_order": order[::-1]}),
        (FreenessConstraint(1, Fraction(41, 40)), 120, {}),
    ]
    for c, target, kw in cases:
        got = extend_search(a, c, target, node_budget=20_000, **kw)
        ref = ref_extend_search(a, c, target, node_budget=20_000, **kw)
        assert cert_fields(got) == ref, (c, kw)


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
