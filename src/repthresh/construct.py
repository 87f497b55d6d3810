"""Explicit constructions and closed-form bounds.

* Thue-Morse prefixes (binary, avoids every exponent strictly above 2).
* The rank-based index mapping f: inside a block of l indices, rank-1
  indices reuse a pool of m-1 source positions, rank-2 indices (those
  congruent to m-1 mod m) the next m-1 positions, and so on, so a block
  consumes only L = O(m log_m l) source positions; further blocks extend
  with fresh positions via f(i + j*l) = f(i) + j*L.
* The coloring lift that turns a binary word into one over an even alphabet
  a >= 6 by giving block i of size l the color i mod a/2; equal letters then
  never sit at distances between l and (a/2 - 1)*l.
* The pigeonhole witness: among positions 0, l, ..., a*l two letters agree,
  forcing an occurrence with period a multiple of l and exponent at least
  1 + 1/(a*l).
* Rational lower-bound formulas (exact) and decimal upper-bound estimates
  (explicit precision, never used in exact comparisons).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .words import Occurrence, Word, fraction_json

__all__ = [
    "thue_morse",
    "rank_map_eval",
    "rank_map_image_size",
    "rank_map_table",
    "build_mapped_word",
    "colorize",
    "pigeonhole_witness",
    "simple_lower_bound",
    "fov_lower_bound",
    "growth_lambda",
    "fov_upper_main_term",
    "weak_upper_bound",
    "BoundReport",
]


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def thue_morse(n: int) -> Word:
    """Length-n prefix of the Thue-Morse sequence: t[i] = parity of the
    popcount of i, so t[0] = 0, t[2i] = t[i], t[2i+1] = 1 - t[i]."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    # the first 2^(k+1) letters are the first 2^k followed by their complement
    t = b"\x00"
    while len(t) < n:
        t += t.translate(_FLIP)
    return Word(2, t[:n])


def _check_ml(m: int, l: int) -> None:
    if m < 2:
        raise ValueError(f"radix must be >= 2, got {m}")
    if l < 1:
        raise ValueError(f"block size must be >= 1, got {l}")


def rank_map_eval(i: int, m: int, l: int) -> tuple[int, int]:
    """Value and rank of f at index i inside the first block (0 <= i < l).

    The rank is one plus the number of trailing (m-1)-digits of i in base m;
    stripping them leaves a quotient q whose low digit is not m-1 (the
    quotient 0 qualifies since 0 mod m != m-1 for m >= 2), and
    value = (rank-1)*(m-1) + (q mod m).  Exactly one rank applies to every
    index, so f is total on the block.
    """
    _check_ml(m, l)
    if not 0 <= i < l:
        raise ValueError(f"index {i} outside block [0, {l})")
    q = i
    rank = 1
    while q % m == m - 1:
        q //= m
        rank += 1
    return (rank - 1) * (m - 1) + q % m, rank


def rank_map_image_size(m: int, l: int) -> int:
    """L = number of source positions used by one block; the image of
    [0, l) under f is exactly {0, ..., L-1}.

    With P the largest power of m that is at most l, ranks up to log_m P
    fill their bands of m-1 values and the top rank reaches floor(l/P) - 1
    (at index floor(l/P)*P - 1), so L = log_m(P)*(m-1) + floor(l/P): one
    band per base-m digit of l after the leading one, plus that digit.
    """
    _check_ml(m, l)
    return l if l < m else m - 1 + rank_map_image_size(m, l // m)


def rank_map_table(m: int, l: int) -> list[tuple[int, int, int]]:
    """Rows (index, rank, value) for the first block, CSV-ready."""
    _check_ml(m, l)
    rows = []
    for i in range(l):
        value, rank = rank_map_eval(i, m, l)
        rows.append((i, rank, value))
    return rows


def build_mapped_word(source: Word, m: int, l: int, n: int) -> Word:
    """The pullback word tau with tau[i] = source[f(i)] for i < n."""
    image = rank_map_image_size(m, l)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    # f(i) = f(i mod l) + (i div l) * L (see the module docstring), and
    # only the first min(l, n) indices of the block are used
    block = [rank_map_eval(i, m, l)[0] for i in range(min(l, n))]
    # the last index n-1 sits in block J = (n-1)//l, after every earlier
    # block's image, so the largest value lies in block J's first (n-1)%l + 1 indices
    J, r = divmod(n - 1, l)
    needed = max(block[: r + 1]) + J * image + 1 if n else 0
    if needed > len(source):
        raise ValueError(
            f"source word too short: need {needed} letters, have {len(source)}"
        )
    letters, tau = source.letters, [0] * n
    for i, value in enumerate(block):
        tau[i::l] = letters[value : value + len(range(i, n, l)) * image : image]
    return Word(source.alphabet, tau)


def colorize(base: Word, a: int, l: int) -> Word:
    """Lift a binary word to alphabet a: position p carries the pair
    (bit, color) encoded as letter 2*color + bit, where the color of block
    floor(p/l) cycles through 0..a/2-1.

    Equal output letters need equal bit and equal color, and blocks at
    distance d with l <= d <= (a/2-1)*l never share a color, so the lifted
    word has no equal letters at those distances.
    """
    if a < 6 or a % 2:
        raise ValueError(f"alphabet size must be even and >= 6, got {a}")
    if l < 1:
        raise ValueError(f"block size must be >= 1, got {l}")
    if base.alphabet != 2:
        raise ValueError(f"base word must be binary, got alphabet {base.alphabet}")
    # the colour offsets 2*((p//l) % (a/2)) repeat with period (a/2)*l
    n = len(base)
    offsets = [2 * (p // l) for p in range(min(n, a // 2 * l))]
    return Word(a, map(operator.add, islice(cycle(offsets), n), base.letters))


def pigeonhole_witness(w: Word, a: int, l: int) -> Occurrence:
    """The forced repetition among positions 0, l, ..., a*l.

    Two of these a+1 letters agree (alphabet size <= a); for the
    lexicographically smallest such pair (i, j) the returned occurrence is
    (i*l, (j-i)*l, (j-i)*l + 1), with period a positive multiple of l and
    exponent 1 + 1/((j-i)*l) >= 1 + 1/(a*l).
    """
    if a < 1 or l < 1:
        raise ValueError(f"need a >= 1 and l >= 1, got a={a}, l={l}")
    if len(w) < a * l + 1:
        raise ValueError(
            f"word too short: need length >= {a * l + 1}, have {len(w)}"
        )
    if w.alphabet > a:
        raise ValueError(
            f"word alphabet {w.alphabet} exceeds pigeonhole alphabet {a}"
        )
    letters = w.letters
    for i in range(a + 1):
        for j in range(i + 1, a + 1):
            if letters[i * l] == letters[j * l]:
                return Occurrence(i * l, (j - i) * l, (j - i) * l + 1)
    raise AssertionError("pigeonhole violated; unreachable given the preconditions")


def simple_lower_bound(a: int, l: int) -> Fraction:
    """Exact pigeonhole lower bound 1 + 1/(l*a) on the threshold."""
    _check_al(a, l)
    return 1 + Fraction(1, l * a)


def fov_lower_bound(a: int, l: int) -> Fraction:
    """Exact lower bound 1 + 1/(1 + floor((3l+2)/4)*(a-1)).

    Dominates the pigeonhole bound for every a >= 2, l >= 1:
    floor((3l+2)/4)*(a-1) <= l*(a-1) <= l*a - 1.
    """
    _check_al(a, l)
    return 1 + Fraction(1, 1 + (3 * l + 2) // 4 * (a - 1))


def _check_al(a: int, l: int) -> None:
    if a < 2:
        raise ValueError(f"alphabet size must be >= 2, got {a}")
    if l < 1:
        raise ValueError(f"min period must be >= 1, got {l}")


def growth_lambda(a: int) -> float:
    """lambda = ((a-1) + sqrt((a-1)(a+3))) / 2, the growth base in the
    logarithmic upper-bound estimate."""
    if a < 2:
        raise ValueError(f"alphabet size must be >= 2, got {a}")
    return ((a - 1) + math.sqrt((a - 1) * (a + 3))) / 2


def fov_upper_main_term(a: int, l: int, sig_digits: int = 12) -> tuple[float, bool]:
    """Main term 1 + 2*ln(l) / (l*ln(lambda)) of the logarithmic upper
    estimate, rounded to sig_digits significant digits.

    The lower-order 1/l correction has an unspecified constant and is NOT
    included.  Returns (value, degenerate); degenerate is True at l=1 where
    ln(l) = 0 collapses the term to exactly 1.
    """
    _check_al(a, l)
    if l == 1:
        return 1.0, True
    value = 1 + 2 * math.log(l) / (l * math.log(growth_lambda(a)))
    return _round_sig(value, sig_digits), False


def weak_upper_bound(b: float, l: int, sig_digits: int = 12) -> float:
    """1 + log_b(l)/l; callers must keep b strictly inside (1, alphabet)."""
    if b <= 1:
        raise ValueError(f"log base must be > 1, got {b}")
    if l < 1:
        raise ValueError(f"min period must be >= 1, got {l}")
    return _round_sig(1 + math.log(l, b) / l, sig_digits)


def _round_sig(x: float, digits: int) -> float:
    # every caller rounds a value >= 1
    if digits < 1:
        raise ValueError(f"need at least 1 significant digit, got {digits}")
    return round(x, digits - 1 - math.floor(math.log10(abs(x))))


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound for one (a, l), exact fields as rationals and
    decimal estimates tagged with their precision.  Only the inputs are
    stored; each bound is evaluated from them.

    weak_log_base must lie strictly between 1 and a when given; when absent
    the weak logarithmic estimate is omitted from the report.  a, l and
    sig_digits are stored as ``operator.index`` of the values given, so a
    value that is not an integer raises TypeError.
    """

    a: int
    l: int
    weak_log_base: float | None = None
    sig_digits: int = 12

    def __post_init__(self) -> None:
        for name in ("a", "l", "sig_digits"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        _check_al(self.a, self.l)
        if self.weak_log_base is not None and not 1 < self.weak_log_base < self.a:
            raise ValueError(
                f"weak_log_base must be in (1, {self.a}), got {self.weak_log_base}"
            )
        if self.sig_digits < 1:
            raise ValueError(f"need at least 1 significant digit, got {self.sig_digits}")

    @property
    def simple_lower(self) -> Fraction:
        return simple_lower_bound(self.a, self.l)

    @property
    def fov_lower(self) -> Fraction:
        return fov_lower_bound(self.a, self.l)

    @property
    def weak_upper(self) -> float | None:
        if self.weak_log_base is None:
            return None
        return weak_upper_bound(self.weak_log_base, self.l, self.sig_digits)

    def to_jsonable(self) -> dict:
        main, degenerate = fov_upper_main_term(self.a, self.l, self.sig_digits)
        return {
            "a": self.a,
            "l": self.l,
            "simple_lower": fraction_json(self.simple_lower),
            "fov_lower": fraction_json(self.fov_lower),
            "lambda": _round_sig(growth_lambda(self.a), self.sig_digits),
            "fov_upper_main_term": main,
            "fov_upper_degenerate": degenerate,
            "fov_upper_omits_correction": True,
            "weak_log_base": self.weak_log_base,
            "weak_upper": self.weak_upper,
            "precision_sig_digits": self.sig_digits,
        }
