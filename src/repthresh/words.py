"""Core word model: finite words over integer alphabets, exact rational
exponents, located repetitions, and the freeness constraints that the
detector and searcher enforce.

Letters are small integers 0..a-1; the textual encoding (digits, then
lowercase letters for alphabets up to 36, comma-separated decimals above
that) is purely an I/O concern.  All values here are immutable, so they can
be shared freely between threads.

Exponents are `fractions.Fraction` throughout: comparisons are exact
cross-multiplications, never floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from pathlib import Path

__all__ = [
    "Word",
    "Occurrence",
    "FreenessConstraint",
    "Mode",
    "WordFormatError",
    "parse_word",
    "render_word",
    "read_word_file",
    "parse_exponent",
    "fraction_json",
    "fraction_from_json",
    "verify_occurrence",
]

# Letter characters for alphabets of size <= 36: '0'..'9' then 'a'..'z'.
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
# The same map as a bytes.translate table over ASCII: a letter character's
# byte goes to its value, every other byte to 255.
_DIGIT_TABLE = bytes(_DIGITS.find(chr(b)) % 256 for b in range(256))


class WordFormatError(ValueError):
    """Raised when word text does not decode under the declared alphabet."""


class Mode(enum.Enum):
    """Comparison mode of a freeness constraint.

    GEQ forbids occurrences with exponent >= threshold, STRICT forbids
    exponent > threshold.  Both appear in practice (thresholds are infima,
    and e.g. the Thue-Morse sequence avoids exponents strictly above 2 while
    containing exponent-2 squares), so neither is hard-coded anywhere.
    """

    GEQ = "geq"
    STRICT = "strict"


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {0, ..., alphabet-1}.

    `letters` may be any iterable of ints; it is stored as a tuple.  Letters
    given as `bytes` or `bytearray` are range-checked in one C pass (deleting
    every byte below the alphabet size leaves nothing), any other form
    letter by letter, where a letter that is not an integer (a float, a
    Fraction) raises TypeError.
    """

    alphabet: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        a = self.alphabet
        if a < 1:
            raise ValueError(f"alphabet size must be >= 1, got {a}")
        letters = self.letters
        if not isinstance(letters, tuple):
            checked = isinstance(letters, (bytes, bytearray)) and not letters.translate(
                None, bytes(range(min(a, 256)))
            )
            letters = tuple(letters)
            object.__setattr__(self, "letters", letters)
            if checked:
                return
        try:
            for pos, x in enumerate(letters):
                if not 0 <= index(x) < a:
                    raise ValueError(
                        f"position {pos}: letter {x} out of range for alphabet size {a}"
                    )
        except TypeError:
            raise TypeError(f"position {pos}: letter {x!r} is not an integer") from None

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return render_word(self)


@dataclass(frozen=True)
class Occurrence:
    """A located repetition: the factor w[start : start+length) repeats with
    shift `period`, i.e. w[i] == w[i+period] on the whole span.

    `period` is the declared shift, not necessarily the minimal one.  The
    exponent length/period is > 1 by construction (length >= period + 1).
    """

    start: int
    period: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.length < self.period + 1:
            raise ValueError(
                f"length {self.length} too short for period {self.period}"
            )

    @property
    def end(self) -> int:
        """Index one past the last letter of the occurrence."""
        return self.start + self.length

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

    def to_jsonable(self) -> dict:
        """The artifacts' encoding of an occurrence."""
        return {"start": self.start, "period": self.period, "length": self.length}


@dataclass(frozen=True)
class FreenessConstraint:
    """Forbids occurrences with period >= min_period whose exponent meets
    `threshold` under `mode` (>= for GEQ, > for STRICT)."""

    min_period: int
    threshold: Fraction
    mode: Mode = Mode.GEQ

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_period", index(self.min_period))
        if self.min_period < 1:
            raise ValueError(f"min_period must be >= 1, got {self.min_period}")
        if isinstance(self.threshold, float):
            # Fraction(1.1) is the binary double, not 11/10
            raise ValueError(
                f"threshold {self.threshold!r} is a float; pass a Fraction, an int or \"p/q\""
            )
        if not isinstance(self.threshold, Fraction):
            object.__setattr__(self, "threshold", Fraction(self.threshold))
        object.__setattr__(self, "mode", Mode(self.mode))
        if self.threshold <= 1:
            # Nothing is avoidable at threshold 1: every word is its own
            # first power, so such a constraint is meaningless.
            raise ValueError(f"threshold must be > 1, got {self.threshold}")

    def forbids(self, exponent: Fraction) -> bool:
        if self.mode is Mode.GEQ:
            return exponent >= self.threshold
        return exponent > self.threshold

    def forbids_occurrence(self, occ: Occurrence) -> bool:
        return occ.period >= self.min_period and self.forbids(occ.exponent)


def fraction_json(f: Fraction | None) -> dict | None:
    """The artifacts' encoding of an exact rational: {"num": p, "den": q},
    or None for None."""
    if f is None:
        return None
    return {"num": f.numerator, "den": f.denominator}


def fraction_from_json(d: dict | None) -> Fraction | None:
    """Inverse of fraction_json; ValueError unless num is an int and den a
    positive int (a bool is neither)."""
    if d is None:
        return None
    num, den = d["num"], d["den"]
    if type(num) is not int or type(den) is not int or den < 1:
        raise ValueError(f"bad fraction {d!r}: need integer num and positive integer den")
    return Fraction(num, den)


def _digits(text: str) -> int:
    """The value of one or more ASCII digits, else ValueError (int() alone
    also reads signs, spaces, '_' and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)  # past int()'s digit limit this raises too


def parse_exponent(text: str) -> Fraction:
    """Parse 'p/q' or 'p', in ASCII digits, into an exact rational."""
    num, slash, den = text.partition("/")
    try:
        num, den = _digits(num), _digits(den) if slash else 1
        if not den:
            raise ValueError("zero denominator")
    except ValueError as exc:
        raise ValueError(f"bad exponent {text!r}: {exc}") from None
    return Fraction(num, den)


def verify_occurrence(w: Word, occ: Occurrence) -> bool:
    """True iff occ fits inside w and w[i] == w[i+period] holds on its span.

    Never raises: geometry violations simply return False, so this is usable
    as a cheap postcondition check on anything that claims an occurrence.
    """
    if occ.end > len(w):
        return False
    letters, s, e, p = w.letters, occ.start, occ.end, occ.period
    return letters[s : e - p] == letters[s + p : e]


def parse_word(text: str, alphabet: int) -> Word:
    """Decode one word from its textual form.

    For alphabet <= 36 each letter is a single character ('0'-'9' then
    'a'-'z'); above that, letters are comma-separated decimal integers.
    The empty string decodes to the empty word in both regimes.

    Single-character text is decoded, range-checked and, if bad, located
    in C passes.  "replace" makes each non-ASCII code point (lone
    surrogates too) one '?', which maps to 255 like any non-letter, so
    byte i is character i up to the first bad one.  The first byte left
    once the good values are deleted is that bad one's value; an earlier
    copy would be bad too and left first, so its first index is its position.

    A comma-format token is a letter only if it is one or more ASCII
    digits; a minus sign before a nonzero value is reported as a negative
    letter, and any other token (signs, spaces, `_` separators, non-ASCII
    digits, "-0") as invalid.
    """
    if alphabet < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet}")
    letters: list[int] = []
    if alphabet <= 36:
        values = text.encode("ascii", "replace").translate(_DIGIT_TABLE)
        bad = values.translate(None, bytes(range(alphabet)))
        if not bad:
            return Word(alphabet, values)
        pos = values.index(bad[0])
        if bad[0] == 255:
            raise WordFormatError(f"position {pos}: invalid letter character {text[pos]!r}")
        raise WordFormatError(f"position {pos}: letter {bad[0]} >= alphabet size {alphabet}")
    elif text:
        for pos, tok in enumerate(text.split(",")):
            digits = tok.removeprefix("-")
            try:
                val = _digits(digits)
                if digits != tok and not val:  # "-0" is not a negative letter
                    raise ValueError
            except ValueError:
                raise WordFormatError(
                    f"position {pos}: invalid letter token {tok!r}"
                ) from None
            if digits != tok:
                raise WordFormatError(f"position {pos}: letter -{val} is negative")
            if val >= alphabet:
                raise WordFormatError(
                    f"position {pos}: letter {val} >= alphabet size {alphabet}"
                )
            letters.append(val)
    return Word(alphabet, letters)


def render_word(w: Word) -> str:
    """Inverse of parse_word for the same alphabet size."""
    if w.alphabet <= 36:
        return "".join(_DIGITS[x] for x in w.letters)
    return ",".join(str(x) for x in w.letters)


def read_word_file(path: str | Path, alphabet: int) -> list[Word]:
    """Read words one per line; '#' lines are comments, blank lines skipped."""
    words = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words.append(parse_word(line, alphabet))
        except WordFormatError as exc:
            raise WordFormatError(f"line {lineno}: {exc}") from None
    return words
