"""Exhaustive backtracking over words: certify that an exponent class is
unavoidable (the whole search tree dies at finite depth, which by Koenig's
lemma rules out an infinite avoiding word) or produce a long avoiding word
as heuristic evidence, and bracket the threshold between the two.

Only EXHAUSTED outcomes are proofs.  REACHED means a word of the requested
length exists, which says nothing about infinite words and is labelled
heuristic everywhere.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, inf
from operator import index

from .detect import ViolationKernel, _naive_wins, naive_oracle
from .words import (
    FreenessConstraint,
    Mode,
    Word,
    fraction_from_json,
    fraction_json,
    parse_word,
    render_word,
)

__all__ = [
    "Outcome",
    "SearchCertificate",
    "Bracket",
    "VerificationResult",
    "extend_search",
    "candidate_exponents",
    "bracket_threshold",
    "verify_certificate",
    "default_target_length",
]

# Independent re-verification of EXHAUSTED certificates scans the canonical
# prefixes of length depth, then the children of each clean one, which
# stand for all alphabet**(depth+1) words; beyond these limits it is
# skipped and flagged.
_REVERIFY_MAX_DEPTH = 12
_REVERIFY_MAX_ALPHABET = 3


class Outcome(enum.Enum):
    EXHAUSTED = "EXHAUSTED"
    REACHED = "REACHED"
    BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass(frozen=True)
class SearchCertificate:
    """Result of one extend_search run.

    EXHAUSTED: no word of length max_depth+1 satisfies the constraint, and
    max_depth is the longest satisfying length encountered.  REACHED: the
    witness has the requested target length and satisfies the constraint.
    BUDGET_EXCEEDED: the node budget ran out first; claims nothing.

    nodes_visited counts the nodes of the canonical search tree, the only
    one ``extend_search`` walks, so version 1 of the JSON form always
    writes ``"symmetry_reduced": true``, and the reader refuses any other
    value or a missing key.

    A malformed certificate raises ValueError when it is built: an
    alphabet below 1, a negative nodes_visited or max_depth, a REACHED one
    without a non-empty witness over its own alphabet, an EXHAUSTED one
    without a max_depth, or an elapsed time that is not a finite int or
    float of at least 0 (a bool is neither); a count or depth that is not
    an integer raises TypeError.  ``outcome`` may be given as its value.
    """

    alphabet_size: int
    constraint: FreenessConstraint
    outcome: Outcome
    max_depth: int | None
    nodes_visited: int
    witness: Word | None
    elapsed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcome", Outcome(self.outcome))
        # a depth of 3.5 would walk the re-proof below 0 to the recursion limit
        for name in ("alphabet_size", "nodes_visited", "max_depth"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, index(getattr(self, name)))
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet size {self.alphabet_size} below 1")
        if self.nodes_visited < 0:
            raise ValueError(f"negative nodes_visited {self.nodes_visited}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"negative max_depth {self.max_depth}")
        if self.outcome is Outcome.REACHED:
            if self.witness is None:
                raise ValueError("REACHED without witness")
            if len(self.witness) < 1:
                raise ValueError("empty witness")
            if self.witness.alphabet != self.alphabet_size:
                raise ValueError(
                    f"witness over {self.witness.alphabet} letters, certificate over {self.alphabet_size}"
                )
        elif self.outcome is Outcome.EXHAUSTED and self.max_depth is None:
            raise ValueError("EXHAUSTED without max_depth")
        if type(self.elapsed) not in (int, float) or not 0 <= self.elapsed < inf:
            raise ValueError(f"elapsed {self.elapsed!r} is not a finite time of at least 0")

    def to_jsonable(self) -> dict:
        doc: dict = {
            "alphabet": self.alphabet_size,
            "min_period": self.constraint.min_period,
            "threshold": fraction_json(self.constraint.threshold),
            "mode": self.constraint.mode.value,
            "outcome": self.outcome.value,
            "nodes_visited": self.nodes_visited,
            "symmetry_reduced": True,
            "elapsed_ms": self.elapsed * 1000.0,
        }
        if self.max_depth is not None:
            doc["max_depth"] = self.max_depth
        if self.witness is not None:
            doc["witness"] = render_word(self.witness)
        return doc

    @classmethod
    def from_jsonable(cls, doc: dict) -> "SearchCertificate":
        """Inverse of to_jsonable; ValueError on any malformed document,
        and on a ``symmetry_reduced`` that is not ``true``: the node count
        of an unreduced search is of a tree this program does not walk."""
        try:
            if doc["symmetry_reduced"] is not True:
                raise ValueError(f"symmetry_reduced is {doc['symmetry_reduced']!r}, not true")
            witness = doc.get("witness")
            ms = doc["elapsed_ms"]  # a bool is passed on to be refused, not read as 1 ms
            return cls(
                alphabet_size=doc["alphabet"],
                constraint=FreenessConstraint(
                    doc["min_period"], fraction_from_json(doc["threshold"]), doc["mode"]
                ),
                outcome=doc["outcome"],
                max_depth=doc.get("max_depth"),
                nodes_visited=doc["nodes_visited"],
                witness=None if witness is None else parse_word(witness, doc["alphabet"]),
                elapsed=ms if isinstance(ms, bool) else ms / 1000.0,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed certificate document: {exc!r}") from None


def default_target_length(alphabet_size: int, min_period: int) -> int:
    """Long enough to make REACHED persuasive, cheap enough to run often."""
    return max(200, 20 * min_period * alphabet_size)


def extend_search(
    alphabet_size: int,
    constraint: FreenessConstraint,
    target_length: int,
    *,
    node_budget: int | None = None,
) -> SearchCertificate:
    """Depth-first search for a word of target_length satisfying the
    constraint.

    Letters are tried in ascending order, and only canonical words are
    explored: a letter not yet in the prefix is tried only if it is the
    smallest unused one.  That is exact.  A power x^r is defined by which
    letters are equal, so relabelling a word's letters keeps its powers,
    and every word has exactly one canonical relabelling.  So a clean word
    of some length exists exactly when a canonical one does, and a
    canonical tree that dies at finite depth proves by Koenig's lemma that
    no infinite word avoids the constraint.  The pruning removes up to
    alphabet_size! words per canonical one, and depth d never tries a
    letter above d, so a huge alphabet makes no larger tree.

    nodes_visited counts attempted letter placements; with a node_budget the
    outcome BUDGET_EXCEEDED reports the deepest satisfying prefix found.

    Each placement is checked by ``ViolationKernel.first_period`` at the new
    letter only, which is exact: the prefix before it was already clean, so
    any new forbidden occurrence ends at that letter.  The kernel keeps the
    prefix in one byte buffer, finds long-period candidates with C-level
    substring search, and reuses each band search for the positions that
    follow it, so the cost per node grows slowly with depth: a clean
    placement on (2, 3, 5/3), timed per call, took a median of 2.5-4 us at
    depths 32-63 and 6.3-8.7 us at depths 2048-4095 (three runs, Python
    3.11, 2-CPU x86-64 VM).  Every call is at the letter just written, as
    the kernel's call order requires.
    """
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet_size}")
    if target_length < 1:
        raise ValueError(f"target_length must be >= 1, got {target_length}")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")

    a = alphabet_size
    kernel = ViolationKernel(constraint, a, [0] * target_length)
    first_period = kernel.first_period
    seq = kernel.seq
    # Depth d tries the letters 0..top[d]-1: the letters of the prefix and
    # the smallest unused one.
    top = [0] * target_length
    top[0] = 1
    depth = 0
    letter = 0  # the next letter to try at depth
    sat_max = 0
    nodes = 0
    t0 = time.perf_counter()

    def make(outcome: Outcome, witness: Word | None) -> SearchCertificate:
        return SearchCertificate(
            alphabet_size=a,
            constraint=constraint,
            outcome=outcome,
            max_depth=None if outcome is Outcome.REACHED else sat_max,
            nodes_visited=nodes,
            witness=witness,
            elapsed=time.perf_counter() - t0,
        )

    while True:
        hi = top[depth]
        while letter < hi:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return make(Outcome.BUDGET_EXCEEDED, None)
            seq[depth] = letter
            if not first_period(depth):
                break
            letter += 1
        else:
            depth -= 1
            if depth < 0:
                return make(Outcome.EXHAUSTED, None)
            letter = seq[depth] + 1
            continue
        depth += 1
        if depth > sat_max:
            sat_max = depth
        if depth == target_length:
            return make(Outcome.REACHED, Word(a, seq))
        # placing the smallest unused letter admits the next one
        top[depth] = hi + 1 if letter + 1 == hi < a else hi
        letter = 0


def candidate_exponents(
    max_denominator: int,
    lo: Fraction | int,
    hi: Fraction | int,
) -> list[Fraction]:
    """All reduced rationals in (lo, hi] with denominator <= max_denominator,
    strictly ascending."""
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    found = []
    for den in range(1, max_denominator + 1):
        first = lo.numerator * den // lo.denominator + 1
        last = hi.numerator * den // hi.denominator
        for numr in range(first, last + 1):
            if gcd(numr, den) == 1:  # the bounds keep numr/den in (lo, hi]
                found.append(Fraction(numr, den))
    return sorted(found)


@dataclass(frozen=True)
class Bracket:
    """Empirical enclosure of the repetition threshold for (a, l): the
    certificates of the walk up ``bracket_threshold``'s ladder, (r, GEQ) for
    each grid point r ascending, then (2, STRICT).  Both ends are read from
    the certificates, never stored beside them.

    r_lo is certified: avoiding exponents >= r_lo is impossible (the last
    EXHAUSTED rung), hence the threshold is at least r_lo.  r_hi is
    heuristic: a long word avoiding exponents >= r_hi (or, with the
    strict-fallback flag, strictly above r_hi) was found at the first
    REACHED rung, which ends the ladder; without one r_hi is None.  Neither
    side claims the infimum is attained.  An alphabet below 2, a min period
    below 1, no certificates or a certificate of another (a, l) raises
    ValueError; an a or l that is not an integer raises TypeError.
    """

    a: int
    l: int
    certificates: list[SearchCertificate]

    def __post_init__(self) -> None:
        for name in ("a", "l"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.a < 2:
            raise ValueError(f"alphabet size {self.a} below 2")
        if self.l < 1:
            raise ValueError(f"min period {self.l} below 1")
        if not self.certificates:
            raise ValueError("a bracket needs at least one certificate")
        if any((c.alphabet_size, c.constraint.min_period) != (self.a, self.l) for c in self.certificates):
            raise ValueError(f"the bracket for a={self.a} l={self.l} holds a certificate of another (a, l)")

    @property
    def r_lo(self) -> Fraction | None:
        exhausted = [c.constraint.threshold for c in self.certificates if c.outcome is Outcome.EXHAUSTED]
        return exhausted[-1] if exhausted else None

    @property
    def r_hi(self) -> Fraction | None:
        if self.certificates and self.certificates[-1].outcome is Outcome.REACHED:
            return self.certificates[-1].constraint.threshold
        return None

    @property
    def r_hi_strict_fallback(self) -> bool:
        return self.r_hi is not None and self.certificates[-1].constraint.mode is Mode.STRICT

    @property
    def c_hat(self) -> Fraction | None:
        """Empirical constant in the 1 + c/(a*l) upper-bound shape."""
        if self.r_hi is None:
            return None
        return (self.r_hi - 1) * self.a * self.l

    def summary_line(self) -> str:
        def fmt(f: Fraction | None) -> str:
            return "-" if f is None else f"{f.numerator}/{f.denominator}"

        c = self.c_hat
        c_txt = "-" if c is None else f"{float(c):g}"
        return (
            f"a={self.a} l={self.l} r_lo={fmt(self.r_lo)} "
            f"r_hi={fmt(self.r_hi)} c_hat={c_txt}"
        )

    def to_jsonable(self) -> dict:
        return {
            "a": self.a,
            "l": self.l,
            "r_lo": fraction_json(self.r_lo),
            "r_hi": fraction_json(self.r_hi),
            "r_hi_strict_fallback": self.r_hi_strict_fallback,
            "c_hat": None if self.c_hat is None else float(self.c_hat),
            "certificates": [cert.to_jsonable() for cert in self.certificates],
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "Bracket":
        """Rebuild from a, l and the certificates; ValueError on any
        malformed document, and when a stored end disagrees with the one
        the certificates give."""
        try:
            stored = (fraction_from_json(doc["r_lo"]), fraction_from_json(doc["r_hi"]),
                      doc["r_hi_strict_fallback"], doc["c_hat"])
            bracket = cls(doc["a"], doc["l"], [SearchCertificate.from_jsonable(c) for c in doc["certificates"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed bracket document: {exc!r}") from None
        derived = (bracket.r_lo, bracket.r_hi, bracket.r_hi_strict_fallback, bracket.to_jsonable()["c_hat"])
        if stored != derived:
            raise ValueError(f"stored (r_lo, r_hi, r_hi_strict_fallback, c_hat) = {stored} "
                             f"disagree with the certificates' {derived}")
        return bracket


def bracket_threshold(
    alphabet_size: int,
    min_period: int,
    max_denominator: int = 6,
    target_length: int | None = None,
    *,
    node_budget: int | None = 5_000_000,
) -> Bracket:
    """Walk the ladder (r, GEQ) for each candidate r in (1, 2] ascending,
    then (2, STRICT), and stop at the first REACHED rung.

    Each rung forbids less than the one before: (r, GEQ) forbids more than
    (r, STRICT), which forbids more than (r', GEQ) for every r' > r.  So an
    EXHAUSTED rung proves the threshold at least its r (r_lo), a REACHED
    rung is evidence that it is at most its r (r_hi, with the
    strict-fallback flag when that rung is STRICT, as for binary alphabets,
    where squares are unavoidable), and BUDGET_EXCEEDED moves neither end.
    Candidates above 2 are uninteresting (exponents strictly above 2 are
    avoidable over any alphabet of size >= 2, Thue-Morse style).
    """
    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet_size}")
    if target_length is None:
        target_length = default_target_length(alphabet_size, min_period)
    grid = candidate_exponents(max_denominator, Fraction(1), Fraction(2))
    ladder = [(r, Mode.GEQ) for r in grid] + [(grid[-1], Mode.STRICT)]
    certs: list[SearchCertificate] = []
    for r, mode in ladder:
        c = FreenessConstraint(min_period, r, mode)
        certs.append(extend_search(alphabet_size, c, target_length, node_budget=node_budget))
        if certs[-1].outcome is Outcome.REACHED:
            break
    return Bracket(alphabet_size, min_period, certs)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    independently_verified: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def _canonical_letters(alphabet_size: int, word: tuple) -> range:
    """The letters that may follow canonical `word` and keep it canonical:
    those it uses and the smallest unused one, ascending."""
    return range(min(max(word, default=-1) + 2, alphabet_size))


def _canonical_words(alphabet_size: int, length: int):
    """Yield, in lexicographic order, the canonical words of `length` letters
    below `alphabet_size`: those whose letters first appear in the order 0,
    1, 2, ..., so that each letter is at most one more than the largest
    before it.

    The canonical prefixes are walked depth-first, letters ascending, from
    a stack; a prefix is extended only until it has `length` letters or
    may be followed by every letter.  Its largest letter is then at least
    alphabet_size - 2, so every extension of it is canonical, and the
    extensions are yielded as ``prefix + s`` for each s of
    ``itertools.product``, mapped in C.  The order stays lexicographic:
    product yields its tuples in lexicographic order, every word below a
    prefix starts with it, and siblings are taken in ascending order.  The
    walk is lazy and holds at most alphabet_size prefixes per level."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        letters = _canonical_letters(alphabet_size, prefix)
        if len(prefix) == length or len(letters) == alphabet_size:
            yield from map(prefix.__add__, product(range(alphabet_size), repeat=length - len(prefix)))
        else:
            stack += [prefix + (x,) for x in reversed(letters)]


def verify_certificate(cert: SearchCertificate) -> VerificationResult:
    """Re-check a certificate against independent machinery.

    REACHED witnesses are re-scanned with the naive oracle.  Small EXHAUSTED
    certificates (max_depth <= 12, alphabet <= 3) are re-proved by showing
    that no canonical word of length max_depth+1 is clean, which covers all
    alphabet**(max_depth+1) words up to relabelling; larger ones are
    accepted with independently_verified=False.  Each word is checked by
    the naive oracle's own scan (``detect._naive_wins``) on the
    bare letter tuple, read only up to its first forbidden run: the
    re-proof asks whether a word violates, not how badly.  A ``Word`` is
    built only to render a counterexample.  A malformed certificate never
    gets here: ``SearchCertificate`` refuses one when it is built.

    The canonical words suffice because the oracle compares letters only
    for equality, so a word and its canonical relabelling get the same
    answer, and every word has exactly one canonical relabelling.  The
    details are those of a full enumeration: the lexicographically first
    clean word is itself canonical (relabelling it would give a smaller
    letter at the first position it changes), so a counterexample names the
    same word; a clean word of the claimed depth exists exactly when a
    canonical one does; and the "re-enumerated all" count is of the words
    covered.

    The walk scans each canonical prefix of length max_depth once.  A
    violating prefix is passed over whole, since each of its children
    holds the same run.  A clean prefix shows that max_depth is attained
    (at max_depth 0 the empty prefix is clean), and its children are
    scanned in ascending order.
    """
    if cert.outcome is Outcome.REACHED:
        occ = naive_oracle(cert.witness, cert.constraint)
        if occ is not None:
            return VerificationResult(
                False,
                True,
                f"witness violates constraint at start={occ.start} period={occ.period}",
            )
        return VerificationResult(True, True, "witness oracle-clean")
    if cert.outcome is Outcome.BUDGET_EXCEEDED:
        return VerificationResult(True, False, "budget outcome claims nothing")
    depth = cert.max_depth
    if depth > _REVERIFY_MAX_DEPTH or cert.alphabet_size > _REVERIFY_MAX_ALPHABET:
        return VerificationResult(True, False, "not independently re-verified")
    a = cert.alphabet_size
    c = cert.constraint
    # unpacked once for the whole enumeration, not once per word
    args = c.min_period, c.threshold.numerator, c.threshold.denominator, c.mode is Mode.STRICT
    attained = False
    for prefix in _canonical_words(a, depth):
        if next(_naive_wins(prefix, *args), None) is not None:
            continue  # every child holds the prefix's run
        attained = True  # max_depth must be attained, not just be an upper bound
        for x in _canonical_letters(a, prefix):
            candidate = prefix + (x,)
            if next(_naive_wins(candidate, *args), None) is None:
                return VerificationResult(
                    False,
                    True,
                    f"counterexample of length {depth + 1}: {render_word(Word(a, candidate))}",
                )
    if not attained:
        return VerificationResult(False, True, f"no satisfying word of the claimed depth {depth}")
    return VerificationResult(
        True, True, f"re-enumerated all {a ** (depth + 1)} words of length {depth + 1}"
    )
