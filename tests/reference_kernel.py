"""Reference implementations of the incremental violation check: the plain
per-period backward walk that the searcher and ``violations_ending_at``
used before the shared ``ViolationKernel``, the sampler's bad event at one
position by the same walk over every period, and its rescan from position
0 after every resample.  Tests hold the kernel equal to the first,
certificate field by certificate field, ``ViolationKernel.lowest_start``
equal to the second, and the sampler equal to the third, trace by trace.

Also the detectors' former whole-word scanners, which visit every period: a
byte-packed pair for alphabets up to 256 and a letter-by-letter pair above.
Tests hold ``max_exponent`` and ``exists_repetition`` equal to them,
witnesses included.

And the former ``naive_oracle``, which re-judges every start inside a
match-run and tries every period below n.  Tests hold the oracle equal to
it, witness and tie rule included.

And the former two-phase ``bracket_threshold``: a GEQ sweep, then one STRICT
search at the top of the grid when no GEQ candidate is reached.  Tests hold
the one-ladder walk equal to it, certificate field by certificate field.

And the former ``parse_word``, which decodes and range-checks text one
character (or one comma-separated token) at a time.  Tests hold the
translate-based decoder equal to it, letters and error text included.  Its
comma tokens follow the current rule: one or more ASCII digits, or a minus
sign before a nonzero value (a negative letter); ``int()`` alone would also
read signs, spaces, ``_`` and non-ASCII digits.

And the former ``verify_certificate``, which re-enumerates every one of the
alphabet**(max_depth+1) words, not only the canonical ones.  Tests hold the
canonical enumeration equal to it, verdict and detail text included.

And two formulas the package computes inline: the rank map extended block
by block, which ``build_mapped_word`` pulls the source back along, and one
sampler letter, one draw mod the alphabet size, which ``sample_free_word``
takes from ``SplitMix64.next_block``."""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

from repthresh import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Outcome,
    SamplerConfig,
    SearchCertificate,
    SplitMix64,
    VerificationResult,
    Word,
    WordFormatError,
    candidate_exponents,
    default_target_length,
    extend_search,
    naive_oracle,
    rank_map_eval,
    rank_map_image_size,
    render_word,
)
from repthresh.search import _REVERIFY_MAX_ALPHABET, _REVERIFY_MAX_DEPTH


def _required_run(p: int, num: int, den: int, strict: bool) -> int:
    if strict:
        return p * (num - den) // den + 1
    need = (p * (num - den) + den - 1) // den
    return need if need > 0 else 1


def ref_violation_ending_at(letters: Sequence[int], c: FreenessConstraint, pos: int) -> Occurrence | None:
    """Smallest-period forbidden occurrence ending at pos, truncated to the
    minimal violating length, by walking back from pos for every period."""
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    pmax = min(pos, (pos + 1) * den // num)
    for p in range(c.min_period, pmax + 1):
        if letters[pos - p] != letters[pos]:
            continue
        need = _required_run(p, num, den, strict)
        run = 1
        i = pos - p - 1
        while run < need and i >= 0 and letters[i] == letters[i + p]:
            run += 1
            i -= 1
        if run >= need:
            return Occurrence(pos - p - run + 1, p, p + run)
    return None


def ref_extend_search(
    alphabet_size: int,
    c: FreenessConstraint,
    target_length: int,
    *,
    symmetry: bool = True,
    letter_order: Sequence[int] | None = None,
    node_budget: int | None = None,
) -> tuple[str, int | None, int, Word | None]:
    """(outcome, max_depth, nodes_visited, witness) of the same depth-first
    search as ``extend_search``, with the reference check at every node."""
    a = alphabet_size
    order = tuple(range(a)) if letter_order is None else tuple(letter_order)
    letters = [0] * target_length
    next_choice = [0] * (target_length + 1)
    max_used = [0] * (target_length + 1)
    depth = sat_max = nodes = 0
    while True:
        if depth == target_length:
            return "REACHED", None, nodes, Word(a, tuple(letters))
        choice = next_choice[depth]
        mx = max_used[depth]
        placed = False
        while choice < a:
            letter = order[choice]
            choice += 1
            if symmetry and letter > mx:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return "BUDGET_EXCEEDED", sat_max, nodes, None
            letters[depth] = letter
            if ref_violation_ending_at(letters, c, depth) is None:
                placed = True
                break
        if placed:
            next_choice[depth] = choice
            max_used[depth + 1] = mx if letter < mx else letter + 1
            depth += 1
            next_choice[depth] = 0
            sat_max = max(sat_max, depth)
        else:
            depth -= 1
            if depth < 0:
                return "EXHAUSTED", sat_max, nodes, None


def ref_lowest_start(
    letters: Sequence[int], l: int, num: int, den: int, strict: bool, pos: int
) -> Occurrence | None:
    """The sampler's bad event among the occurrences ending at pos: the
    forbidden one spanning the full maximal match-run ending there with the
    lowest start, ties by smallest period, by walking back from pos for
    every period; None when no occurrence ending at pos is forbidden."""
    pmax = min(pos, (pos + 1) * den // num)
    best: tuple[int, int, int] | None = None
    for p in range(l, pmax + 1):
        if letters[pos - p] != letters[pos]:
            continue
        run = 1
        i = pos - p - 1
        while i >= 0 and letters[i] == letters[i + p]:
            run += 1
            i -= 1
        if run < _required_run(p, num, den, strict):
            continue
        start = pos - p - run + 1
        if best is None or (start, p) < (best[0], best[1]):
            best = (start, p, p + run)
    return None if best is None else Occurrence(*best)


def ref_first_violation(
    letters: Sequence[int], l: int, num: int, den: int, strict: bool
) -> Occurrence | None:
    """The sampler's bad event by a rescan from position 0: the forbidden
    occurrence with minimal end position, ties by start, then period,
    spanning the full maximal match-run ending there."""
    for pos in range(len(letters)):
        occ = ref_lowest_start(letters, l, num, den, strict, pos)
        if occ is not None:
            return occ
    return None


def ref_letter(rng: SplitMix64, alphabet_size: int) -> int:
    """The sampler's next letter: one draw mod the alphabet size."""
    return rng.next_uint64() % alphabet_size


def ref_run_sampler(alphabet_size: int, c: FreenessConstraint, config: SamplerConfig):
    """(word or None, resample_count, histogram, trace) of the Moser-Tardos
    run that ``sample_free_word`` and ``resample_trace`` perform, rescanning
    the whole word after every resample."""
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    rng = SplitMix64(config.seed)
    letters = [ref_letter(rng, alphabet_size) for _ in range(config.target_length)]
    histogram: dict[int, int] = {}
    trace: list[tuple[Occurrence, int]] = []
    count = 0
    while True:
        occ = ref_first_violation(letters, c.min_period, num, den, strict)
        if occ is None:
            return Word(alphabet_size, tuple(letters)), count, histogram, trace
        if count >= config.max_resamples:
            return None, count, histogram, trace
        count += 1
        histogram[occ.period] = histogram.get(occ.period, 0) + 1
        trace.append((occ, count))
        for i in range(occ.start, occ.end):
            letters[i] = ref_letter(rng, alphabet_size)


def ref_naive_oracle(w: Word, c: FreenessConstraint) -> Occurrence | None:
    """Ground-truth scan: try every (start, period >= min_period) pair.

    Returns a forbidden occurrence of maximal exponent (ties: smallest
    start, then smallest period), or None.  Kept brutally simple; the fast
    scanners are tested against this.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    letters = w.letters
    n = len(letters)
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    best: Occurrence | None = None
    best_num = best_den = 1
    for p in range(c.min_period, n):
        for s in range(0, n - p):
            if letters[s] != letters[s + p]:
                continue
            e = s + 1
            while e < n - p and letters[e] == letters[e + p]:
                e += 1
            length = p + (e - s)
            # violates?  length/p >= num/den  (or strictly >)
            lhs, rhs = length * den, p * num
            if lhs < rhs or (strict and lhs == rhs):
                continue
            if best is None:
                better = True
            else:
                d = length * best_den - best_num * p
                better = d > 0 or (d == 0 and (s, p) < (best.start, best.period))
            if better:
                best = Occurrence(s, p, length)
                best_num, best_den = length, p
    return best


def ref_max_exponent(w: Word, min_period: int = 1) -> Occurrence | None:
    """The witness ``max_exponent`` reports (maximal exponent, ties by
    smallest start, then smallest period), by a scan of every period."""
    if w.alphabet <= 256:
        best = _scan_max_bytes(w.letters, min_period)
    else:
        best = _scan_max_generic(w.letters, min_period)
    return None if best is None else Occurrence(*best)


def ref_exists_repetition(w: Word, c: FreenessConstraint) -> Occurrence | None:
    """The first forbidden maximal match-run in (period, start) order."""
    if w.alphabet <= 256:
        return _scan_threshold_bytes(w, c)
    return _scan_threshold_generic(w, c)


# For shift p the XOR of the word's little-endian integer image with itself
# shifted by p bytes has a zero byte exactly where w[i] == w[i+p]; maximal
# zero-byte blocks are the match-runs.  bytes.find locates a block of `need`
# zeros in C.


def _scan_threshold_bytes(w: Word, c: FreenessConstraint) -> Occurrence | None:
    letters = w.letters
    n = len(letters)
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    x = int.from_bytes(bytes(letters), "little")
    pmax = min(n - 1, n * den // num)
    for p in range(c.min_period, pmax + 1):
        limit = n - p
        need = _required_run(p, num, den, strict)
        if need > limit:
            continue
        z = (x ^ (x >> (8 * p))).to_bytes(n, "little")[:limit]
        i = z.find(b"\x00" * need)
        if i < 0:
            continue
        j = i + need
        while j < limit and not z[j]:
            j += 1
        return Occurrence(i, p, p + (j - i))
    return None


def _scan_max_bytes(letters: tuple[int, ...], min_period: int):
    n = len(letters)
    x = int.from_bytes(bytes(letters), "little")
    best = None  # (start, period, length)
    best_num, best_den = 1, 1  # current maximum as length/period
    for p in range(min_period, n):
        limit = n - p
        # only runs at least as good as the current best are interesting
        need = (p * (best_num - best_den) + best_den - 1) // best_den
        if need < 1:
            need = 1
        if need > limit:
            continue
        z = (x ^ (x >> (8 * p))).to_bytes(n, "little")[:limit]
        block = b"\x00" * need
        pos = 0
        while True:
            i = z.find(block, pos)
            if i < 0:
                break
            j = i + need
            while j < limit and not z[j]:
                j += 1
            run = j - i
            d = (p + run) * best_den - best_num * p
            if d > 0 or (
                d == 0 and (best is None or (i, p) < (best[0], best[1]))
            ):
                best = (i, p, p + run)
                best_num, best_den = p + run, p
                need = (p * (best_num - best_den) + best_den - 1) // best_den
                if need > limit:
                    break
                block = b"\x00" * need
            pos = j + 1
    return best


def _iter_runs(letters: tuple[int, ...], p: int):
    """Maximal match-runs (start, run_length) for shift p."""
    limit = len(letters) - p
    i = 0
    while i < limit:
        if letters[i] == letters[i + p]:
            j = i + 1
            while j < limit and letters[j] == letters[j + p]:
                j += 1
            yield i, j - i
            i = j + 1
        else:
            i += 1


def _scan_threshold_generic(w: Word, c: FreenessConstraint) -> Occurrence | None:
    letters = w.letters
    n = len(letters)
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    pmax = min(n - 1, n * den // num)
    for p in range(c.min_period, pmax + 1):
        need = _required_run(p, num, den, strict)
        for i, run in _iter_runs(letters, p):
            if run >= need:
                return Occurrence(i, p, p + run)
    return None


def _scan_max_generic(letters: tuple[int, ...], min_period: int):
    n = len(letters)
    best = None
    best_num, best_den = 1, 1
    for p in range(min_period, n):
        for i, run in _iter_runs(letters, p):
            d = (p + run) * best_den - best_num * p
            if d > 0 or (d == 0 and (best is None or (i, p) < (best[0], best[1]))):
                best = (i, p, p + run)
                best_num, best_den = p + run, p
    return best


def ref_bracket_threshold(
    alphabet_size: int,
    min_period: int,
    max_denominator: int = 6,
    target_length: int | None = None,
    *,
    node_budget: int | None = 5_000_000,
) -> SimpleNamespace:
    """Sweep candidate exponents in (1, 2] ascending with mode GEQ, and
    return the ends it tracks (r_lo, r_hi, r_hi_strict_fallback) with the
    certificates.

    The largest EXHAUSTED candidate becomes r_lo, the smallest REACHED one
    r_hi; by monotonicity everything above the first REACHED is skipped.
    Candidates above 2 are uninteresting (exponents strictly above 2 are
    avoidable over any alphabet of size >= 2, Thue-Morse style).

    When every GEQ candidate exhausts (binary alphabets: squares are
    unavoidable), one STRICT run at the top candidate backs r_hi instead and
    the bracket carries the strict-fallback flag: the threshold is then at
    most r_hi without evidence of avoidance at r_hi itself.
    """
    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {alphabet_size}")
    if target_length is None:
        target_length = default_target_length(alphabet_size, min_period)
    grid = candidate_exponents(max_denominator, Fraction(1), Fraction(2))
    certs: list[SearchCertificate] = []
    r_lo: Fraction | None = None
    r_hi: Fraction | None = None
    strict_fallback = False
    for r in grid:
        cert = extend_search(
            alphabet_size,
            FreenessConstraint(min_period, r, Mode.GEQ),
            target_length,
            node_budget=node_budget,
        )
        certs.append(cert)
        if cert.outcome is Outcome.EXHAUSTED:
            r_lo = r
        elif cert.outcome is Outcome.REACHED:
            r_hi = r
            break
    if r_hi is None:
        top = grid[-1]
        cert = extend_search(
            alphabet_size,
            FreenessConstraint(min_period, top, Mode.STRICT),
            target_length,
            node_budget=node_budget,
        )
        certs.append(cert)
        if cert.outcome is Outcome.REACHED:
            r_hi = top
            strict_fallback = True
    return SimpleNamespace(r_lo=r_lo, r_hi=r_hi, r_hi_strict_fallback=strict_fallback,
                           certificates=certs)


_REF_DIGIT_VALUE = {c: v for v, c in enumerate("0123456789abcdefghijklmnopqrstuvwxyz")}


def ref_parse_word(text: str, alphabet: int) -> Word:
    if alphabet < 1:
        raise ValueError(f"alphabet size must be >= 1, got {alphabet}")
    letters: list[int] = []
    if alphabet <= 36:
        for pos, ch in enumerate(text):
            val = _REF_DIGIT_VALUE.get(ch)
            if val is None:
                raise WordFormatError(f"position {pos}: invalid letter character {ch!r}")
            if val >= alphabet:
                raise WordFormatError(
                    f"position {pos}: letter {val} >= alphabet size {alphabet}"
                )
            letters.append(val)
    elif text:
        for pos, tok in enumerate(text.split(",")):
            sign, digits = (-1, tok[1:]) if tok[:1] == "-" else (1, tok)
            if not digits or any(ch not in "0123456789" for ch in digits) or sign < 0 and int(digits) == 0:
                raise WordFormatError(f"position {pos}: invalid letter token {tok!r}")
            val = sign * int(digits)
            if val < 0:
                raise WordFormatError(f"position {pos}: letter {val} is negative")
            if val >= alphabet:
                raise WordFormatError(
                    f"position {pos}: letter {val} >= alphabet size {alphabet}"
                )
            letters.append(val)
    return Word(alphabet, tuple(letters))


def ref_verify_certificate(cert: SearchCertificate) -> VerificationResult:
    """Re-check a certificate against independent machinery.

    REACHED witnesses are re-scanned with the naive oracle.  Small EXHAUSTED
    certificates (max_depth <= 12, alphabet <= 3) are re-proved by full
    enumeration of every word of length max_depth+1; larger ones are
    accepted with independently_verified=False.  A malformed certificate (an
    alphabet below 1, a negative max_depth or nodes_visited, a witness over
    another alphabet) is rejected.
    """
    if cert.alphabet_size < 1:
        return VerificationResult(False, True, f"alphabet size {cert.alphabet_size} below 1")
    if cert.nodes_visited < 0:
        return VerificationResult(False, True, f"negative nodes_visited {cert.nodes_visited}")
    if cert.outcome is Outcome.REACHED:
        if cert.witness is None:
            return VerificationResult(False, True, "REACHED without witness")
        if len(cert.witness) < 1:
            return VerificationResult(False, True, "empty witness")
        if cert.witness.alphabet != cert.alphabet_size:
            return VerificationResult(
                False,
                True,
                f"witness over {cert.witness.alphabet} letters, certificate over {cert.alphabet_size}",
            )
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
    if cert.max_depth is None:
        return VerificationResult(False, True, "EXHAUSTED without max_depth")
    if cert.max_depth < 0:
        return VerificationResult(False, True, f"negative max_depth {cert.max_depth}")
    depth = cert.max_depth
    if depth > _REVERIFY_MAX_DEPTH or cert.alphabet_size > _REVERIFY_MAX_ALPHABET:
        return VerificationResult(True, False, "not independently re-verified")
    a = cert.alphabet_size
    for candidate in itertools.product(range(a), repeat=depth + 1):
        w = Word(a, candidate)
        if naive_oracle(w, cert.constraint) is None:
            return VerificationResult(
                False,
                True,
                f"counterexample of length {depth + 1}: {render_word(w)}",
            )
    if depth >= 1:
        # max_depth must be attained, not just be an upper bound
        if all(
            naive_oracle(Word(a, candidate), cert.constraint) is not None
            for candidate in itertools.product(range(a), repeat=depth)
        ):
            return VerificationResult(
                False, True, f"no satisfying word of the claimed depth {depth}"
            )
    return VerificationResult(
        True, True, f"re-enumerated all {a ** (depth + 1)} words of length {depth + 1}"
    )


def ref_rank_map_block_extend(i: int, m: int, l: int) -> int:
    """The rank map f on all of N: block j >= 1 repeats the first block's
    pattern over fresh source positions, f(i + j*l) = f(i) + j*L."""
    j, i0 = divmod(i, l)
    return rank_map_eval(i0, m, l)[0] + j * rank_map_image_size(m, l)
