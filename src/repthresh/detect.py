"""Repetition detection: find fractional powers with period >= l whose
exponent meets a threshold.

Two independent routes are kept deliberately separate:

* The naive route is one scan, ``_naive_wins``, with two views.  It
  judges, by direct letter comparison, every maximal match-run that could
  beat the best so far, and yields in (period, start) order each one that
  does.  A run that wins at period p has at least u letters: the least
  violating run until a best is known, then the least run that ties the
  best, which is no shorter since the best violates.  So letters are
  compared only at probes u apart, and a probe that matches is widened
  both ways to its maximal run.  No run that could win is skipped, and
  the first yield, found before any best exists, is probed as by the
  threshold alone.
  ``naive_oracle`` keeps the last run, the maximal-exponent witness;
  ``search.verify_certificate`` asks only whether a word violates, so it
  takes the first run and stops there.  It is the ground truth and stays
  dumb on purpose: no packing, no byte search, no code shared with the
  scanners or the kernel.
* ``exists_repetition`` / ``max_exponent`` scan match-runs per period
  (for each shift p, the maximal blocks where w[i] == w[i+p]; a block of
  length len gives the occurrence (i, p, p+len)).  Both read one scan,
  ``_wins``, which yields in (period, start) order each run that beats the
  best so far: ``max_exponent`` runs it from exponent 1 and keeps the last
  run, ``exists_repetition`` runs it from the threshold and takes the
  first.  The scan serves every alphabet: the word is packed at 1, 2, 4
  or 8 bytes per letter as for the kernel below (it only reads, so letters
  past 64 bits are relabelled), the match vector of a period is one
  big-integer XOR with each letter's lane folded to one byte, and runs
  are located with C-level byte searches.

  Periods go in doubling bands [P, 2P-1], and only candidate periods are
  scanned.  A run of at least ``need`` matches at shift p holds, in its
  later copy, an aligned block [c, c+h), h = ceil(need/2), c a multiple
  of h, that recurs p letters earlier; so ``_recurrences`` of each
  aligned block lists in C every period of the band that can carry such
  a run.  The filter is exact because the ``need`` taken at the band's
  first period bounds the whole band: need is non-decreasing in p, and it
  only grows as the best so far grows, so after a win the scan filters
  the rest of the band again with the new need.  Each candidate is
  scanned in full, so the witnesses and their tie rules are those of a
  scan of every period.
  The worst case is still quadratic: the filter only skips periods that
  cannot carry a long enough run.

  Two more skips are exact.  The scan starts at the closest distance d
  between two equal letters when it exceeds the minimum period, since no
  shorter period has a single match; d comes from one pass over the
  letters that stops once d is at most the minimum.  And it looks only
  for runs that would replace the best (start s): periods go up, so a
  later run wins only with a larger exponent, or with the same exponent
  and a start before s.  Runs as long as the best are searched only among
  starts below s, strictly longer ones from s on; every run found wins,
  so none is judged in vain.  ``exists_repetition`` sets s to n under
  GEQ, so that a run at the threshold wins, and to 0 under STRICT.

``ViolationKernel`` is the one incremental check, used by the backtracking
searcher, the sampler and ``violations_ending_at``: when a word grows by
one letter, any new violation must end at that letter.  It keeps the
minimal violating run ``need[p]`` per period (grown lazily with the word)
and the word as a byte buffer of exactly the letters its callers give.
Periods below ``_DIRECT_PERIODS`` are compared letter by letter; larger
ones go in doubling bands [P, 2P-1].  Since need is non-decreasing in p, a
violation at any period q of the band has a match-run of at least m =
need[P] ending at the new letter.  ``_recurrences``, the module's one byte
search over a packed word, which the scanners' filter shares, lists in C,
ascending, the periods at which a suffix recurs (``rfind``), and one loop
confirms each listed period by one letter and one slice comparison of
length need[q].

A band search is kept and reused for the positions that follow it.  A run
of at least m ending at pos holds a run of at least h = ceil(m/2) ending
at each of the m-h letters before pos, so one search for the length-h
suffix ending at c = pos-1 lists every period of the band that can
violate at any position from c+1 to c+m-h; there the periods found are
only confirmed.  A band with m = 1 serves no later position (m-h = 0):
the helper lists it afresh at every call, and the same loop confirms it.
A kept search reads letters up to c, so callers call at the lowest
changed position first (see ``ViolationKernel``).  The answer is exactly
the smallest violating period that a letter-by-letter walk would find.

Apart from the kernel's ``need`` table and its kept band searches, nothing
is cached across calls.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import MutableSequence

from .words import FreenessConstraint, Mode, Occurrence, Word, fraction_json

__all__ = [
    "DetectionReport",
    "naive_oracle",
    "max_exponent",
    "exists_repetition",
    "violations_ending_at",
    "ViolationKernel",
    "detect",
]


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a detection pass over one word.

    ``witness`` is an occurrence of maximal exponent, and None exactly when
    no occurrence with exponent > 1 and period >= the queried minimum exists
    (every word trivially has exponent 1, which is never reported);
    ``max_exponent`` is read from it.  ``constraint_violated`` is only
    meaningful when the caller supplied a threshold.
    """

    witness: Occurrence | None
    constraint_violated: bool = False

    @property
    def max_exponent(self) -> Fraction | None:
        return None if self.witness is None else self.witness.exponent

    def to_jsonable(self) -> dict:
        return {
            "max_exponent": fraction_json(self.max_exponent),
            "witness": None if self.witness is None else self.witness.to_jsonable(),
            "constraint_violated": self.constraint_violated,
        }


def _required_run(p: int, num: int, den: int, strict: bool) -> int:
    """Minimal match-run length so that (p+run)/p meets num/den."""
    if strict:
        return p * (num - den) // den + 1
    need = (p * (num - den) + den - 1) // den
    return need if need > 0 else 1


def naive_oracle(w: Word, c: FreenessConstraint) -> Occurrence | None:
    """Ground-truth scan: a forbidden occurrence of maximal exponent (ties:
    smallest start, then smallest period), or None.  Kept brutally simple;
    the fast scanners are tested against this.

    This is the last run that ``_naive_wins`` yields, so it judges every
    maximal match-run of every period >= min_period that could beat the
    best so far, by direct comparison of letters.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    r = c.threshold
    best = None
    for best in _naive_wins(w.letters, c.min_period, r.numerator, r.denominator, c.mode is Mode.STRICT):
        pass
    return None if best is None else Occurrence(*best)


def _naive_wins(letters, min_period: int, num: int, den: int, strict: bool):
    """The naive scan of a letter sequence against the threshold num/den
    (exceeded under `strict`, met otherwise) at periods >= min_period.

    Yields, in (period, start) order, each violating maximal match-run that
    beats the best so far (a larger exponent, or an equal one with a
    smaller (start, period)), as a (start, period, length) tuple.  The first
    yield is some forbidden occurrence and the last the maximal one; none
    at all means the letters satisfy the constraint.  Only improvements are
    yielded, so reading to the end costs no more than keeping the best in
    the loop.

    Three skips leave every yield unchanged.  An occurrence is at most n
    letters long, so no period above n*den/num (STRICT: at or above it) can
    violate.  A run of r letters at period p wins only if r >= u.  Before
    any best, u = m, the least run with (p+m)/p meeting the threshold; once
    a best of exponent L/P exists, u = ceil(p*(L-P)/P), the least r with
    (p+r)/p >= L/P, which is at least m since L/P violates.  The best only
    grows, so the u taken when p begins holds for all of p.  Letters are
    compared only at probes: each probe is u-1 past the first index f where
    an unjudged run can start (f = 0, then one past the last mismatch), and
    a run of u or more letters from f on either covers the probe or starts
    after it.  A probe that matches is widened both ways to its maximal run
    [s, e), which is judged; a start inside [s, e) gives a strictly shorter
    occurrence of the same period, which never beats s and violates only
    when the full run does.  Then e is a mismatch (or the end), so the next
    probe is e + u.  The first yield, the one ``search.verify_certificate``
    reads, comes before any best, with u = m as the threshold alone gives.
    """
    n = len(letters)
    pmax = (n * den - strict) // num
    # u = (p*ex_num + bias) // ex_den: m = ceil(p*(num-den)/den) (STRICT:
    # floor(...) + 1), then ceil(p*(L-P)/P) from the best's excess (L-P)/P
    ex_num, ex_den, bias = num - den, den, den - 1 + strict
    best = None
    for p in range(min_period, pmax + 1):
        last = n - p
        u = (p * ex_num + bias) // ex_den
        i = u - 1
        while i < last:
            if letters[i] != letters[i + p]:
                i += u
                continue
            s = i
            while s and letters[s - 1] == letters[s - 1 + p]:
                s -= 1
            e = i + 1
            while e < last and letters[e] == letters[e + p]:
                e += 1
            length = p + (e - s)
            # violates?  length/p >= num/den  (or strictly >)
            lhs, rhs = length * den, p * num
            if lhs > rhs or (lhs == rhs and not strict):
                if best is None:
                    better = True
                else:
                    # excess (length-p)/p against the best's
                    d = (length - p) * ex_den - ex_num * p
                    better = d > 0 or (d == 0 and (s, p) < best[:2])
                if better:
                    best = s, p, length
                    ex_num, ex_den, bias = length - p, p, p - 1
                    yield best
            i = e + u


def max_exponent(w: Word, min_period: int = 1) -> DetectionReport:
    """Maximal exponent over all occurrences with period >= min_period.

    The witness is the maximal match-run attaining it (ties: smallest start,
    then smallest period).  Returns a report with max_exponent None when the
    word has no repetition at the queried periods.  The scan starts from
    exponent 1 and keeps the last run that beats the best so far.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    if min_period < 1:
        raise ValueError(f"min_period must be >= 1, got {min_period}")
    occ = None
    for occ in _wins(w, min_period, 1, 1, len(w)):
        pass
    return DetectionReport(occ)


def exists_repetition(w: Word, c: FreenessConstraint) -> Occurrence | None:
    """Some forbidden occurrence, or None.

    Agrees with naive_oracle on the SOME/NONE decision; the returned witness
    is the first qualifying maximal run in (period, start) scan order, which
    may differ from the oracle's maximal-exponent witness.  That is the
    first run the scan yields from the threshold: under GEQ a run that ties
    it wins at any start, under STRICT at none.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    s = 0 if c.mode is Mode.STRICT else len(w)
    return next(_wins(w, c.min_period, c.threshold.numerator, c.threshold.denominator, s), None)


def detect(
    w: Word,
    min_period: int = 1,
    constraint: FreenessConstraint | None = None,
) -> DetectionReport:
    """Full report: maximal exponent plus, optionally, a threshold verdict."""
    report = max_exponent(w, min_period)
    if constraint is None:
        return report
    if constraint.min_period == min_period:
        # Every threshold is > 1, so some occurrence is forbidden exactly
        # when the maximal exponent is.
        violated = report.max_exponent is not None and constraint.forbids(report.max_exponent)
    else:
        violated = exists_repetition(w, constraint) is not None
    return DetectionReport(report.witness, violated)


def violations_ending_at(w: Word, c: FreenessConstraint, pos: int) -> Occurrence | None:
    """A forbidden occurrence whose last letter sits at index pos, or None.

    If the prefix w[:pos] already satisfies the constraint, None here means
    w[:pos+1] satisfies it too: a new violation must end at the new letter.
    The occurrence of smallest period is returned, truncated to the minimal
    violating length.  This is ``ViolationKernel.first_period`` of a kernel
    built on w[:pos+1], the same check the searcher runs at every node.
    """
    if not 0 <= pos < len(w):
        raise ValueError(f"pos {pos} out of range for word of length {len(w)}")
    kernel = ViolationKernel(c, w.alphabet, _readable(w)[: pos + 1])
    p = kernel.first_period(pos)
    if not p:
        return None
    run = kernel.need[p]
    return Occurrence(pos - p - run + 1, p, p + run)


# ---------------------------------------------------------------------------
# The incremental violation kernel.
#
# A violation of period p ending at letter pos is w[pos-need[p]+1 .. pos] ==
# w[pos-p-need[p]+1 .. pos-p] with pos-p-need[p]+1 >= 0, where need[p] is the
# minimal match-run for the threshold (see the module docstring for the band
# search).  Letters are stored at a fixed width of k bytes (k = 1 up to 256
# letters) and exactly as given.

# Periods below this are checked by the direct letter loop.  A band costs one
# rfind and one slice however few periods it holds, and most short periods
# fail at their first letter, so the loop is cheaper there.  Any value >= 1
# gives the same answers.  Median wall_s of the extend benchmark at seed 0,
# six rotated runs per value (Python 3.11.7, shared 2-CPU VM): 0.439 s at 6,
# 0.436 s at 8, 0.434 s at 12, 0.461 s at 16, 0.481 s at 24, 0.596 s at 48;
# band search alone (value 1) ran 12% slower than 24 over ten alternating
# pairs at seeds 0 and 7.
_DIRECT_PERIODS = 12
# Native unsigned letter formats as (bytes per letter, memoryview format).
# The array module would do the same, but loading it adds a few hundred KiB
# of resident memory to every process that imports this module.
_FORMATS = [(memoryview(bytes(8)).cast(f).itemsize, f) for f in "BHIQ"]
_WIDEST = 256 ** _FORMATS[-1][0]


def _encode(letters, alphabet: int) -> tuple[int, str, bytearray, MutableSequence[int]]:
    """(width, fmt, buf, seq): `letters`, exactly as given (else
    ValueError), in a bytearray at the narrowest width and format that hold
    `alphabet` letters, or the widest, and the same memory viewed as integer
    letters (buf itself at one byte).  The one place a width is chosen."""
    width, fmt = next((f for f in _FORMATS if alphabet <= 256 ** f[0]), _FORMATS[-1])
    buf = bytearray(letters if width == 1 else _packed(letters, fmt))
    return width, fmt, buf, buf if width == 1 else memoryview(buf).cast(fmt)


def _packed(letters, fmt: str) -> bytes:
    """`letters` at the native size of `fmt`, as memoryview.cast reads
    them; a letter that does not fit raises ValueError."""
    try:
        return struct.pack(f"{len(letters)}{fmt}", *letters)
    except struct.error as exc:
        raise ValueError(f"letters do not fit format {fmt!r}: {exc}") from None


def _readable(w: Word):
    """w's letters for a check that only reads them: as given, or, past
    the widest format, relabelled densely (only equality matters)."""
    if w.alphabet > _WIDEST and max(w.letters, default=0) >= _WIDEST:
        ids: dict[int, int] = {}
        return [ids.setdefault(x, len(ids)) for x in w.letters]
    return w.letters


def _recurrences(buf: bytes | bytearray, k: int, end: int, h: int, lo: int, hi: int) -> list[int]:
    """The periods q in [lo, hi], ascending, at which the h letters before
    letter `end` of buf (k bytes per letter) recur q letters earlier.  The
    module's one byte search, for the kernel and the scanners' filter:
    hits not aligned to k straddle two letters and are skipped."""
    hk = h * k
    pattern = buf[(end - h) * k : end * k]
    first = (end - h - hi) * k
    stop = (end - lo) * k  # copies end at letter end - lo or before
    periods = []
    while True:
        j = buf.rfind(pattern, first if first > 0 else 0, stop)
        if j < 0:
            return periods
        stop = j + hk - 1
        if not j % k:
            periods.append(end - h - j // k)


class ViolationKernel:
    """Incremental violation check for one constraint on a word it owns.

    The word lives in a bytearray ``buf`` at ``width`` bytes per letter;
    ``seq`` views it as integer letters (``buf`` itself at one byte).  It
    holds exactly the letters its callers give: ``write`` overwrites a span
    inside the word and ``seq[i] = x`` one letter, and a letter too large
    for the width raises ValueError, as at construction.  ``need[p]`` is
    the minimal match-run that makes period p forbidden; it is computed
    once per period and grown lazily with the longest prefix checked, so
    short searches never pay for long ones.

    A band [P, 2P-1] with m = need[P] >= 2 is searched once for many
    positions.  A violation of period q in the band ending at pos has a
    match-run of at least need[q] >= m ending at pos, hence a run of at
    least h = ceil(m/2) ending at every c in [pos-(m-h), pos-1].  So a
    search of the length-h suffix ending at c = pos-1 over the whole band
    lists, ascending, every period that can violate at any of the m-h
    positions c+1 .. c+m-h; at each of them a listed period is confirmed
    by one letter and one slice of need[q] letters.  Searching at c =
    pos-1 rather than at pos keeps the search valid while the searcher
    tries other letters at pos.  A band with m = 1 serves no later
    position, so its periods are listed afresh at every position, by the
    same helper (``_recurrences``), and confirmed by the same loop.

    Call-order contract: after letters of the word change, the next call
    must be at the lowest changed position.  Each call drops the band
    searches taken at or after its position, so every one kept read only
    letters before it, which have not changed.  The searcher calls at the
    position it just rewrote (a sibling or a backtrack), and the sampler
    resumes its scan at the start of the span it resampled.

    ``lowest_start`` gives the sampler's bad event once ``first_period``
    has found the smallest violating period p at pos: the (start, period,
    length) of the violating full match-run ending at pos that starts
    lowest, ties by smallest period.  It is exact because need is
    non-decreasing in the period: every violating q >= p has a run of at
    least need[p] ending at pos, so one search for that suffix lists q.
    It keeps no state and reads only letters up to pos.
    """

    def __init__(self, c: FreenessConstraint, alphabet: int, letters) -> None:
        self.min_period = c.min_period
        self.num = c.threshold.numerator
        self.den = c.threshold.denominator
        self.strict = c.mode is Mode.STRICT
        self.width, self._fmt, self.buf, self.seq = _encode(letters, alphabet)
        self.need = [0]  # need[0] is unused
        # band start P -> [c, last position served, periods found at c]
        self._marks: dict[int, list] = {}
        self._top = -1  # every kept band search has c <= _top

    def write(self, start: int, letters: list[int]) -> None:
        """Overwrite the word from index `start` on; call next at `start`.
        The span must lie inside the word, else ValueError."""
        k, n = self.width, len(letters)
        if not 0 <= start <= start + n <= len(self.seq):
            raise ValueError(f"span [{start}, {start + n}) outside the word's {len(self.seq)} letters")
        self.buf[start * k : (start + n) * k] = letters if k == 1 else _packed(letters, self._fmt)

    def _grow(self, pmax: int) -> None:
        need = self.need
        num, den, strict = self.num, self.den, self.strict
        for p in range(len(need), max(pmax + 1, 2 * len(need))):
            need.append(_required_run(p, num, den, strict))

    def first_period(self, pos: int) -> int:
        """Smallest period of a forbidden occurrence ending at letter pos of
        the kernel's word (letters after pos are ignored), or 0.  The
        occurrence is the factor of length p + need[p] ending at pos.
        Letters before pos must be those of the previous calls (see the
        class docstring)."""
        if pos <= self._top:
            for mark in self._marks.values():
                if mark[0] >= pos:
                    mark[1] = -1
            self._top = pos - 1
        # p + need[p] <= pos + 1 implies p * r <= pos + 1, so pmax <= pos.
        pmax = (pos + 1) * self.den // self.num
        p = self.min_period
        if pmax < p:
            return 0
        need, seq = self.need, self.seq
        if pmax >= len(need):
            self._grow(pmax)
        top = pmax if pmax < _DIRECT_PERIODS else _DIRECT_PERIODS - 1
        last = seq[pos]
        while p <= top:
            if seq[pos - p] == last:
                m = need[p]
                run = 1
                i = pos - p - 1
                while run < m and i >= 0 and seq[i] == seq[i + p]:
                    run += 1
                    i -= 1
                if run >= m:
                    return p
            p += 1
        k, buf = self.width, self.buf
        end = (pos + 1) * k
        marks = self._marks
        while p <= pmax:
            m = need[p]
            if p + m > pos + 1:
                return 0  # p + need[p] only grows with p
            if m > 1:
                mark = marks.get(p)
                if mark is None or mark[1] < pos:
                    # the length-h suffix ending at c = pos-1 serves pos .. c+m-h
                    h = (m + 1) // 2
                    mark = marks[p] = [pos - 1, pos - 1 + m - h, _recurrences(buf, k, pos, h, p, 2 * p - 1)]
                    self._top = pos - 1
                periods = mark[2]
            else:
                periods = _recurrences(buf, k, pos + 1, 1, p, 2 * p - 1)
            for q in periods:
                if q > pmax:
                    break
                n = need[q]
                if q + n > pos + 1:
                    break  # q + need[q] only grows with q
                if seq[pos - q] == last and buf[end - n * k : end] == buf[end - (q + n) * k : end - q * k]:
                    return q
            p *= 2
        return 0

    def lowest_start(self, pos: int, p: int) -> tuple[int, int, int]:
        """(start, period, length) of the sampler's bad event at pos (see
        the class docstring); p must be ``first_period``'s nonzero answer
        at pos.  ``_recurrences`` of the length-need[p] suffix lists the
        candidate periods ascending, each run is walked back from the
        letter before the known match, and a strict < keeps the smallest
        period on a tie."""
        need, seq = self.need, self.seq
        m = need[p]
        start, period, length = pos, 0, 0
        for q in _recurrences(self.buf, self.width, pos + 1, m, p, (pos + 1) * self.den // self.num):
            i = pos - q - m
            while i >= 0 and seq[i] == seq[i + q]:
                i -= 1
            run = pos - q - i
            if run >= need[q] and i + 1 < start:
                start, period, length = i + 1, q, q + run
        return start, period, length


# ---------------------------------------------------------------------------
# The whole-word scanners.
#
# The word is packed as for the kernel, k bytes per letter, and read as one
# little-endian integer x.  For shift p, x ^ (x >> 8kp) has an all-zero lane
# exactly where w[i] == w[i+p]; maximal zero blocks are the match-runs.  For
# k > 1 each lane is OR-folded into its lowest byte and only that byte is
# kept, so the match vector has one byte per position and bytes.find
# locates a block of `need` zeros in C.

# A band is scanned period by period, without the filter, when h times the
# number of periods in the band times k is below this.  The filter costs
# about n/h finds and the full scan of the band one pass over n*k bytes per
# period, so which is cheaper depends on that product, not on n.  Any value
# >= 1 gives the same answers.  Median wall_s of the scan benchmark at seed
# 0 (Python 3.11.7, shared 2-CPU VM), five rotated runs per rule: 0.822 s
# at 1024, 0.832 s at 2048, 0.876 s for the rule "h < 8" alone; four
# rotated runs per rule "h < 1 (always filtered), 4, 8, 16, 32" gave 1.021,
# 0.896, 0.875, 0.905 and 0.947 s.
_FILTER_MIN_WORK = 1024


def _pack(w: Word) -> tuple[int, bytes, int]:
    """(k, buf, x): bytes per letter, the packed word, and its integer image."""
    k, _, buf, _ = _encode(_readable(w), w.alphabet)
    return k, bytes(buf), int.from_bytes(buf, "little")


def _period_floor(letters, min_period: int) -> int:
    """max(min_period, d), d the least distance between two equal letters
    (len(letters) when all differ): no shorter period has a single match.
    The pass stops as soon as d <= min_period."""
    d = len(letters)
    last: dict = {}
    for i, x in enumerate(letters):
        j = last.get(x)
        if j is not None and i - j < d:
            d = i - j
            if d <= min_period:
                return min_period
        last[x] = i
    return max(d, min_period)


def _match_vector(x: int, n: int, k: int, p: int) -> bytes:
    """One byte per position i < n - p, zero exactly where w[i] == w[i+p]."""
    z = x ^ (x >> (8 * k * p))
    shift = 8
    while shift < 8 * k:
        z |= z >> shift
        shift *= 2
    return z.to_bytes(n * k, "little")[: (n - p) * k : k]


def _candidate_periods(buf: bytes, k: int, lo: int, hi: int, need: int):
    """The periods in [lo, hi], ascending, that may carry a run of at least
    `need` matches; the others cannot.

    The later copy of such a run at shift p holds an aligned block [c, c+h)
    with h = ceil(need/2) and c a multiple of h, and that block recurs p
    letters earlier, so ``_recurrences`` of the blocks with c >= lo names
    every candidate period.
    """
    h = (need + 1) // 2
    if h * (hi - lo + 1) * k < _FILTER_MIN_WORK:
        return range(lo, hi + 1)
    found: set[int] = set()
    for end in range((lo + h - 1) // h * h + h, len(buf) // k + 1, h):
        found.update(_recurrences(buf, k, end, h, lo, hi))
        if len(found) > hi - lo:
            break  # every period of the band is a candidate
    return sorted(found)


def _wins(w: Word, min_period: int, num: int, den: int, s: int):
    """Each maximal match-run of period >= min_period that beats the best so
    far, as an Occurrence, in (period, start) order (see the module
    docstring).  The best starts at exponent num/den and start s; a run of
    the same exponent beats it only when it starts before s, and each run
    yielded becomes the best.  When no tying block starts below s, no run
    that starts there is long enough to hold a strictly better block, so
    every hit starts a maximal run.  After a win at start i the rest of the
    period starts past i, so only strictly longer runs win again there, and
    the rest of the band is filtered again with the need of the new best.
    """
    n = len(w)
    k, buf, x = _pack(w)
    pmax = min(n - 1, n * den // num)
    lo = _period_floor(w.letters, min_period)
    while lo <= pmax:
        hi = min(2 * lo - 1, pmax)
        while lo <= hi:
            won = 0
            # with s = 0 no tie wins, so a run must be strictly better
            for p in _candidate_periods(buf, k, lo, hi, _required_run(lo, num, den, not s)):
                limit = n - p
                need = _required_run(p, num, den, not s)
                if need > limit:
                    continue
                z = _match_vector(x, n, k, p)
                # the end bound keeps a tying block's start below s
                i = z.find(b"\x00" * need, 0, s + need - 1)
                if i < 0:
                    need = _required_run(p, num, den, True)
                    i = z.find(b"\x00" * need, s)
                while i >= 0:
                    j = i + need
                    while j < limit and not z[j]:
                        j += 1
                    num, den, s = p + j - i, p, i
                    yield Occurrence(i, p, num)
                    need = j - i + 1  # the rest of p starts past i: only longer runs win
                    i = z.find(b"\x00" * need, j + 1)
                    won = p
                if won:
                    break  # the rest of the band is filtered again with the new need
            lo = won + 1 if won else hi + 1
