"""Repetition detection: find fractional powers with period >= l whose
exponent meets a threshold.

Two independent routes are kept deliberately separate:

* ``naive_oracle`` tries every (start, period) pair by direct letter
  comparison.  It is the ground truth and stays dumb on purpose.
* ``exists_repetition`` / ``max_exponent`` scan match-runs per period
  (for each shift p, the maximal blocks where w[i] == w[i+p]; a block of
  length len gives the occurrence (i, p, p+len)).  One scanner pair serves
  every alphabet: the word is packed at 1, 2, 4 or 8 bytes per letter, as
  for the kernel below, the match vector of a period is one big-integer
  XOR with each letter's lane folded to one byte, and runs are located
  with C-level byte searches.

  Periods go in doubling bands [P, 2P-1], and only candidate periods are
  scanned.  A run of at least ``need`` matches at shift p contains an
  aligned block [c, c+h), h = ceil(need/2), c a multiple of h, and that
  block recurs p letters later; so ``bytes.find`` of each aligned block
  over [c+P, c+2P-1+h) lists in C every period of the band that can carry
  such a run.  The filter is exact because the ``need`` taken at the
  band's first period bounds the whole band: for ``exists_repetition``
  need is non-decreasing in p, and for ``max_exponent`` it only grows as
  the best exponent so far grows.  Each candidate is scanned in full, so
  the witnesses and their tie rules are those of a scan of every period.
  The worst case is still quadratic: the filter only skips periods that
  cannot carry a long enough run.

``ViolationKernel`` is the one incremental check, used by the backtracking
searcher and by ``violations_ending_at``: when a word grows by one letter,
any new violation must end at that letter.  It keeps the minimal violating
run ``need[p]`` per period (grown lazily with the word) and the prefix as a
byte buffer.  Periods below ``_DIRECT_PERIODS`` are compared letter by
letter; larger ones go in doubling bands [p, 2p-1].  Since need is
non-decreasing in p, a violation at any period p' of the band needs the
suffix of length need[p] to recur exactly p' letters earlier, so
``bytearray.rfind`` lists every candidate period in C, ascending, and one
slice comparison of length need[p'] confirms each.  The answer is exactly
the smallest violating period that a letter-by-letter walk would find.

Apart from the kernel's ``need`` table, nothing is cached across calls.
"""

from __future__ import annotations

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
    "min_repeat_distance",
    "detect",
]


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a detection pass over one word.

    ``max_exponent`` is None exactly when no occurrence with exponent > 1
    and period >= the queried minimum exists (every word trivially has
    exponent 1, which is never reported).  ``constraint_violated`` is only
    meaningful when the caller supplied a threshold.
    """

    max_exponent: Fraction | None
    witness: Occurrence | None
    constraint_violated: bool = False

    def to_jsonable(self) -> dict:
        return {
            "max_exponent": fraction_json(self.max_exponent),
            "witness": _occurrence_json(self.witness),
            "constraint_violated": self.constraint_violated,
        }


def _occurrence_json(occ: Occurrence | None) -> dict | None:
    if occ is None:
        return None
    return {"start": occ.start, "period": occ.period, "length": occ.length}


def _required_run(p: int, num: int, den: int, strict: bool) -> int:
    """Minimal match-run length so that (p+run)/p meets num/den."""
    if strict:
        return p * (num - den) // den + 1
    need = (p * (num - den) + den - 1) // den
    return need if need > 0 else 1


def naive_oracle(w: Word, c: FreenessConstraint) -> Occurrence | None:
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


def max_exponent(w: Word, min_period: int = 1) -> DetectionReport:
    """Maximal exponent over all occurrences with period >= min_period.

    The witness is the maximal match-run attaining it (ties: smallest start,
    then smallest period).  Returns a report with max_exponent None when the
    word has no repetition at the queried periods.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    if min_period < 1:
        raise ValueError(f"min_period must be >= 1, got {min_period}")
    n = len(w)
    k, buf, x = _pack(w)
    best = None  # (start, period, length)
    best_num, best_den = 1, 1  # current maximum as length/period
    lo = min_period
    while lo < n:
        hi = min(2 * lo - 1, n - 1)
        # need only grows with the maximum, so need at lo bounds the band
        need = _required_run(lo, best_num, best_den, False)
        for p in _candidate_periods(buf, k, lo, hi, need):
            limit = n - p
            # only runs at least as good as the current best are interesting
            need = _required_run(p, best_num, best_den, False)
            if need > limit:
                continue
            z = _match_vector(x, n, k, p)
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
                if d > 0 or (d == 0 and (best is None or (i, p) < (best[0], best[1]))):
                    best = (i, p, p + run)
                    best_num, best_den = p + run, p
                    need = _required_run(p, best_num, best_den, False)
                    if need > limit:
                        break
                    block = b"\x00" * need
                pos = j + 1
        lo = hi + 1
    if best is None:
        return DetectionReport(None, None)
    occ = Occurrence(*best)
    return DetectionReport(occ.exponent, occ)


def exists_repetition(w: Word, c: FreenessConstraint) -> Occurrence | None:
    """Some forbidden occurrence, or None.

    Agrees with naive_oracle on the SOME/NONE decision; the returned witness
    is the first qualifying maximal run in (period, start) scan order, which
    may differ from the oracle's maximal-exponent witness.
    """
    if len(w) < 1:
        raise ValueError("word must be non-empty")
    n = len(w)
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    k, buf, x = _pack(w)
    pmax = min(n - 1, n * den // num)
    lo = c.min_period
    while lo <= pmax:
        hi = min(2 * lo - 1, pmax)
        # need is non-decreasing in p, so need at lo bounds the band
        for p in _candidate_periods(buf, k, lo, hi, _required_run(lo, num, den, strict)):
            limit = n - p
            need = _required_run(p, num, den, strict)
            if need > limit:
                continue
            z = _match_vector(x, n, k, p)
            i = z.find(b"\x00" * need)
            if i < 0:
                continue
            j = i + need
            while j < limit and not z[j]:
                j += 1
            return Occurrence(i, p, p + (j - i))
        lo = hi + 1
    return None


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
    return DetectionReport(report.max_exponent, report.witness, violated)


def violations_ending_at(w: Word, c: FreenessConstraint, pos: int) -> Occurrence | None:
    """A forbidden occurrence whose last letter sits at index pos, or None.

    If the prefix w[:pos] already satisfies the constraint, None here means
    w[:pos+1] satisfies it too: a new violation must end at the new letter.
    The occurrence of smallest period is returned, truncated to the minimal
    violating length.  This is ``ViolationKernel.first_period`` on a fresh
    buffer, the same check the searcher runs at every node.
    """
    if not 0 <= pos < len(w):
        raise ValueError(f"pos {pos} out of range for word of length {len(w)}")
    kernel = ViolationKernel(c, w.alphabet)
    buf, seq = kernel.encode(w.letters[: pos + 1])
    p = kernel.first_period(buf, seq, pos)
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
# letters); rfind hits not aligned to k straddle two letters and are skipped.

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


def _letter_format(alphabet: int) -> tuple[int, str]:
    """(bytes per letter, memoryview format) of the narrowest format that
    holds `alphabet` letters, or the widest one."""
    return next((fmt for fmt in _FORMATS if alphabet <= 256 ** fmt[0]), _FORMATS[-1])


def _encode(letters, alphabet: int) -> tuple[bytearray, MutableSequence[int]]:
    """(buf, seq): `letters` in a bytearray at the width `_letter_format`
    picks, and the same memory viewed as integer letters (buf itself for
    one-byte letters).  Alphabets too large for the widest format are
    relabelled densely, since only letter equality matters."""
    width, fmt = _letter_format(alphabet)
    if alphabet > 256 ** width:
        ids: dict[int, int] = {}
        letters = [ids.setdefault(x, len(ids)) for x in letters]
    if width == 1:
        buf = bytearray(letters)
        return buf, buf
    buf = bytearray(len(letters) * width)
    seq = memoryview(buf).cast(fmt)
    for i, x in enumerate(letters):
        seq[i] = x
    return buf, seq


class ViolationKernel:
    """Incremental violation check for one constraint on a growing word.

    The word lives in a bytearray ``buf`` at a fixed width of ``width``
    bytes per letter; ``seq`` views the same memory as integer letters (it
    is ``buf`` itself for one-byte letters).  ``need[p]`` is the minimal
    match-run that makes period p forbidden; it is computed once per period
    and grown lazily with the longest prefix checked, so short searches
    never pay for long ones.
    """

    def __init__(self, c: FreenessConstraint, alphabet: int) -> None:
        self.min_period = c.min_period
        self.num = c.threshold.numerator
        self.den = c.threshold.denominator
        self.strict = c.mode is Mode.STRICT
        self.alphabet = alphabet
        self.width = _letter_format(alphabet)[0]
        self.need = [0]  # need[0] is unused

    def encode(self, letters) -> tuple[bytearray, MutableSequence[int]]:
        """(buf, seq) holding `letters`; write further letters through seq."""
        return _encode(letters, self.alphabet)

    def _grow(self, pmax: int) -> None:
        need = self.need
        num, den, strict = self.num, self.den, self.strict
        for p in range(len(need), max(pmax + 1, 2 * len(need))):
            need.append(_required_run(p, num, den, strict))

    def first_period(self, buf: bytearray, seq: MutableSequence[int], pos: int) -> int:
        """Smallest period of a forbidden occurrence ending at letter pos of
        the word in buf (letters after pos are ignored), or 0.  The
        occurrence is the factor of length p + need[p] ending at pos."""
        # p + need[p] <= pos + 1 implies p * r <= pos + 1.
        pmax = (pos + 1) * self.den // self.num
        if pmax > pos:
            pmax = pos
        p = self.min_period
        if pmax < p:
            return 0
        need = self.need
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
        k = self.width
        end = (pos + 1) * k
        while p <= pmax:
            hi = 2 * p - 1 if 2 * p - 1 < pmax else pmax
            m = need[p]
            if p + m > pos + 1:
                return 0  # p + need[p] only grows with p
            mk = m * k
            pattern = buf[end - mk : end]
            first = (pos + 1 - hi - m) * k
            stop = end - p * k  # copies end at letter pos - p or before
            while True:
                j = buf.rfind(pattern, first if first > 0 else 0, stop)
                if j < 0:
                    break
                stop = j + mk - 1
                if j % k:
                    continue
                q = (end - mk - j) // k
                n = need[q]
                if q + n <= pos + 1 and buf[end - n * k : end] == buf[end - (q + n) * k : end - q * k]:
                    return q
            p = hi + 1
        return 0


def min_repeat_distance(w: Word, n: int) -> int | None:
    """Minimal start-index distance between two occurrences of the same
    length-n factor, or None when every length-n factor occurs once."""
    if not 1 <= n <= len(w):
        raise ValueError(f"factor length {n} out of range for word of length {len(w)}")
    if w.alphabet <= 256:
        data: bytes | tuple = bytes(w.letters)
    else:
        data = w.letters
    last: dict = {}
    best: int | None = None
    for i in range(len(w) - n + 1):
        f = data[i : i + n]
        j = last.get(f)
        if j is not None and (best is None or i - j < best):
            best = i - j
        last[f] = i
    return best


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
    buf = bytes(_encode(w.letters, w.alphabet)[0])
    return _letter_format(w.alphabet)[0], buf, int.from_bytes(buf, "little")


def _match_vector(x: int, n: int, k: int, p: int) -> bytes:
    """One byte per position i < n - p, zero exactly where w[i] == w[i+p]."""
    z = x ^ (x >> (8 * k * p))
    if k == 1:
        return z.to_bytes(n, "little")[: n - p]
    shift = 8
    while shift < 8 * k:
        z |= z >> shift
        shift *= 2
    return z.to_bytes(n * k, "little")[: (n - p) * k : k]


def _candidate_periods(buf: bytes, k: int, lo: int, hi: int, need: int):
    """The periods in [lo, hi], ascending, that may carry a run of at least
    `need` matches; the others cannot.

    Such a run at shift p contains an aligned block [c, c+h) with h =
    ceil(need/2) and c a multiple of h, and that block recurs at c+p.  So
    each aligned block is searched for within [c+lo, c+hi+h), and its
    copies there, aligned to whole letters, name every candidate period.
    """
    h = (need + 1) // 2
    if h * (hi - lo + 1) * k < _FILTER_MIN_WORK:
        return range(lo, hi + 1)
    n = len(buf) // k
    hk = h * k
    found: set[int] = set()
    for c in range(0, n - lo - h + 1, h):
        start = c * k
        block = buf[start : start + hk]
        stop = min(c + hi + h, n) * k
        j = buf.find(block, start + lo * k, stop)
        while j >= 0:
            if not j % k:
                found.add(j // k - c)
            j = buf.find(block, j + 1, stop)
        if len(found) > hi - lo:
            break  # every period of the band is a candidate
    return sorted(found)
