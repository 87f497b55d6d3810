"""Reference implementations of the incremental violation check: the plain
per-period backward walk that the searcher and ``violations_ending_at``
used before the shared ``ViolationKernel``, and the sampler's rescan from
position 0 after every resample.  Tests hold the kernel equal to the first,
certificate field by certificate field, and the sampler equal to the
second, trace by trace.

Also the detectors' former whole-word scanners, which visit every period: a
byte-packed pair for alphabets up to 256 and a letter-by-letter pair above.
Tests hold ``max_exponent`` and ``exists_repetition`` equal to them,
witnesses included."""

from __future__ import annotations

from typing import Sequence

from repthresh import FreenessConstraint, Mode, Occurrence, SamplerConfig, SplitMix64, Word


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


def ref_first_violation(
    letters: Sequence[int], l: int, num: int, den: int, strict: bool
) -> Occurrence | None:
    """The sampler's bad event by a rescan from position 0: the forbidden
    occurrence with minimal end position, ties by start, then period,
    spanning the full maximal match-run ending there."""
    n = len(letters)
    for pos in range(n):
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
        if best is not None:
            return Occurrence(*best)
    return None


def ref_run_sampler(alphabet_size: int, c: FreenessConstraint, config: SamplerConfig):
    """(word or None, resample_count, histogram, trace) of the Moser-Tardos
    run that ``sample_free_word`` and ``resample_trace`` perform, rescanning
    the whole word after every resample."""
    num = c.threshold.numerator
    den = c.threshold.denominator
    strict = c.mode is Mode.STRICT
    rng = SplitMix64(config.seed)
    letters = [rng.letter(alphabet_size) for _ in range(config.target_length)]
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
            letters[i] = rng.letter(alphabet_size)


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
