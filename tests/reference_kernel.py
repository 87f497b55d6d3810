"""Reference implementations of the incremental violation check: the plain
per-period backward walk that the searcher and ``violations_ending_at``
used before the shared ``ViolationKernel``, and the sampler's rescan from
position 0 after every resample.  Tests hold the kernel equal to the first,
certificate field by certificate field, and the sampler equal to the
second, trace by trace."""

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
