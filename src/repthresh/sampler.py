"""Moser-Tardos resampling: draw a random word, then repeatedly redraw the
letters of the first forbidden occurrence until none remains.

Randomness comes from a splitmix64 stream (the 2014 Steele-Lea-Flood mixer)
so that runs are reproducible bit-for-bit across platforms and Python
versions.  Stream discipline, frozen as part of the contract:

* one 64-bit draw per letter, reduced modulo the alphabet size, so the
  alphabet is at most 2**64 (a larger one raises ValueError);
* the initial word draws positions 0..n-1 in order;
* each resample redraws the letters of its occurrence span left to right.

The discipline holds although letters are drawn ahead of use.  A run
reads them in order from one stream that ``SplitMix64.next_block`` feeds
with whole blocks of draws, computed together but each equal to the
next_uint64 call it stands for (draw i after state s mixes
s + (i+1)*gamma).  So the k-th letter a run uses is still the k-th draw of
its stream, whatever the block size.  The draws left in the stream when a
run ends go unused, and the generator belongs to the run, so no caller
sees them.

Bad-event selection is deterministic too: the forbidden occurrence with the
lowest end position, ties broken by lowest start, then lowest period; the
occurrence spans the full maximal match-run ending there.  Convergence is
empirical (bounded by max_resamples) - no attempt is made to verify the
local-lemma preconditions.

Violations are found with ``detect.ViolationKernel.first_period``, the
searcher's check, on the kernel's own word; ``ViolationKernel.write``
overwrites each resampled span.  After a resample of [s, e) the scan
resumes at s, not at 0, and this is exact: the event just resampled had
the lowest end position, so no violation ended earlier, and an
occurrence ending before s reads only letters before s, which the
resample left unchanged.

The bad event at that end position comes from
``ViolationKernel.lowest_start``, given the smallest violating period p.
It returns (start, period, length) of the lowest-starting full run, ties
by period, from one byte search for the shortest run of p: every larger
violating period needs a run at least as long, so none is missed.  An
``Occurrence`` is built only for the trace.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

from .detect import ViolationKernel
from .words import FreenessConstraint, Occurrence, Word, render_word

__all__ = [
    "SplitMix64",
    "SamplerConfig",
    "SamplerReport",
    "sample_free_word",
    "resample_trace",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Draws per block of next_block, one 128-bit lane each.  Any value >= 1
# gives the same draws.  Median wall_s of the sample benchmark at seed 0,
# four rotated runs per value (Python 3.11.7, shared 2-CPU VM): 0.424 s at
# 64, 0.410 s at 128, 0.415 s at 256, 0.415 s at 512.  From 128 up the
# runs of one value spread wider than the values differ, and a larger
# block leaves more unused draws at the end of each short run.
_BLOCK = 256


@cache
def _lanes(k: int) -> tuple[int, int, int, struct.Struct]:
    """Constants for k lanes of 128 bits, lane i at bits 128i..128i+127:
    1 in every lane, (i+1)*gamma in lane i, 2**64-1 in every lane, and a
    Struct that reads the low 64 bits of each lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    ramp = sum(((i + 1) * _GAMMA) << (128 * i) for i in range(k))
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * k, "little")
    return ones, ramp, mask, struct.Struct("<" + "Q8x" * k)


class SplitMix64:
    """Seedable 64-bit generator; the sampler's letters are its draws mod
    the alphabet size."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1E4A7FBB) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_block(self, k: int) -> list[int]:
        """The next k draws, as k calls of next_uint64 would return them,
        computed _BLOCK at a time on one integer with a lane per draw.  A
        product of two 64-bit numbers fits in its 128-bit lane, and masking
        every lane to 64 bits after each step drops what a right shift
        pulls in from the lane above.  k = 0 draws nothing; a negative k
        raises ValueError rather than move the state back."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        ones, ramp, mask, lanes = _lanes(_BLOCK)
        out: list[int] = []
        for i in range(0, k, _BLOCK):
            # lane j: the state of draw i+j, self.state + (i+j+1)*gamma
            z = (((self.state + i * _GAMMA) & _MASK64) * ones + ramp) & mask
            z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1E4A7FBB & mask
            z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
            z ^= z >> 31  # the Struct reads only the low 64 bits of a lane
            out += lanes.unpack(z.to_bytes(16 * _BLOCK, "little"))
        del out[k:]  # the last block may run past draw k
        self.state = (self.state + k * _GAMMA) & _MASK64
        return out


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    max_resamples: int
    target_length: int

    def __post_init__(self) -> None:
        for name in ("seed", "max_resamples", "target_length"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        # SplitMix64 reduces its seed mod 2**64; a seed outside that range
        # would be recorded as given but run the stream of another.
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")
        if self.max_resamples < 1:
            raise ValueError(f"max_resamples must be >= 1, got {self.max_resamples}")
        if self.target_length < 1:
            raise ValueError(f"target_length must be >= 1, got {self.target_length}")


@dataclass(frozen=True)
class SamplerReport:
    """result is None on non-convergence.  violations_histogram counts
    resampled occurrences by period."""

    result: Word | None
    resample_count: int
    violations_histogram: dict[int, int]
    seed: int

    @property
    def converged(self) -> bool:
        return self.result is not None

    def to_jsonable(self) -> dict:
        return {
            "result": None if self.result is None else render_word(self.result),
            "resamples": self.resample_count,
            "histogram": {str(p): c for p, c in sorted(self.violations_histogram.items())},
            "seed": self.seed,
        }


def _run_sampler(
    alphabet_size: int,
    constraint: FreenessConstraint,
    config: SamplerConfig,
    record_trace: bool,
) -> tuple[SamplerReport, list[tuple[Occurrence, int]]]:
    # One 64-bit draw per letter reaches no letter at or above 2**64.
    if not 2 <= alphabet_size <= 1 << 64:
        raise ValueError(
            f"alphabet size must be in 2..2**64 for sampling, got {alphabet_size}"
        )
    rng = SplitMix64(config.seed)
    # The letter stream, drawn a block at a time and consumed in C.
    stream = chain.from_iterable(
        iter(lambda: [x % alphabet_size for x in rng.next_block(_BLOCK)], None)
    )

    def take(m: int) -> list[int]:
        """The next m letters of the stream."""
        return list(islice(stream, m))

    n = config.target_length
    kernel = ViolationKernel(constraint, alphabet_size, take(n))
    histogram: dict[int, int] = {}
    trace: list[tuple[Occurrence, int]] = []
    count = lo = 0
    while True:
        for pos in range(lo, n):
            p = kernel.first_period(pos)
            if p:
                break
        else:
            word = Word(alphabet_size, kernel.seq)
            return SamplerReport(word, count, histogram, config.seed), trace
        if count >= config.max_resamples:
            return SamplerReport(None, count, histogram, config.seed), trace
        start, period, length = kernel.lowest_start(pos, p)
        count += 1
        histogram[period] = histogram.get(period, 0) + 1
        if record_trace:
            trace.append((Occurrence(start, period, length), count))
        kernel.write(start, take(length))
        # Exact: no violation ended before pos, and the letters before
        # start are unchanged, so none ends before start now.
        lo = start


def sample_free_word(
    alphabet_size: int,
    constraint: FreenessConstraint,
    config: SamplerConfig,
) -> SamplerReport:
    """Sample a word of config.target_length satisfying the constraint.

    Deterministic: identical arguments give an identical report.  Returns a
    non-convergence report (result None) after max_resamples steps; in
    particular this is guaranteed whenever no satisfying word of that length
    exists at all.
    """
    report, _ = _run_sampler(alphabet_size, constraint, config, record_trace=False)
    return report


def resample_trace(
    alphabet_size: int,
    constraint: FreenessConstraint,
    config: SamplerConfig,
) -> list[tuple[Occurrence, int]]:
    """The resampled occurrences of the sample_free_word run with the same
    arguments, in order, paired with their 1-based step index.

    Replaying the trace against a fresh letter stream (initial draw, then
    redraw each logged span in order) reproduces the run's final word.
    """
    _, trace = _run_sampler(alphabet_size, constraint, config, record_trace=True)
    return trace
