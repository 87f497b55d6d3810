import json
from fractions import Fraction

import pytest

from repthresh import (
    FreenessConstraint,
    Mode,
    Outcome,
    SamplerConfig,
    SplitMix64,
    Word,
    extend_search,
    naive_oracle,
    resample_trace,
    sample_free_word,
)
from repthresh import sampler
from reference_kernel import ref_letter, ref_run_sampler


def geq(l, num, den=1):
    return FreenessConstraint(l, Fraction(num, den), Mode.GEQ)


def test_splitmix64_reference_values():
    # checked against the reference C implementation of the mixer
    g = SplitMix64(0)
    assert [g.next_uint64() for _ in range(3)] == [
        0x8073412D6D75A96F,
        0x784B5E897CE05694,
        0x1BB7416AD5F60147,
    ]
    g = SplitMix64(1234567)
    assert [g.next_uint64() for _ in range(3)] == [
        4496171313921788907,
        10893884987945866570,
        2140661796675057799,
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 1000])
def test_next_block_matches_next_uint64(seed, k):
    block, single = SplitMix64(seed), SplitMix64(seed)
    assert block.next_block(k) == [single.next_uint64() for _ in range(k)]
    assert block.state == single.state
    assert block.next_uint64() == single.next_uint64()


def test_next_block_of_zero_draws_nothing():
    block, single = SplitMix64(5), SplitMix64(5)
    assert block.next_uint64() == single.next_uint64()
    assert block.next_block(0) == []
    assert block.state == single.state
    assert block.next_uint64() == single.next_uint64()


def test_next_block_rejects_negative_k():
    # a negative k used to return [] and move the state back |k| draws,
    # so the next draw repeated an earlier one
    g = SplitMix64(5)
    g.next_uint64()
    state = g.state
    for k in (-1, -257):
        with pytest.raises(ValueError, match="k must be >= 0"):
            g.next_block(k)
        assert g.state == state


def test_sampler_converges_and_is_sound():
    report = sample_free_word(2, geq(3, 2), SamplerConfig(1, 10**6, 100))
    assert report.converged
    assert len(report.result) == 100
    assert naive_oracle(report.result, geq(3, 2)) is None


def test_sampler_avoids_cubes_over_four_letters():
    report = sample_free_word(4, geq(1, 3), SamplerConfig(7, 10**6, 50))
    assert report.converged
    assert len(report.result) == 50
    assert naive_oracle(report.result, geq(1, 3)) is None


def test_sampler_soundness_across_seeds():
    for seed in range(5):
        report = sample_free_word(3, geq(2, 7, 4), SamplerConfig(seed, 10**5, 60))
        if report.result is not None:
            assert naive_oracle(report.result, geq(2, 7, 4)) is None


def test_sampler_strict_mode():
    c = FreenessConstraint(1, Fraction(2), Mode.STRICT)
    report = sample_free_word(3, c, SamplerConfig(0, 10**5, 40))
    assert report.converged
    assert naive_oracle(report.result, c) is None


def test_sampler_nonconvergence_matches_search():
    # binary square-free words stop at length 3, so length 10 cannot converge
    cert = extend_search(2, geq(1, 2), 10)
    assert cert.outcome is Outcome.EXHAUSTED and cert.max_depth == 3
    report = sample_free_word(2, geq(1, 2), SamplerConfig(1, 10**4, 10))
    assert not report.converged
    assert report.result is None
    assert report.resample_count == 10**4


def test_sampler_determinism():
    cfg = SamplerConfig(1, 10**5, 80)
    r1 = sample_free_word(2, geq(3, 2), cfg)
    r2 = sample_free_word(2, geq(3, 2), cfg)
    assert r1 == r2
    assert json.dumps(r1.to_jsonable(), sort_keys=True) == json.dumps(
        r2.to_jsonable(), sort_keys=True
    )


def test_histogram_accounts_for_every_resample():
    report = sample_free_word(2, geq(3, 2), SamplerConfig(5, 10**5, 60))
    assert sum(report.violations_histogram.values()) == report.resample_count
    assert all(p >= 3 for p in report.violations_histogram)


def test_trace_length_matches_resample_count():
    cfg = SamplerConfig(1, 10**5, 60)
    report = sample_free_word(2, geq(3, 2), cfg)
    trace = resample_trace(2, geq(3, 2), cfg)
    assert len(trace) == report.resample_count
    assert [step for _, step in trace] == list(range(1, len(trace) + 1))


def test_trace_empty_when_initial_word_clean():
    # over 64 letters a length-8 word is almost surely repeat-free; seed 3 is
    cfg = SamplerConfig(3, 100, 8)
    report = sample_free_word(64, geq(1, 2), cfg)
    assert report.converged and report.resample_count == 0
    assert resample_trace(64, geq(1, 2), cfg) == []


def _replay(alphabet_size, cfg, trace):
    """Independent replay: initial draw, then redraw each logged span."""
    rng = SplitMix64(cfg.seed)
    letters = [ref_letter(rng, alphabet_size) for _ in range(cfg.target_length)]
    states = [list(letters)]
    for occ, _step in trace:
        for i in range(occ.start, occ.end):
            letters[i] = ref_letter(rng, alphabet_size)
        states.append(list(letters))
    return letters, states


def test_trace_replay_reproduces_word():
    cfg = SamplerConfig(1, 10**6, 100)
    c = geq(3, 2)
    report = sample_free_word(2, c, cfg)
    trace = resample_trace(2, c, cfg)
    final, _ = _replay(2, cfg, trace)
    assert Word(2, tuple(final)) == report.result


def test_resample_locality():
    # each step changes letters only inside the logged occurrence span
    cfg = SamplerConfig(9, 10**5, 60)
    c = geq(3, 2)
    trace = resample_trace(2, c, cfg)
    assert trace, "need at least one resample for this check"
    _, states = _replay(2, cfg, trace)
    for (occ, _step), before, after in zip(trace, states, states[1:]):
        for i, (x, y) in enumerate(zip(before, after)):
            if x != y:
                assert occ.start <= i < occ.end


def test_sampler_rejects_unary_alphabet():
    with pytest.raises(ValueError):
        sample_free_word(1, geq(1, 2), SamplerConfig(0, 10, 5))


def test_sampler_rejects_alphabets_above_2_to_the_64():
    # a letter is one 64-bit draw mod the alphabet, so it never reaches
    # 2**64; an alphabet of exactly 2**64 reaches every letter
    cfg = SamplerConfig(0, 100, 20)
    for run in (sample_free_word, resample_trace):
        with pytest.raises(ValueError, match=r"in 2\.\.2\*\*64"):
            run(2**64 + 1, geq(1, 2), cfg)
    report = sample_free_word(2**64, geq(1, 2), cfg)
    assert report.converged and max(report.result.letters) >= 2**63


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(0, 0, 5)
    with pytest.raises(ValueError):
        SamplerConfig(0, 10, 0)
    # SplitMix64 reduces its seed mod 2**64, so only that range names a
    # stream of its own
    SamplerConfig(2**64 - 1, 10, 5)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            SamplerConfig(seed, 10, 5)


def test_report_json_shape():
    report = sample_free_word(2, geq(3, 2), SamplerConfig(1, 10**5, 40))
    doc = report.to_jsonable()
    assert set(doc) == {"result", "resamples", "histogram", "seed"}
    assert doc["seed"] == 1
    assert all(isinstance(k, str) for k in doc["histogram"])


# The sampler against the reference rescan from position 0
# (tests/reference_kernel.py): same trace, word, resample count and
# histogram.  The cap of 60 resamples keeps the non-converging cases of the
# grid (thresholds at or below the repetition threshold) short.
GRID_THRESHOLDS = [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
GRID_RUNS = [(24, 1), (64, 2), (256, 3)]  # (target length, sampler seed)


def sampler_run(a, c, cfg):
    report = sample_free_word(a, c, cfg)
    return (
        report.result,
        report.resample_count,
        report.violations_histogram,
        resample_trace(a, c, cfg),
    )


@pytest.mark.parametrize("a", [2, 3, 4, 5, 300, 2**64])
def test_sampler_matches_reference_grid(a):
    for l in range(1, 5):
        for r in GRID_THRESHOLDS:
            for mode in Mode:
                c = FreenessConstraint(l, r, mode)
                for length, seed in GRID_RUNS:
                    cfg = SamplerConfig(seed, 60, length)
                    assert sampler_run(a, c, cfg) == ref_run_sampler(a, c, cfg), (l, r, mode, length)


@pytest.mark.parametrize(
    "a, c, length",
    [
        (2, geq(3, 2), 64),  # many short-span resamples
        (3, geq(2, 7, 4), 256),  # long spans over a long word
        (4, FreenessConstraint(2, Fraction(3, 2), Mode.STRICT), 128),
        (300, FreenessConstraint(1, Fraction(5, 4), Mode.STRICT), 256),
    ],
)
def test_sampler_matches_reference_to_convergence(a, c, length):
    for seed in range(3):
        cfg = SamplerConfig(seed, 10**5, length)
        run = sampler_run(a, c, cfg)
        assert run[0] is not None
        assert run == ref_run_sampler(a, c, cfg)


def test_sampler_matches_reference_at_cap():
    # binary squares are unavoidable beyond length 3: every run hits the cap
    cfg = SamplerConfig(1, 2000, 10)
    run = sampler_run(2, geq(1, 2), cfg)
    assert run[0] is None and run[1] == 2000
    assert run == ref_run_sampler(2, geq(1, 2), cfg)



# Blocks shorter than the spans: the letter pool runs dry in the middle of
# the initial word and of resampled spans, and must refill by enough.
SMALL_BLOCK_CASES = {
    2: (geq(3, 2), 64),
    3: (geq(2, 7, 4), 256),
    300: (FreenessConstraint(1, Fraction(5, 4), Mode.STRICT), 256),
    2**64: (geq(1, 2), 40),
}


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("a", SMALL_BLOCK_CASES)
def test_sampler_matches_reference_with_small_blocks(monkeypatch, block, a):
    monkeypatch.setattr(sampler, "_BLOCK", block)
    c, length = SMALL_BLOCK_CASES[a]
    for seed in range(2):
        cfg = SamplerConfig(seed, 10**5, length)
        assert sampler_run(a, c, cfg) == ref_run_sampler(a, c, cfg)
    for l in (1, 3):
        for r in GRID_THRESHOLDS:
            c = FreenessConstraint(l, r, Mode.GEQ)
            cfg = SamplerConfig(3, 60, 24)
            assert sampler_run(a, c, cfg) == ref_run_sampler(a, c, cfg), (l, r)
