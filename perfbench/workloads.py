"""The four benchmark workloads: seeded task plans, the checks applied to
each task's output, and the outcome summaries that go into the digest.

A task is one user-level request.  Its `run(api)` is the timed part and
reaches repthresh only through `api`, so the traced run can hand in wrapped
functions.  `check` and `summary` run outside the timed section and use
repthresh code that the layer under test does not share (the naive oracle,
verify_occurrence, the detector on search and sampler output).  Summaries
are compared across rounds and, at the default seed, against a frozen
digest.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from repthresh import cli, construct, sampler, search, words
from repthresh import (
    Bracket,
    FreenessConstraint,
    Mode,
    Outcome,
    SamplerConfig,
    default_target_length,
    exists_repetition,
    naive_oracle,
    render_word,
    verify_certificate,
    verify_occurrence,
)

# the package re-exports the function `detect` under the submodule's name
detect = importlib.import_module("repthresh.detect")

STRICT_SQUARE = FreenessConstraint(1, Fraction(2), Mode.STRICT)
GEQ_THREE_HALVES = FreenessConstraint(1, Fraction(3, 2))


@dataclass
class Task:
    kind: str
    label: str
    run: Callable  # run(api) -> result; the only timed part
    check: Callable  # check(result) -> list of problems
    summary: Callable  # summary(result) -> JSON-able outcome, with optional "counts"
    then: Callable | None = None  # then(result) -> follow-up tasks, untimed
    order: str | None = None  # a follow-up with a key runs after the list, sorted by key


# ---------------------------------------------------------------------------
# The functions a task may call, and how the traced run labels them.


def raw_api() -> SimpleNamespace:
    return SimpleNamespace(
        parse_word=words.parse_word,
        read_word_file=words.read_word_file,
        thue_morse=construct.thue_morse,
        colorize=construct.colorize,
        build_mapped_word=construct.build_mapped_word,
        max_exponent=detect.max_exponent,
        exists_repetition=detect.exists_repetition,
        detect=detect.detect,
        naive_oracle=detect.naive_oracle,
        extend_search=search.extend_search,
        verify_certificate=search.verify_certificate,
        sample_free_word=sampler.sample_free_word,
        cli_main=cli.main,
    )


def pair_space(n: int, min_period: int) -> int:
    """Number of (start, period) pairs with period >= min_period in a word
    of length n: the work of a full quadratic scan, computed, not counted."""
    m = n - min_period
    return m * (m + 1) // 2 if m > 0 else 0


def _detect_layer(args) -> str:
    return "detect.bytes" if args[0].alphabet <= 256 else "detect.generic"


def _max_exponent_info(args, result) -> dict:
    return {"pairs": pair_space(len(args[0]), args[1] if len(args) > 1 else 1)}


def _constraint_info(args, result) -> dict:
    return {"pairs": pair_space(len(args[0]), args[1].min_period)}


def _detect_info(args, result) -> dict:
    n = len(args[0])
    pairs = pair_space(n, args[1] if len(args) > 1 else 1)
    if len(args) > 2 and args[2] is not None:
        pairs += pair_space(n, args[2].min_period)
    return {"pairs": pairs}


def _search_info(args, cert) -> dict:
    depth = len(cert.witness) if cert.outcome is Outcome.REACHED else (cert.max_depth or 0)
    return {
        "nodes": cert.nodes_visited,
        "depth": depth,
        "reached": int(cert.outcome is Outcome.REACHED),
        "exhausted": int(cert.outcome is Outcome.EXHAUSTED),
    }


def _bracket_info(args, bracket) -> dict:
    return {"nodes": sum(c.nodes_visited for c in bracket.certificates)}


def _verify_info(args, result) -> dict:
    exhausted = args[0].outcome is Outcome.EXHAUSTED
    return {
        "reproved": int(exhausted and result.independently_verified),
        "unverified": int(exhausted and not result.independently_verified),
    }


def _sampler_info(args, report) -> dict:
    return {"resamples": report.resample_count, "converged": int(report.converged)}


def traced_api(tracer) -> SimpleNamespace:
    """raw_api() with every entry point wrapped in a span named by layer."""
    raw = raw_api()
    w = tracer.wrap
    return SimpleNamespace(
        parse_word=w("words", raw.parse_word),
        read_word_file=w("words", raw.read_word_file),
        thue_morse=w("construct", raw.thue_morse),
        colorize=w("construct", raw.colorize),
        build_mapped_word=w("construct", raw.build_mapped_word),
        max_exponent=w(_detect_layer, raw.max_exponent, _max_exponent_info),
        exists_repetition=w(_detect_layer, raw.exists_repetition, _constraint_info),
        detect=w(_detect_layer, raw.detect, _detect_info),
        naive_oracle=w("detect.naive", raw.naive_oracle, _constraint_info),
        extend_search=w("search", raw.extend_search, _search_info),
        verify_certificate=w("verify", raw.verify_certificate, _verify_info),
        sample_free_word=w("sampler", raw.sample_free_word, _sampler_info),
        cli_main=w("cli", raw.cli_main),
    )


# Module attributes that other repthresh modules imported by name.  The
# traced run rebinds them so that calls made inside the program nest under
# the caller's span; naive_oracle is called ~10^6 times by the verifier, so
# it is folded into a count and a total time per parent span.
def rebindings(tracer) -> list[tuple[object, str, Callable]]:
    return [
        (search, "naive_oracle", tracer.wrap_aggregated("detect.naive", detect.naive_oracle, _constraint_info)),
        (cli, "bracket_threshold", tracer.wrap("search", search.bracket_threshold, _bracket_info)),
        (cli, "detect", tracer.wrap(_detect_layer, detect.detect, _detect_info)),
    ]


# ---------------------------------------------------------------------------
# Outcome encoding shared by summaries.


def _frac(f: Fraction | None):
    return None if f is None else [f.numerator, f.denominator]


def _occ(o):
    return None if o is None else [o.start, o.period, o.length]


def _cert_doc(cert) -> dict:
    doc = cert.to_jsonable()
    doc.pop("elapsed_ms")  # wall time, not an outcome
    return doc


# ---------------------------------------------------------------------------
# scan: detection requests on long words.


def _detect_all(api, w, min_period, c):
    return w, api.max_exponent(w, min_period), api.exists_repetition(w, c), api.detect(w, min_period, c)


def _scan_thue_morse(n, api):
    return _detect_all(api, api.thue_morse(n), 1, STRICT_SQUARE)


def _scan_colorized(n, a, block, api):
    return _detect_all(api, api.colorize(api.thue_morse(n), a, block), 1, STRICT_SQUARE)


def _scan_rank_mapped(text, a, n, api):
    source = api.parse_word(text, a)
    return _detect_all(api, api.build_mapped_word(source, 2, 8, n), 1, GEQ_THREE_HALVES)


def _scan_word_file(path, a, min_period, api):
    (w,) = api.read_word_file(path, a)
    return _detect_all(api, w, min_period, FreenessConstraint(min_period, Fraction(3, 2)))


def _check_detection(min_period, c, expect, result) -> list[str]:
    w, me, ex, rep = result
    bad = []
    if (rep.max_exponent, rep.witness) != (me.max_exponent, me.witness):
        bad.append("detect disagrees with max_exponent")
    if rep.constraint_violated != (ex is not None):
        bad.append("detect verdict disagrees with exists_repetition")
    if me.witness is not None:
        o = me.witness
        if not verify_occurrence(w, o) or o.period < min_period or o.exponent != me.max_exponent:
            bad.append(f"max_exponent witness {o} does not hold")
    if ex is not None:
        if not verify_occurrence(w, ex) or not c.forbids_occurrence(ex):
            bad.append(f"exists_repetition witness {ex} does not hold")
        if me.max_exponent is None or me.max_exponent < ex.exponent:
            bad.append("max_exponent below a found occurrence")
    elif me.max_exponent is not None and c.forbids(me.max_exponent):
        bad.append("NONE although the maximal exponent is forbidden")
    if expect == "thue-morse" and (me.max_exponent != 2 or ex is not None):
        bad.append("Thue-Morse prefix must have maximal exponent 2 and no overlap")
    if expect == "colorized":
        # a lift of an overlap-free word is overlap-free, and its equal
        # letters never sit at distances in [block, (a/2 - 1) * block]
        block, a = 1, w.alphabet
        if ex is not None or (me.witness is not None and block <= me.witness.period <= (a // 2 - 1) * block):
            bad.append("colorized word breaks the lift's guarantees")
    if expect == "some" and ex is None:
        bad.append("expected a forbidden occurrence")
    return bad


def _detection_summary(result) -> dict:
    w, me, ex, rep = result
    return {
        "n": len(w),
        "a": w.alphabet,
        "max": _frac(me.max_exponent),
        "witness": _occ(me.witness),
        "exists": _occ(ex),
        "detect": [_frac(rep.max_exponent), _occ(rep.witness), rep.constraint_violated],
    }


def _naive_thue_morse(n, api):
    w = api.thue_morse(n)
    return w, api.naive_oracle(w, STRICT_SQUARE)


def _naive_text(text, a, api):
    w = api.parse_word(text, a)
    return w, api.naive_oracle(w, GEQ_THREE_HALVES)


def _check_naive(c, expect_some, result) -> list[str]:
    w, occ = result
    fast = exists_repetition(w, c)
    if (occ is None) != (fast is None):
        return ["naive oracle and scanner disagree on SOME/NONE"]
    if expect_some != (occ is not None):
        return [f"expected {'SOME' if expect_some else 'NONE'}"]
    if occ is not None and not (verify_occurrence(w, occ) and c.forbids_occurrence(occ)):
        return [f"oracle witness {occ} does not hold"]
    return []


def _naive_summary(result) -> dict:
    w, occ = result
    return {"n": len(w), "a": w.alphabet, "oracle": _occ(occ)}


def _random_text(rng: random.Random, a: int, n: int) -> str:
    letters = [rng.randrange(a) for _ in range(n)]
    if a <= 36:
        return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[x] for x in letters)
    return ",".join(map(str, letters))


def plan_scan(seed: int, workdir: Path) -> list[Task]:
    """Thue-Morse prefixes up to 2^15 (NONE at STRICT 2: full quadratic
    scans), lifts to 300 letters (generic scanner), random words read from
    files (SOME: early exits), and two naive-oracle requests."""
    rng = random.Random(f"scan/{seed}")
    tasks = []

    def detection(kind, label, run, min_period, c, expect):
        tasks.append(Task(kind, label, run, partial(_check_detection, min_period, c, expect), _detection_summary))

    # The mix puts the median among five near-identical lifts and the p75
    # tail among three ~0.3 s tasks, so that neither falls into a gap.
    for k in (12, 13, 15):
        n = 2**k - rng.randrange(32)
        detection("tm", f"thue-morse n={n}", partial(_scan_thue_morse, n), 1, STRICT_SQUARE, "thue-morse")
    for n in (1100,) * 5 + (1500, 2000, 2000):
        n -= rng.randrange(32)
        detection("colorized", f"colorized a=300 n={n}", partial(_scan_colorized, n, 300, 1), 1, STRICT_SQUARE, "colorized")
    n = 1000 - rng.randrange(32)
    text = _random_text(rng, 300, n // 2 + 8)
    detection("rank-mapped", f"rank-mapped a=300 n={n}", partial(_scan_rank_mapped, text, 300, n), 1, GEQ_THREE_HALVES, "some")
    for i in range(6):
        a = 2 + i % 3
        n = rng.randrange(2000, 6001)
        min_period = (1, 2, 4)[rng.randrange(3)]
        path = workdir / f"scan-{i}.txt"
        path.write_text(f"# random word a={a} n={n}\n{_random_text(rng, a, n)}\n")
        detection("random", f"random a={a} n={n} l={min_period}", partial(_scan_word_file, path, a, min_period),
                  min_period, FreenessConstraint(min_period, Fraction(3, 2)), "some")
    n = 2000 - rng.randrange(32)
    tasks.append(Task("naive", f"naive thue-morse n={n}", partial(_naive_thue_morse, n),
                      partial(_check_naive, STRICT_SQUARE, False), _naive_summary))
    text = _random_text(rng, 3, 2000 - rng.randrange(32))
    tasks.append(Task("naive", f"naive random a=3 n={len(text)}", partial(_naive_text, text, 3),
                      partial(_check_naive, GEQ_THREE_HALVES, True), _naive_summary))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# certify: the bracket table through the CLI, then every certificate
# re-verified.

# The table this commit prints; a=3 l=1 is Dejean's RT(3) = 7/4.
KNOWN_BRACKETS = {
    (2, 1): "a=2 l=1 r_lo=2/1 r_hi=2/1 c_hat=2",
    (2, 2): "a=2 l=2 r_lo=2/1 r_hi=2/1 c_hat=4",
    (2, 3): "a=2 l=3 r_lo=8/5 r_hi=5/3 c_hat=4",
    (3, 1): "a=3 l=1 r_lo=7/4 r_hi=9/5 c_hat=2.4",
    (3, 2): "a=3 l=2 r_lo=3/2 r_hi=8/5 c_hat=3.6",
    (3, 3): "a=3 l=3 r_lo=5/4 r_hi=4/3 c_hat=3",
}


@dataclass
class BracketRun:
    out: Path
    code: int
    stdout: str
    bytes_written: int = 0


def _bracket_cli(a, l, workdir, api) -> BracketRun:
    out = Path(tempfile.mkdtemp(dir=workdir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = api.cli_main(["bracket", "--alphabet", str(a), "--min-period", str(l), "--out", str(out)])
    return BracketRun(out, code, stdout.getvalue().strip())


def _check_bracket_cli(a, l, run: BracketRun) -> list[str]:
    bad = [] if run.code == 0 else [f"exit code {run.code}"]
    if run.stdout != KNOWN_BRACKETS[(a, l)]:
        bad.append(f"bracket line {run.stdout!r} != {KNOWN_BRACKETS[(a, l)]!r}")
    return bad


def _read_bracket(out: Path, api) -> Bracket:
    return Bracket.from_jsonable(json.loads((out / "bracket.json").read_text()))


def _check_bracket_file(a, l, bracket: Bracket) -> list[str]:
    if bracket.summary_line() != KNOWN_BRACKETS[(a, l)]:
        return [f"bracket.json reads {bracket.summary_line()!r}"]
    return []


def _bracket_summary(bracket: Bracket) -> dict:
    return {
        "line": bracket.summary_line(),
        "certificates": [_cert_doc(c) for c in bracket.certificates],
        "counts": {"search.nodes": sum(c.nodes_visited for c in bracket.certificates)},
    }


def _verify_run(cert, api):
    return cert, api.verify_certificate(cert)


def _check_verify(result) -> list[str]:
    cert, verdict = result
    bad = [] if verdict.ok else [f"verify_certificate failed: {verdict.detail}"]
    if cert.outcome is Outcome.REACHED:
        w = cert.witness
        a, l = cert.alphabet_size, cert.constraint.min_period
        if len(w) != default_target_length(a, l) or exists_repetition(w, cert.constraint) is not None:
            bad.append("REACHED witness has the wrong length or a forbidden occurrence")
    return bad


def _proof_counts(cert, verdict) -> dict:
    exhausted = cert.outcome is Outcome.EXHAUSTED
    return {
        "verify.exhausted": int(exhausted),
        "verify.reproved": int(exhausted and verdict.independently_verified),
        "verify.unverified": int(exhausted and not verdict.independently_verified),
    }


def _verify_summary(result) -> dict:
    cert, verdict = result
    return {
        "certificate": _cert_doc(cert),
        "verdict": [verdict.ok, verdict.independently_verified, verdict.detail],
        "counts": _proof_counts(cert, verdict),
    }


def _after_cli(seed, a, l, run: BracketRun) -> list[Task]:
    run.bytes_written = sum(p.stat().st_size for p in run.out.iterdir())
    return [Task("read", f"read bracket.json a={a} l={l}", partial(_read_bracket, run.out),
                 partial(_check_bracket_file, a, l), _bracket_summary, then=partial(_after_read, seed, run.out))]


def _after_read(seed: int, out: Path, bracket: Bracket) -> list[Task]:
    shutil.rmtree(out)
    tasks = []
    for c in bracket.certificates:
        label = f"verify a={bracket.a} l={bracket.l} r={c.constraint.threshold} {c.constraint.mode.value}"
        order = hashlib.sha256(f"certify/{seed}/{label}".encode()).hexdigest()
        tasks.append(Task("verify", label, partial(_verify_run, c), _check_verify, _verify_summary, order=order))
    return tasks


def plan_certify(seed: int, workdir: Path) -> list[Task]:
    """The bracket table for (a, l) in {2,3}x{1,2,3}: per pair one CLI
    call and one read-back of bracket.json; then one verification per
    certificate, all pairs mixed.  The seed sets only the order of the
    pairs and of the verifications: the table has no random input.  Mixing
    spreads the many sub-millisecond verifications over the round, so the
    median task does not hang on one moment of the host's speed."""
    rng = random.Random(f"certify/{seed}")
    pairs = sorted(KNOWN_BRACKETS)
    rng.shuffle(pairs)
    return [
        Task("cli", f"cli bracket a={a} l={l}", partial(_bracket_cli, a, l, workdir),
             partial(_check_bracket_cli, a, l), lambda run: {"line": run.stdout, "code": run.code},
             then=partial(_after_cli, seed, a, l))
        for a, l in pairs
    ]


# ---------------------------------------------------------------------------
# extend: long REACHED searches and deep EXHAUSTED searches.

# (a, l, r, target lengths) whose searches reach the target.  The cost per
# node grows with depth, so each constraint runs at several lengths.
EXTEND_REACHED = [
    (3, 1, Fraction(9, 5), (250, 500, 1000, 2000, 4000)),
    (2, 3, Fraction(5, 3), (250, 500, 1000, 4000)),
    (3, 2, Fraction(8, 5), (250, 500, 1000, 2000)),
]
# (a, l, r) whose search tree dies.  l=1 rows are the known thresholds
# RT(3)=7/4, RT(4)=7/5, RT(5)=5/4 and binary squares; the rest are
# EXHAUSTED classes of the bracket table at depths 16-33, and two depth-11
# classes that verify_certificate can still re-prove by enumeration.
EXTEND_EXHAUSTED = [
    (3, 1, Fraction(7, 4)), (4, 1, Fraction(7, 5)), (5, 1, Fraction(5, 4)), (2, 1, Fraction(2)),
    (3, 2, Fraction(3, 2)), (2, 3, Fraction(8, 5)), (2, 2, Fraction(2)), (3, 2, Fraction(7, 5)),
    (2, 3, Fraction(3, 2)), (2, 2, Fraction(11, 6)), (2, 2, Fraction(5, 3)), (2, 3, Fraction(7, 5)),
]
EXHAUSTED_TARGET = 1000


def _search(a, c, target, api):
    return api.extend_search(a, c, target)


def _check_search(target, expected: Outcome, cert) -> list[str]:
    if cert.outcome is not expected:
        return [f"outcome {cert.outcome.value}, expected {expected.value}"]
    if expected is Outcome.REACHED:
        w = cert.witness
        if len(w) != target or exists_repetition(w, cert.constraint) is not None:
            return ["witness has the wrong length or a forbidden occurrence"]
    elif not verify_certificate(cert).ok:
        return ["verify_certificate rejects the certificate"]
    return []


def _search_summary(cert) -> dict:
    counts = {"search.nodes": cert.nodes_visited}
    if cert.outcome is Outcome.EXHAUSTED:
        counts.update(_proof_counts(cert, verify_certificate(cert)))
    return {"certificate": _cert_doc(cert), "counts": counts}


def plan_extend(seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(f"extend/{seed}")
    tasks = []
    for a, l, r, lengths in EXTEND_REACHED:
        for target in lengths:
            target += rng.randrange(16)
            c = FreenessConstraint(l, r)
            tasks.append(Task("reached", f"search a={a} l={l} r={r} L={target}", partial(_search, a, c, target),
                              partial(_check_search, target, Outcome.REACHED), _search_summary))
    for a, l, r in EXTEND_EXHAUSTED:
        c = FreenessConstraint(l, r)
        tasks.append(Task("exhausted", f"search a={a} l={l} r={r}", partial(_search, a, c, EXHAUSTED_TARGET),
                          partial(_check_search, EXHAUSTED_TARGET, Outcome.EXHAUSTED), _search_summary))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# sample: Moser-Tardos in two regimes.

SHORT = (2, FreenessConstraint(3, Fraction(2)), 64)  # many short-span resamples
LONG = (3, FreenessConstraint(2, Fraction(7, 4)), 256)  # each resample rescans from 0
# Fixed sampler-seed pools.  One run's cost varies between seeds by a factor
# of ten (short) or three (long), so seeds drawn from the workload seed would
# make the work of a run depend on the draw; the workload seed orders tasks.
SHORT_SEEDS = range(1001, 1101)
LONG_SEEDS = range(1, 9)
MAX_RESAMPLES = 1_000_000


def _sample(a, c, config, api):
    return api.sample_free_word(a, c, config)


def _check_sample(a, c, length, report) -> list[str]:
    if not report.converged:
        return [f"no convergence after {report.resample_count} resamples"]
    w = report.result
    if len(w) != length or w.alphabet != a or naive_oracle(w, c) is not None:
        return ["sampled word has the wrong shape or a forbidden occurrence"]
    return []


def _sample_summary(report) -> dict:
    return {
        "word": None if report.result is None else render_word(report.result),
        "resamples": report.resample_count,
        "counts": {"sampler.resamples": report.resample_count, "sampler.converged": int(report.converged)},
    }


def plan_sample(seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(f"sample/{seed}")
    tasks = []
    for kind, (a, c, length), seeds in (("sample.short", SHORT, SHORT_SEEDS), ("sample.long", LONG, LONG_SEEDS)):
        for sampler_seed in seeds:
            config = SamplerConfig(sampler_seed, MAX_RESAMPLES, length)
            tasks.append(Task(kind, f"sample a={a} l={c.min_period} r={c.threshold} L={length} seed={sampler_seed}",
                              partial(_sample, a, c, config), partial(_check_sample, a, c, length), _sample_summary))
    rng.shuffle(tasks)
    return tasks


PLANS = {
    "scan": plan_scan,
    "certify": plan_certify,
    "extend": plan_extend,
    "sample": plan_sample,
}
