"""Command-line interface.

Subcommands: detect, search, bracket, sample, construct (thue-morse,
rank-map, colorize, witness, mapped-word), bounds.  Every subcommand is a
compute function, args -> _Result(artifacts, stdout, code, note), and
main() runs each one the same way: parse, start the clock, compute, write
the artifacts (if any) as a run, print the stdout payload, return the exit
code.  search, bracket, sample, construct and bounds return JSON/CSV
artifacts; the run holds them plus a manifest (command line, the parsed
options as parameters, seed, version, output digests, timings) in --out,
defaulting to a deterministic runs/<name>-<digest> directory derived from
the parameters.  The directory is created only once all its files are
written, so a failed run leaves nothing behind, and nothing is printed
before that point.

Exit codes: 0 for any data result (an EXHAUSTED search is a successful
result, not an error), 2 for malformed input or usage and for files that
cannot be read or written (one `error:` line on stderr), 3 for sampler
non-convergence.  Randomness enters only through --seed (default 0, never
wall-clock), so identical invocations produce identical outcome fields.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .construct import (
    BoundReport,
    build_mapped_word,
    colorize,
    pigeonhole_witness,
    rank_map_image_size,
    rank_map_table,
    thue_morse,
)
from .detect import detect
from .sampler import SamplerConfig, sample_free_word
from .search import (
    Outcome,
    bracket_threshold,
    default_target_length,
    extend_search,
)
from .words import (
    FreenessConstraint,
    Word,
    fraction_json,
    parse_exponent,
    parse_word,
    read_word_file,
    render_word,
)

__all__ = ["main"]

# Parsed options that are not run parameters; every other option is
# recorded in the manifest and named in the default run directory.
_NOT_PARAMETERS = ("compute", "out", "subcommand", "construction", "text", "word_file")


class _Result(NamedTuple):
    artifacts: dict[str, str] | None  # file name -> contents, in write order
    stdout: str
    code: int = 0
    note: str = ""  # one stderr line, printed only once the run is written


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = args.compute(args)
        if result.artifacts is not None:
            _write_run(args, argv, result.artifacts, t0)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # raised with an empty message
        print("error: not enough memory for this run", file=sys.stderr)
        return 2
    print(result.stdout, end="")
    if result.note:
        print(result.note, file=sys.stderr)
    return result.code


# ---------------------------------------------------------------------------
# Artifact and manifest plumbing.


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_run(args, argv: list[str], artifacts: dict[str, str], t0: float) -> None:
    """Write every artifact and the manifest into a staging directory beside
    the run directory and move them in only once all are written; a run
    that fails at any point leaves nothing behind."""
    construction = getattr(args, "construction", None)
    name = f"construct-{construction}" if construction else args.subcommand
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    if args.out is not None:
        run_dir = Path(args.out)
    else:
        digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:10]
        run_dir = Path("runs") / f"{name}-{digest}"
    missing = [d for d in (run_dir, *run_dir.parents) if not d.exists()]
    stage = run_dir.parent / f".{run_dir.name}.tmp"
    try:
        run_dir.parent.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(stage, ignore_errors=True)
        stage.mkdir()
        digests = {}
        for file_name, data in artifacts.items():
            (stage / file_name).write_text(data)
            digests[file_name] = _sha256(stage / file_name)
        manifest = {
            "command": argv,
            "subcommand": name,
            "parameters": params,
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "outputs": digests,
            "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
        }
        (stage / "manifest.json").write_text(_json_text(manifest))
        if run_dir.is_dir():
            for path in stage.iterdir():
                os.replace(path, run_dir / path.name)
            stage.rmdir()
        else:
            os.rename(stage, run_dir)
    except OSError:
        shutil.rmtree(stage, ignore_errors=True)
        for d in missing:  # deepest first
            try:
                d.rmdir()
            except OSError:
                pass
        raise
    print(f"artifacts written to {run_dir}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared argument helpers.


def _add_word_input(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", help="word in the standard text format")
    src.add_argument("--word-file", help="file with one word (comments allowed)")


def _input_word(args) -> Word:
    if args.text is not None:
        return parse_word(args.text, args.alphabet)
    words = read_word_file(args.word_file, args.alphabet)
    if len(words) != 1:
        raise ValueError(
            f"word file must contain exactly one word, found {len(words)}"
        )
    return words[0]


def _constraint(args) -> FreenessConstraint:
    return FreenessConstraint(args.min_period, parse_exponent(args.threshold), args.mode)


# ---------------------------------------------------------------------------
# Compute functions.  Each may write back into args a value it works out
# (max_length, target_length, word), so that the manifest records it.


def _detect(args) -> _Result:
    w = _input_word(args)
    constraint = None
    if args.threshold is not None:
        constraint = _constraint(args)
    report = detect(w, args.min_period, constraint)
    return _Result(None, _json_text(report.to_jsonable()))


def _search(args) -> _Result:
    constraint = _constraint(args)
    if args.max_length is None:
        args.max_length = default_target_length(args.alphabet, args.min_period)
    cert = extend_search(args.alphabet, constraint, args.max_length, node_budget=args.node_budget)
    text = _json_text(cert.to_jsonable())
    return _Result({"certificate.json": text}, text)


def _bracket(args) -> _Result:
    if args.target_length is None:
        args.target_length = default_target_length(args.alphabet, args.min_period)
    bracket = bracket_threshold(args.alphabet, args.min_period, args.max_denominator,
                                args.target_length, node_budget=args.node_budget)
    rows = [["a", "l", "num", "den", "mode", "outcome", "depth_or_length"]]
    for cert in bracket.certificates:
        c = cert.constraint
        depth_or_length = (
            len(cert.witness) if cert.outcome is Outcome.REACHED else cert.max_depth
        )
        rows.append([bracket.a, bracket.l, c.threshold.numerator, c.threshold.denominator,
                     c.mode.value, cert.outcome.value, depth_or_length])
    artifacts = {
        "bracket.json": _json_text(bracket.to_jsonable()),
        "sweep.csv": _csv_text(rows),
    }
    return _Result(artifacts, bracket.summary_line() + "\n")


def _sample(args) -> _Result:
    constraint = _constraint(args)
    config = SamplerConfig(args.seed, args.max_resamples, args.length)
    report = sample_free_word(args.alphabet, constraint, config)
    text = _json_text(report.to_jsonable())
    artifacts = {"report.json": text}
    if report.result is not None:
        artifacts["word.txt"] = render_word(report.result) + "\n"
    return _Result(artifacts, text, 0 if report.converged else 3)


def _bounds(args) -> _Result:
    report = BoundReport(args.alphabet, args.min_period, args.weak_log_base, args.precision)
    text = _json_text(report.to_jsonable())
    return _Result({"bounds.json": text}, text)


def _word_result(w: Word) -> _Result:
    text = render_word(w) + "\n"
    return _Result({"word.txt": text}, text)


def _construct_thue_morse(args) -> _Result:
    return _word_result(thue_morse(args.length))


def _construct_rank_map(args) -> _Result:
    rows = rank_map_table(args.radix, args.block)
    text = _csv_text([("index", "rank", "value"), *rows])
    note = f"image size L = {rank_map_image_size(args.radix, args.block)}"
    return _Result({"ftable.csv": text}, text, note=note)


def _construct_colorize(args) -> _Result:
    base = parse_word(args.base, 2)
    return _word_result(colorize(base, args.alphabet, args.block))


def _construct_witness(args) -> _Result:
    w = _input_word(args)
    args.word = render_word(w)
    occ = pigeonhole_witness(w, args.alphabet, args.min_period)
    text = _json_text({**occ.to_jsonable(), "exponent": fraction_json(occ.exponent)})
    return _Result({"witness.json": text}, text)


def _construct_mapped_word(args) -> _Result:
    source = parse_word(args.source, args.alphabet)
    return _word_result(build_mapped_word(source, args.radix, args.block, args.length))


# ---------------------------------------------------------------------------
# Parser.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repthresh",
        description="Repetition thresholds: detection, search, sampling, "
        "constructions, and bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options shared by several subcommands, each declared once: the
    # paper's (a, l), the comparison mode and the run directory
    al = argparse.ArgumentParser(add_help=False)
    al.add_argument("--alphabet", type=int, required=True)
    al.add_argument("--min-period", type=int, default=1)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=["geq", "strict"], default="geq")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("detect", parents=[al, mode], help="scan one word for fractional powers")
    _add_word_input(p)
    p.add_argument("--threshold", help="exponent threshold p/q")
    p.set_defaults(compute=_detect)

    p = sub.add_parser("search", parents=[al, mode, out], help="backtrack for an avoiding word")
    p.add_argument("--threshold", required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(compute=_search)

    p = sub.add_parser("bracket", parents=[al, out],
                       help="sweep exponents to bracket the threshold")
    p.add_argument("--max-denominator", type=int, default=6)
    p.add_argument("--target-length", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=5_000_000)
    p.set_defaults(compute=_bracket)

    p = sub.add_parser("sample", parents=[al, mode, out], help="Moser-Tardos resampling")
    p.add_argument("--threshold", required=True)
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-resamples", type=int, default=100_000)
    p.set_defaults(compute=_sample)

    p = sub.add_parser("bounds", parents=[al, out], help="closed-form bound formulas")
    p.add_argument("--weak-log-base", type=float, default=None)
    p.add_argument("--precision", type=int, default=12)
    p.set_defaults(compute=_bounds)

    pc = sub.add_parser("construct", help="explicit constructions")
    csub = pc.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("thue-morse", parents=[out])
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(compute=_construct_thue_morse)

    p = csub.add_parser("rank-map", parents=[out])
    p.add_argument("--radix", type=int, required=True, help="block radix m")
    p.add_argument("--block", type=int, required=True, help="block size l")
    p.set_defaults(compute=_construct_rank_map)

    p = csub.add_parser("colorize", parents=[out])
    p.add_argument("--alphabet", type=int, required=True, help="even target alphabet >= 6")
    p.add_argument("--block", type=int, required=True, help="color block size l")
    p.add_argument("--base", required=True, help="binary base word text")
    p.set_defaults(compute=_construct_colorize)

    p = csub.add_parser("witness", parents=[al, out])
    _add_word_input(p)
    p.set_defaults(compute=_construct_witness)

    p = csub.add_parser("mapped-word", parents=[out])
    p.add_argument("--source", required=True, help="source word text")
    p.add_argument("--alphabet", type=int, required=True, help="source alphabet size")
    p.add_argument("--radix", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(compute=_construct_mapped_word)

    return parser


if __name__ == "__main__":
    sys.exit(main())
