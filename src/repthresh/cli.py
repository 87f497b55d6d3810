"""Command-line interface.

Subcommands: detect, search, bracket, sample, construct (thue-morse,
rank-map, colorize, witness, mapped-word), bounds.  Primary payloads go to
stdout; search, bracket, sample, construct and bounds additionally write
their JSON/CSV artifacts plus a run manifest (command line, parameters,
seed, version, output digests, timings) into --out, defaulting to a
deterministic runs/<name>-<digest> directory derived from the parameters.
The directory is created only once the result is complete and all its
files are written, so a failed run leaves nothing behind.

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

from . import __version__
from .construct import (
    bound_report,
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
    Mode,
    Word,
    WordFormatError,
    fraction_json,
    parse_exponent,
    parse_word,
    read_word_file,
    render_word,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, list(argv))
    except (WordFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# Artifact and manifest plumbing.


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


class _Run:
    """Collects artifacts for one invocation.  Nothing touches the disk
    before finish(), which writes every artifact and the manifest into a
    staging directory beside the run directory and moves them in only once
    all are written; a run that fails at any point leaves nothing behind."""

    def __init__(self, subcommand: str, params: dict, out: str | None, seed: int | None):
        self.subcommand = subcommand
        self.params = params
        self.seed = seed
        self.t0 = time.perf_counter()
        if out is not None:
            self.dir = Path(out)
        else:
            digest = hashlib.sha256(
                json.dumps(params, sort_keys=True).encode()
            ).hexdigest()[:10]
            self.dir = Path("runs") / f"{subcommand}-{digest}"
        self.outputs: dict[str, str] = {}

    def write(self, name: str, data: str) -> None:
        self.outputs[name] = data

    def finish(self, argv: list[str]) -> None:
        missing = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
        stage = self.dir.parent / f".{self.dir.name}.tmp"
        try:
            self.dir.parent.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(stage, ignore_errors=True)
            stage.mkdir()
            digests = {}
            for name, data in self.outputs.items():
                (stage / name).write_text(data)
                digests[name] = _sha256(stage / name)
            manifest = {
                "command": argv,
                "subcommand": self.subcommand,
                "parameters": self.params,
                "seed": self.seed,
                "version": __version__,
                "outputs": digests,
                "elapsed_ms": (time.perf_counter() - self.t0) * 1000.0,
            }
            (stage / "manifest.json").write_text(_json_text(manifest))
            if self.dir.is_dir():
                for path in stage.iterdir():
                    os.replace(path, self.dir / path.name)
                stage.rmdir()
            else:
                os.rename(stage, self.dir)
        except OSError:
            shutil.rmtree(stage, ignore_errors=True)
            for d in missing:  # deepest first
                try:
                    d.rmdir()
                except OSError:
                    pass
            raise
        print(f"artifacts written to {self.dir}", file=sys.stderr)


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
    return FreenessConstraint(
        args.min_period, parse_exponent(args.threshold), Mode(args.mode)
    )


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_detect(args, argv: list[str]) -> int:
    w = _input_word(args)
    constraint = None
    if args.threshold is not None:
        constraint = _constraint(args)
    report = detect(w, args.min_period, constraint)
    print(_json_text(report.to_jsonable()), end="")
    return 0


def _cmd_search(args, argv: list[str]) -> int:
    constraint = _constraint(args)
    target = args.max_length
    if target is None:
        target = default_target_length(args.alphabet, args.min_period)
    params = {
        "alphabet": args.alphabet,
        "min_period": args.min_period,
        "threshold": args.threshold,
        "mode": args.mode,
        "max_length": target,
        "symmetry": not args.no_symmetry,
        "node_budget": args.node_budget,
    }
    run = _Run("search", params, args.out, seed=None)
    cert = extend_search(
        args.alphabet,
        constraint,
        target,
        symmetry=not args.no_symmetry,
        node_budget=args.node_budget,
    )
    doc = cert.to_jsonable()
    run.write("certificate.json", _json_text(doc))
    run.finish(argv)
    print(_json_text(doc), end="")
    return 0


def _cmd_bracket(args, argv: list[str]) -> int:
    target = args.target_length
    if target is None:
        target = default_target_length(args.alphabet, args.min_period)
    params = {
        "alphabet": args.alphabet,
        "min_period": args.min_period,
        "max_denominator": args.max_denominator,
        "target_length": target,
        "node_budget": args.node_budget,
    }
    run = _Run("bracket", params, args.out, seed=None)
    bracket = bracket_threshold(
        args.alphabet,
        args.min_period,
        args.max_denominator,
        target,
        node_budget=args.node_budget,
    )
    run.write("bracket.json", _json_text(bracket.to_jsonable()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "l", "num", "den", "mode", "outcome", "depth_or_length"])
    for cert in bracket.certificates:
        depth_or_length = (
            len(cert.witness) if cert.outcome is Outcome.REACHED else cert.max_depth
        )
        writer.writerow(
            [
                bracket.a,
                bracket.l,
                cert.constraint.threshold.numerator,
                cert.constraint.threshold.denominator,
                cert.constraint.mode.value,
                cert.outcome.value,
                depth_or_length,
            ]
        )
    run.write("sweep.csv", buf.getvalue())
    run.finish(argv)
    print(bracket.summary_line())
    return 0


def _cmd_sample(args, argv: list[str]) -> int:
    constraint = _constraint(args)
    params = {
        "alphabet": args.alphabet,
        "min_period": args.min_period,
        "threshold": args.threshold,
        "mode": args.mode,
        "length": args.length,
        "seed": args.seed,
        "max_resamples": args.max_resamples,
    }
    run = _Run("sample", params, args.out, seed=args.seed)
    config = SamplerConfig(args.seed, args.max_resamples, args.length)
    report = sample_free_word(args.alphabet, constraint, config)
    run.write("report.json", _json_text(report.to_jsonable()))
    if report.result is not None:
        run.write("word.txt", render_word(report.result) + "\n")
    run.finish(argv)
    print(_json_text(report.to_jsonable()), end="")
    return 0 if report.converged else 3


def _cmd_bounds(args, argv: list[str]) -> int:
    params = {
        "alphabet": args.alphabet,
        "min_period": args.min_period,
        "weak_log_base": args.weak_log_base,
        "precision": args.precision,
    }
    report = bound_report(
        args.alphabet, args.min_period, args.weak_log_base, args.precision
    )
    run = _Run("bounds", params, args.out, seed=None)
    run.write("bounds.json", _json_text(report.to_jsonable()))
    run.finish(argv)
    print(_json_text(report.to_jsonable()), end="")
    return 0


def _cmd_construct_thue_morse(args, argv: list[str]) -> int:
    params = {"length": args.length}
    w = thue_morse(args.length)
    run = _Run("construct-thue-morse", params, args.out, seed=None)
    run.write("word.txt", render_word(w) + "\n")
    run.finish(argv)
    print(render_word(w))
    return 0


def _cmd_construct_rank_map(args, argv: list[str]) -> int:
    params = {"radix": args.radix, "block": args.block}
    rows = rank_map_table(args.radix, args.block)
    run = _Run("construct-rank-map", params, args.out, seed=None)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "rank", "value"])
    writer.writerows(rows)
    run.write("ftable.csv", buf.getvalue())
    run.finish(argv)
    print(buf.getvalue(), end="")
    print(
        f"image size L = {rank_map_image_size(args.radix, args.block)}",
        file=sys.stderr,
    )
    return 0


def _cmd_construct_colorize(args, argv: list[str]) -> int:
    params = {"alphabet": args.alphabet, "block": args.block, "base": args.base}
    base = parse_word(args.base, 2)
    w = colorize(base, args.alphabet, args.block)
    run = _Run("construct-colorize", params, args.out, seed=None)
    run.write("word.txt", render_word(w) + "\n")
    run.finish(argv)
    print(render_word(w))
    return 0


def _cmd_construct_witness(args, argv: list[str]) -> int:
    w = _input_word(args)
    params = {
        "alphabet": args.alphabet,
        "min_period": args.min_period,
        "word": render_word(w),
    }
    occ = pigeonhole_witness(w, args.alphabet, args.min_period)
    doc = {
        "start": occ.start,
        "period": occ.period,
        "length": occ.length,
        "exponent": fraction_json(occ.exponent),
    }
    run = _Run("construct-witness", params, args.out, seed=None)
    run.write("witness.json", _json_text(doc))
    run.finish(argv)
    print(_json_text(doc), end="")
    return 0


def _cmd_construct_mapped_word(args, argv: list[str]) -> int:
    params = {
        "source": args.source,
        "alphabet": args.alphabet,
        "radix": args.radix,
        "block": args.block,
        "length": args.length,
    }
    source = parse_word(args.source, args.alphabet)
    w = build_mapped_word(source, args.radix, args.block, args.length)
    run = _Run("construct-mapped-word", params, args.out, seed=None)
    run.write("word.txt", render_word(w) + "\n")
    run.finish(argv)
    print(render_word(w))
    return 0


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

    p = sub.add_parser("detect", help="scan one word for fractional powers")
    _add_word_input(p)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--threshold", help="exponent threshold p/q")
    p.add_argument("--mode", choices=["geq", "strict"], default="geq")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("search", help="backtrack for an avoiding word")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--threshold", required=True)
    p.add_argument("--mode", choices=["geq", "strict"], default="geq")
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("bracket", help="sweep exponents to bracket the threshold")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--max-denominator", type=int, default=6)
    p.add_argument("--target-length", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=5_000_000)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("sample", help="Moser-Tardos resampling")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--threshold", required=True)
    p.add_argument("--mode", choices=["geq", "strict"], default="geq")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-resamples", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("bounds", help="closed-form bound formulas")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--weak-log-base", type=float, default=None)
    p.add_argument("--precision", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bounds)

    pc = sub.add_parser("construct", help="explicit constructions")
    csub = pc.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("thue-morse")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct_thue_morse)

    p = csub.add_parser("rank-map")
    p.add_argument("--radix", type=int, required=True, help="block radix m")
    p.add_argument("--block", type=int, required=True, help="block size l")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct_rank_map)

    p = csub.add_parser("colorize")
    p.add_argument("--alphabet", type=int, required=True, help="even target alphabet >= 6")
    p.add_argument("--block", type=int, required=True, help="color block size l")
    p.add_argument("--base", required=True, help="binary base word text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct_colorize)

    p = csub.add_parser("witness")
    _add_word_input(p)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct_witness)

    p = csub.add_parser("mapped-word")
    p.add_argument("--source", required=True, help="source word text")
    p.add_argument("--alphabet", type=int, required=True, help="source alphabet size")
    p.add_argument("--radix", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_construct_mapped_word)

    return parser


if __name__ == "__main__":
    sys.exit(main())
