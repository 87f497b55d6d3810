import json
from pathlib import Path

import jsonschema
import pytest

from repthresh import cli, construct
from repthresh.cli import main
from repthresh.schemas import SCHEMA_NAMES, load_schema


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(doc: dict, schema_name: str) -> None:
    jsonschema.validate(doc, load_schema(schema_name))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_all_schemas_load():
    for name in SCHEMA_NAMES:
        schema = load_schema(name)
        jsonschema.Draft7Validator.check_schema(schema)


# --- detect ---------------------------------------------------------------------


def test_detect_thue_morse(capsys):
    code, out = run_cli(
        capsys, "detect", "--text", "0110100110010110", "--alphabet", "2",
        "--min-period", "1",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "detection_report")
    assert doc["max_exponent"] == {"num": 2, "den": 1}


def test_detect_with_threshold(capsys):
    code, out = run_cli(
        capsys, "detect", "--text", "012012", "--alphabet", "3",
        "--min-period", "3", "--threshold", "2/1", "--mode", "geq",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "detection_report")
    assert doc["constraint_violated"] is True
    assert doc["witness"] == {"start": 0, "period": 3, "length": 6}


def test_detect_bad_letter_exits_2(capsys):
    code, _ = run_cli(capsys, "detect", "--text", "9", "--alphabet", "2")
    assert code == 2


def test_detect_empty_word_exits_2(capsys):
    code, _ = run_cli(capsys, "detect", "--text", "", "--alphabet", "2")
    assert code == 2


def test_detect_comma_alphabet(capsys):
    code, out = run_cli(
        capsys, "detect", "--text", "41,7,41,7,41", "--alphabet", "64",
        "--min-period", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_exponent"] == {"num": 5, "den": 2}
    assert doc["witness"] == {"start": 0, "period": 2, "length": 5}


def test_detect_word_file(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# squares ahead\n0101\n")
    code, out = run_cli(
        capsys, "detect", "--word-file", str(path), "--alphabet", "2",
    )
    assert code == 0
    assert json.loads(out)["max_exponent"] == {"num": 2, "den": 1}


def test_detect_multi_word_file_exits_2(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0101\n0011\n")
    code, _ = run_cli(capsys, "detect", "--word-file", str(path), "--alphabet", "2")
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--alphabet", "2"])  # no word given
    assert exc.value.code == 2


def test_search_no_symmetry_exits_2(capsys, tmp_path):
    # the searcher walks only the canonical tree, so there is no switch
    with pytest.raises(SystemExit) as exc:
        main(["search", "--alphabet", "3", "--threshold", "7/4", "--no-symmetry"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-symmetry" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- search ---------------------------------------------------------------------


def test_search_exhausted(capsys, tmp_path):
    out_dir = tmp_path / "srch"
    code, out = run_cli(
        capsys, "search", "--alphabet", "2", "--min-period", "1",
        "--threshold", "2/1", "--mode", "geq", "--max-length", "10",
        "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "search_certificate")
    assert doc["outcome"] == "EXHAUSTED"
    assert doc["max_depth"] == 3
    assert read_json(out_dir / "certificate.json") == doc
    manifest = read_json(out_dir / "manifest.json")
    validate(manifest, "run_manifest")
    assert "certificate.json" in manifest["outputs"]


def test_search_reached(capsys, tmp_path):
    out_dir = tmp_path / "srch2"
    code, out = run_cli(
        capsys, "search", "--alphabet", "2", "--threshold", "2/1",
        "--mode", "strict", "--max-length", "60", "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "REACHED"
    assert len(doc["witness"]) == 60


# --- bracket --------------------------------------------------------------------


def test_bracket_run(capsys, tmp_path):
    out_dir = tmp_path / "br"
    code, out = run_cli(
        capsys, "bracket", "--alphabet", "3", "--min-period", "1",
        "--max-denominator", "4", "--target-length", "80", "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip() == "a=3 l=1 r_lo=7/4 r_hi=2/1 c_hat=3"
    doc = read_json(out_dir / "bracket.json")
    validate(doc, "bracket")
    assert doc["r_lo"] == {"num": 7, "den": 4}
    sweep = (out_dir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "a,l,num,den,mode,outcome,depth_or_length"
    assert any(row.startswith("3,1,7,4,geq,EXHAUSTED,") for row in sweep)
    assert any(row.startswith("3,1,2,1,geq,REACHED,80") for row in sweep)
    validate(read_json(out_dir / "manifest.json"), "run_manifest")


# --- sample ---------------------------------------------------------------------


def test_sample_converges(capsys, tmp_path):
    out_dir = tmp_path / "smp"
    code, out = run_cli(
        capsys, "sample", "--alphabet", "2", "--min-period", "3",
        "--threshold", "2/1", "--length", "60", "--seed", "1",
        "--max-resamples", "100000", "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "sampler_report")
    assert doc["result"] is not None
    word_text = (out_dir / "word.txt").read_text().strip()
    assert word_text == doc["result"]
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["seed"] == 1


def test_sample_nonconvergence_exits_3(capsys, tmp_path):
    out_dir = tmp_path / "smp2"
    code, out = run_cli(
        capsys, "sample", "--alphabet", "2", "--threshold", "2/1",
        "--length", "10", "--seed", "1", "--max-resamples", "2000",
        "--out", str(out_dir),
    )
    assert code == 3
    doc = json.loads(out)
    validate(doc, "sampler_report")
    assert doc["result"] is None
    assert not (out_dir / "word.txt").exists()


def test_sample_threshold_one_exits_2(capsys):
    code, _ = run_cli(
        capsys, "sample", "--alphabet", "2", "--threshold", "1/1",
        "--length", "5",
    )
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sample_seed_out_of_range_exits_2(capsys, tmp_path, seed):
    # both would run the stream of a seed in range under another name
    assert_clean_failure(
        capsys, tmp_path,
        ["sample", "--alphabet", "2", "--min-period", "3", "--threshold", "2/1",
         "--length", "20", "--seed", seed],
    )


def test_sample_alphabet_above_2_to_the_64_exits_2(capsys, tmp_path):
    # one 64-bit draw per letter never reaches a letter of 2**64 or more
    assert_clean_failure(
        capsys, tmp_path,
        ["sample", "--alphabet", str(2**64 + 1), "--threshold", "2", "--length", "8"],
    )


# --- bounds ---------------------------------------------------------------------


def test_bounds(capsys, tmp_path):
    out_dir = tmp_path / "bnd"
    code, out = run_cli(
        capsys, "bounds", "--alphabet", "2", "--min-period", "2",
        "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "bound_report")
    assert doc["simple_lower"] == {"num": 5, "den": 4}
    assert doc["fov_lower"] == {"num": 4, "den": 3}
    validate(read_json(out_dir / "manifest.json"), "run_manifest")


# --- construct ------------------------------------------------------------------


def test_construct_thue_morse(capsys, tmp_path):
    out_dir = tmp_path / "tm"
    code, out = run_cli(
        capsys, "construct", "thue-morse", "--length", "8", "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip() == "01101001"
    assert (out_dir / "word.txt").read_text().strip() == "01101001"


def test_construct_rank_map(capsys, tmp_path):
    out_dir = tmp_path / "rm"
    code, out = run_cli(
        capsys, "construct", "rank-map", "--radix", "2", "--block", "8",
        "--out", str(out_dir),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,rank,value"
    values = [int(line.split(",")[2]) for line in lines[1:]]
    assert values == [0, 1, 0, 2, 0, 1, 0, 3]
    assert (out_dir / "ftable.csv").read_text().strip() == out.strip()


def test_construct_rank_map_builds_its_table_once(capsys, monkeypatch):
    builds = []
    table = construct.rank_map_table

    def counting_table(m, l):
        builds.append((m, l))
        return table(m, l)

    monkeypatch.setattr(cli, "rank_map_table", counting_table)
    monkeypatch.setattr(construct, "rank_map_table", counting_table)
    assert main(["construct", "rank-map", "--radix", "2", "--block", "8"]) == 0
    assert "image size L = 4" in capsys.readouterr().err.splitlines()
    assert builds == [(2, 8)]


def test_construct_colorize(capsys, tmp_path):
    out_dir = tmp_path / "col"
    code, out = run_cli(
        capsys, "construct", "colorize", "--alphabet", "6", "--block", "1",
        "--base", "000000", "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip() == "024024"


def test_construct_witness(capsys, tmp_path):
    out_dir = tmp_path / "wit"
    code, out = run_cli(
        capsys, "construct", "witness", "--text", "010", "--alphabet", "2",
        "--min-period", "1", "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert read_json(out_dir / "witness.json") == doc
    validate(doc, "witness")
    assert doc == {
        "start": 0,
        "period": 2,
        "length": 3,
        "exponent": {"num": 3, "den": 2},
    }


def test_construct_mapped_word(capsys, tmp_path):
    out_dir = tmp_path / "map"
    code, out = run_cli(
        capsys, "construct", "mapped-word", "--source", "0123456789",
        "--alphabet", "10", "--radix", "2", "--block", "8", "--length", "8",
        "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip() == "01020103"


def test_construct_mapped_word_short_source_exits_2(capsys):
    code, _ = run_cli(
        capsys, "construct", "mapped-word", "--source", "01",
        "--alphabet", "2", "--radix", "2", "--block", "8", "--length", "8",
    )
    assert code == 2


# --- default artifact directory ---------------------------------------------------


def test_default_runs_directory(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "search", "--alphabet", "2", "--threshold", "2/1",
        "--max-length", "8",
    )
    assert code == 0
    dirs = list((tmp_path / "runs").iterdir())
    assert len(dirs) == 1
    assert dirs[0].name.startswith("search-")
    assert (dirs[0] / "certificate.json").exists()
    assert (dirs[0] / "manifest.json").exists()
    # no leftover temp files from atomic writes
    assert not list(dirs[0].glob("*.tmp"))


# --- manifest parameters and default run names ------------------------------------
# Literal values from runs of the version whose handlers built each parameter
# dict by hand (the search row rerun once `search` lost its symmetry switch);
# the derived names must not drift from them.


@pytest.mark.parametrize(
    "argv, run_name, subcommand, seed, parameters",
    [
        (
            ["search", "--alphabet", "3", "--threshold", "7/4"],
            "search-e5b7886ae3", "search", None,
            {"alphabet": 3, "max_length": 200, "min_period": 1, "mode": "geq",
             "node_budget": None, "threshold": "7/4"},
        ),
        (
            ["bracket", "--alphabet", "2", "--min-period", "2", "--max-denominator", "3"],
            "bracket-a116a9b712", "bracket", None,
            {"alphabet": 2, "max_denominator": 3, "min_period": 2,
             "node_budget": 5000000, "target_length": 200},
        ),
        (
            ["sample", "--alphabet", "2", "--min-period", "3", "--threshold", "2/1",
             "--length", "40", "--seed", "7"],
            "sample-c67ce4d74c", "sample", 7,
            {"alphabet": 2, "length": 40, "max_resamples": 100000, "min_period": 3,
             "mode": "geq", "seed": 7, "threshold": "2/1"},
        ),
        (
            ["bounds", "--alphabet", "3", "--min-period", "4", "--weak-log-base", "2.5"],
            "bounds-0af44f2bab", "bounds", None,
            {"alphabet": 3, "min_period": 4, "precision": 12, "weak_log_base": 2.5},
        ),
        (
            ["construct", "thue-morse", "--length", "8"],
            "construct-thue-morse-3e5660cb74", "construct-thue-morse", None,
            {"length": 8},
        ),
        (
            ["construct", "rank-map", "--radix", "2", "--block", "8"],
            "construct-rank-map-8a65b7ea82", "construct-rank-map", None,
            {"block": 8, "radix": 2},
        ),
        (
            ["construct", "colorize", "--alphabet", "6", "--block", "1",
             "--base", "000000"],
            "construct-colorize-c4935dc5ce", "construct-colorize", None,
            {"alphabet": 6, "base": "000000", "block": 1},
        ),
        (
            ["construct", "witness", "--word-file", "w.txt", "--alphabet", "2"],
            "construct-witness-6f4654b973", "construct-witness", None,
            {"alphabet": 2, "min_period": 1, "word": "0110"},
        ),
        (
            ["construct", "mapped-word", "--source", "0123456789", "--alphabet", "10",
             "--radix", "2", "--block", "8", "--length", "8"],
            "construct-mapped-word-ef4d9f42bc", "construct-mapped-word", None,
            {"alphabet": 10, "block": 8, "length": 8, "radix": 2,
             "source": "0123456789"},
        ),
    ],
    ids=["search", "bracket", "sample", "bounds", "thue-morse", "rank-map", "colorize",
         "witness", "mapped-word"],
)
def test_manifest_parameters_pinned(capsys, tmp_path, argv, run_name, subcommand, seed, parameters):
    (tmp_path / "w.txt").write_text("# pinned\n0110\n")
    assert main(argv) == 0
    capsys.readouterr()
    dirs = [d.name for d in (tmp_path / "runs").iterdir()]
    assert dirs == [run_name]
    manifest = read_json(tmp_path / "runs" / run_name / "manifest.json")
    validate(manifest, "run_manifest")
    assert manifest["subcommand"] == subcommand
    assert manifest["seed"] == seed
    assert manifest["parameters"] == parameters


# --- manifest replay ---------------------------------------------------------------


def _strip_volatile(doc):
    if isinstance(doc, dict):
        return {
            k: _strip_volatile(v)
            for k, v in doc.items()
            if k not in ("elapsed_ms",)
        }
    if isinstance(doc, list):
        return [_strip_volatile(v) for v in doc]
    return doc


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (
            ["search", "--alphabet", "2", "--threshold", "2/1", "--mode", "strict",
             "--max-length", "40", "--out", "run1"],
            "certificate.json",
        ),
        (
            ["bracket", "--alphabet", "2", "--min-period", "1",
             "--max-denominator", "2", "--target-length", "40", "--out", "run1"],
            "bracket.json",
        ),
        (
            ["sample", "--alphabet", "2", "--min-period", "3", "--threshold", "2/1",
             "--length", "40", "--seed", "7", "--out", "run1"],
            "report.json",
        ),
        (
            ["bounds", "--alphabet", "3", "--min-period", "4", "--out", "run1"],
            "bounds.json",
        ),
        (
            ["construct", "thue-morse", "--length", "32", "--out", "run1"],
            "word.txt",
        ),
    ],
)
def test_manifest_replay(capsys, tmp_path, argv, artifact):
    code = main(argv)
    assert code == 0
    capsys.readouterr()
    manifest = read_json(tmp_path / "run1" / "manifest.json")
    first = (tmp_path / "run1" / artifact).read_text()

    replay_argv = [arg if arg != "run1" else "run2" for arg in manifest["command"]]
    code = main(replay_argv)
    assert code == 0
    capsys.readouterr()
    second = (tmp_path / "run2" / artifact).read_text()

    if artifact.endswith(".json"):
        assert _strip_volatile(json.loads(first)) == _strip_volatile(
            json.loads(second)
        )
    else:
        assert first == second


# --- failure contract: exit 2, one error line, nothing left on disk ----------------


def assert_clean_failure(capsys, tmp_path, argv, keep=()):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(keep)


def test_detect_missing_word_file_exits_2(capsys, tmp_path):
    assert_clean_failure(
        capsys, tmp_path,
        ["detect", "--word-file", str(tmp_path / "missing.txt"), "--alphabet", "2"],
    )


def test_detect_non_ascii_text_exits_2(capsys, tmp_path):
    # non-ASCII text goes through the decoder's translate pass as '?'
    assert main(["detect", "--alphabet", "2", "--text", "01\u00e9"]) == 2
    assert capsys.readouterr().err == "error: position 2: invalid letter character '\u00e9'\n"
    assert list(tmp_path.iterdir()) == []
    # argv holds an undecodable byte as a lone surrogate
    assert main(["detect", "--alphabet", "2", "--text", "0\udcff1"]) == 2
    assert capsys.readouterr().err == "error: position 1: invalid letter character '\\udcff'\n"
    assert list(tmp_path.iterdir()) == []


def test_detect_signed_comma_token_exits_2(capsys, tmp_path):
    # int() reads "+3" as 3; the decoder takes only ASCII digits
    assert_clean_failure(capsys, tmp_path, ["detect", "--alphabet", "64", "--text", "+3"])


@pytest.mark.parametrize("threshold", ["-7/-4", "+7/4", " 7/4", "1_0/7", "\u0667/\u0664", "7/0"])
def test_bad_threshold_exits_2(capsys, tmp_path, threshold):
    # int() alone reads signs, spaces, '_' and non-ASCII digits
    assert_clean_failure(
        capsys, tmp_path,
        ["search", "--alphabet", "2", "--threshold=" + threshold, "--max-length", "8"],
    )


# One argv per artifact-writing subcommand; each run succeeds when --out
# is writable.
WRITING_ARGVS = {
    "search": ["search", "--alphabet", "2", "--threshold", "2/1", "--max-length", "8"],
    "bracket": ["bracket", "--alphabet", "2", "--max-denominator", "2",
                "--target-length", "20"],
    "sample": ["sample", "--alphabet", "2", "--min-period", "3", "--threshold", "2/1",
               "--length", "20"],
    "bounds": ["bounds", "--alphabet", "2", "--min-period", "2"],
    "thue-morse": ["construct", "thue-morse", "--length", "8"],
    "rank-map": ["construct", "rank-map", "--radix", "2", "--block", "8"],
    "colorize": ["construct", "colorize", "--alphabet", "6", "--block", "1",
                 "--base", "000000"],
    "witness": ["construct", "witness", "--text", "010", "--alphabet", "2"],
    "mapped-word": ["construct", "mapped-word", "--source", "0123456789",
                    "--alphabet", "10", "--radix", "2", "--block", "8", "--length", "8"],
}


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS.keys())
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    assert_clean_failure(
        capsys, tmp_path,
        [*argv, "--out", str(tmp_path / "blocker" / "run")],
        keep=["blocker"],
    )


def test_rank_map_block_zero_exits_2(capsys, tmp_path):
    for argv in (
        ["construct", "rank-map", "--block", "0", "--radix", "2"],
        ["construct", "mapped-word", "--source", "01", "--alphabet", "2",
         "--radix", "2", "--block", "0", "--length", "3"],
    ):
        assert_clean_failure(capsys, tmp_path, argv)


def test_mapped_word_bad_radix_or_block_at_length_zero_exits_2(capsys, tmp_path):
    # an empty word maps no index, so the options are checked up front
    for radix, block in (("1", "0"), ("1", "8"), ("2", "0")):
        assert_clean_failure(
            capsys, tmp_path,
            ["construct", "mapped-word", "--source", "01", "--alphabet", "2",
             "--radix", radix, "--block", block, "--length", "0"],
        )


def test_bracket_max_denominator_zero_exits_2(capsys, tmp_path):
    assert_clean_failure(
        capsys, tmp_path, ["bracket", "--alphabet", "2", "--max-denominator", "0"]
    )


def test_bounds_precision_zero_exits_2(capsys, tmp_path):
    assert_clean_failure(capsys, tmp_path, ["bounds", "--alphabet", "2", "--precision", "0"])


def test_node_budget_below_one_exits_2(capsys, tmp_path):
    for argv in (
        ["search", "--alphabet", "2", "--threshold", "2", "--node-budget", "-1"],
        ["bracket", "--alphabet", "2", "--node-budget", "0"],
    ):
        assert_clean_failure(capsys, tmp_path, argv)


_HUGE = "1" + "0" * 400


# Sizes the allocator refuses at once: 2**62 list slots fail Python's own
# size check (MemoryError), and 10**19 or more does not fit an index
# (OverflowError), so none of these runs allocates anything.
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--alphabet", "2", "--threshold", "3", "--max-length", str(2**62)],
        ["search", "--alphabet", "2", "--threshold", "3", "--max-length", str(10**19)],
        ["bracket", "--alphabet", "2", "--target-length", str(10**19)],
        ["search", "--alphabet", _HUGE, "--threshold", "2"],
        ["bounds", "--alphabet", _HUGE],
    ],
    ids=["memory", "overflow-length", "overflow-bracket", "overflow-default-length", "overflow-float"],
)
def test_size_overflow_exits_2(capsys, tmp_path, argv):
    assert_clean_failure(capsys, tmp_path, argv)


def test_failed_artifact_write_leaves_nothing(capsys, tmp_path, monkeypatch):
    write_text = Path.write_text
    calls = []

    def failing_second_write(self, data, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", str(self))
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_second_write)
    assert_clean_failure(
        capsys, tmp_path,
        ["bracket", "--alphabet", "3", "--max-denominator", "2",
         "--target-length", "20"],
    )
    assert calls == ["bracket.json", "sweep.csv"]


def test_rerun_into_existing_out_replaces_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "certificate.json").write_text("stale\n")
    (out_dir / "notes.txt").write_text("kept\n")
    code, _ = run_cli(
        capsys, "search", "--alphabet", "2", "--threshold", "2/1",
        "--max-length", "8", "--out", str(out_dir),
    )
    assert code == 0
    assert read_json(out_dir / "certificate.json")["outcome"] == "EXHAUSTED"
    assert (out_dir / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
