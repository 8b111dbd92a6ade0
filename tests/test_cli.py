import cmath
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import pattern_blocks
import speclab.boundary as boundary
import speclab.cli as cli
import speclab.surface_group as sg
from speclab.cli import _indented_list, _json_str, main
from speclab.fricke import rep_from_json, rep_to_json, schottky_sample
from speclab.mobius import EPS
from speclab.spectrum import modular_torus_rep, pattern, spectrum


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "speclab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_sample_and_spectrum_pipeline(tmp_path):
    rep_path = tmp_path / "rep.json"
    assert main(["sample", "--seed", "3", "--output", str(rep_path)]) == 0
    doc = json.loads(rep_path.read_text())
    assert doc["genus"] == 1 and doc["punctures"] == 1
    out_path = tmp_path / "spec.csv"
    code = main(
        [
            "spectrum",
            "--rep-file",
            str(rep_path),
            "--maxlen",
            "2",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "class,trace,length"
    assert len(lines) == 13  # 12 classes of length <= 2


def test_pattern_command(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    main(["sample", "--seed", "5", "--output", str(rep_path)])
    assert main(["pattern", "--rep-file", str(rep_path), "--maxlen", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    flat = sorted(w for b in doc["blocks"] for w in b)
    assert len(flat) == 12
    assert any({"a1", "A1"} <= set(b) for b in doc["blocks"])


def test_compare_self_holds(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    main(["sample", "--seed", "9", "--output", str(rep_path)])
    code = main(
        ["compare", "--rep-file", str(rep_path), "--other", str(rep_path), "--maxlen", "3"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_tracepoly_command(capsys):
    assert main(["tracepoly", "--word", "a b A B"]) == 0
    spaced = capsys.readouterr().out
    assert main(["tracepoly", "--word", "abAB"]) == 0
    compact = capsys.readouterr().out
    assert spaced == compact
    assert "t{1,2}" in compact


def test_rmin_command(capsys):
    assert main(["rmin", "--seed", "1", "ab", "ba", "aB"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    verdicts = {tuple(json.loads(l)["pair"]): json.loads(l)["verdict"] for l in lines}
    assert verdicts[("ab", "ba")] == "equal"
    assert verdicts[("ab", "aB")] == "distinct"


def test_cocycle_verify_exit_code(capsys):
    assert main(["cocycle-verify", "--seed", "7", "--samples", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(json.loads(l)["pass"] for l in lines)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cocycle_verify_rejects_samples_below_one(samples, capsys):
    assert main(["cocycle-verify", "--seed", "3", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: samples must be >= 1" in captured.err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_rmin_rejects_samples_below_one(samples, capsys):
    assert main(["rmin", "--seed", "3", "--samples", samples, "ab", "aab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: n_reps must be >= 1" in captured.err


@pytest.mark.parametrize(
    "words,message",
    [(["ab"], "rmin needs at least two words"), (["ab", "aA"], "empty word")],
    ids=["single-word", "trivial-word"],
)
def test_rmin_needs_two_nontrivial_words(words, message, capsys):
    # a single word forms no pair, and aA reduces to the identity
    assert main(["rmin", "--seed", "3", *words]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cocycle_verify_rejection_cap_is_input_error(monkeypatch, capsys):
    # every image coincides, so the pairing check rejects every draw
    monkeypatch.setattr(boundary, "circle_images", lambda q, us: ([1.0] * len(us), [cmath.exp(1j)] * len(us)))
    assert main(["cocycle-verify", "--seed", "7", "--samples", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pairing_identity: 300 of 300 draws rejected")


def test_scan_command(capsys):
    assert main(["scan", "--seed", "2", "--trials", "2", "--maxlen", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for l in lines:
        assert json.loads(l)["violations"] == []


def test_seed_required():
    assert main(["sample"]) == 1


def test_missing_file_is_input_error():
    assert main(["spectrum", "--rep-file", "/nonexistent/rep.json"]) == 1


@pytest.mark.parametrize("option", ["--config", "--rep-file", "--other", "--output"])
def test_directory_path_is_input_error(option, tmp_path, capsys):
    rep_path = str(tmp_path / "rep.json")
    assert main(["sample", "--seed", "1", "--output", rep_path]) == 0
    directory = str(tmp_path)
    argv = {
        "--config": ["spectrum", "--seed", "1", "--maxlen", "2", "--config", directory],
        "--rep-file": ["spectrum", "--rep-file", directory, "--maxlen", "2"],
        "--other": ["compare", "--rep-file", rep_path, "--other", directory, "--maxlen", "2"],
        "--output": ["sample", "--seed", "1", "--output", directory],
    }[option]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_elliptic_rep_file_is_input_error(tmp_path, capsys):
    # a: rotation by pi/2 (trace 0) is elliptic, so the spectrum cannot be taken
    rep_path = tmp_path / "elliptic.json"
    rep_path.write_text(
        json.dumps(
            {
                "genus": 1,
                "punctures": 1,
                "matrices": [["0", "-1", "1", "0"], ["2", "0", "0", "0.5"], ["1", "0", "0", "1"]],
            }
        )
    )
    assert main(["spectrum", "--rep-file", str(rep_path), "--maxlen", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "elliptic" in err


def _write_rep(path, matrices):
    path.write_text(json.dumps({"genus": 1, "punctures": 1, "matrices": matrices}))
    return str(path)


def test_rep_file_with_missing_matrix_is_input_error(tmp_path, capsys):
    # genus 1 with one puncture has three generators; the file gives two
    rep = _write_rep(tmp_path / "short.json", [["2", "0", "0", "0.5"], ["1", "1", "1", "2"]])
    assert main(["spectrum", "--rep-file", rep, "--maxlen", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 matrices" in err


def test_rep_file_with_short_row_is_input_error(tmp_path, capsys):
    rep = _write_rep(
        tmp_path / "row.json", [["2", "0", "0", "0.5"], ["1", "1", "1"], ["1", "0", "0", "1"]]
    )
    assert main(["pattern", "--rep-file", rep, "--maxlen", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"punctures": 1, "matrices": []},
        {"genus": "1", "punctures": 1, "matrices": []},
        {"genus": 1, "punctures": True, "matrices": []},
        {"genus": 1, "punctures": 1},
        {"genus": 1, "punctures": 1, "matrices": [[None, 0, 0, 1], [3, 1, 1, 1], [1, 0, 0, 1]]},
        {"genus": 1, "punctures": 1, "matrices": [["2", "x", 0, 0.5], [3, 1, 1, 1], [1, 0, 0, 1]]},
        # a closed genus-2 surface: only punctured surfaces are supported
        {"genus": 2, "punctures": 0, "matrices": [[1, 0, 0, 1]] * 4},
        # an integer entry too large for a float
        {"genus": 1, "punctures": 1, "matrices": [[10**400, 0, 0, 1]] + [[1, 0, 0, 1]] * 2},
        # a sphere with two punctures: free rank 1, every class a power of g1
        {"genus": 0, "punctures": 2, "matrices": [[2, 0, 0, 0.5], [0.5, 0, 0, 2]]},
    ],
)
def test_malformed_rep_file_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", "--rep-file", str(path), "--maxlen", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_stored_validity_block_is_ignored(tmp_path, capsys):
    # validity and certificate are derived from the matrices on load
    doc = {"genus": 1, "punctures": 1, "matrices": [[2, 0, 0, 0.5], [1, 1, 1, 2], [1, 0, 0, 1]]}
    outs = []
    for validity in (None, {"discreteness_certificate": [1]}):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(dict(doc, validity=validity)))
        assert main(["spectrum", "--rep-file", str(path), "--maxlen", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


def test_rep_file_with_det_not_one_is_input_error(tmp_path, capsys):
    rep = _write_rep(tmp_path / "det.json", [[4, 0, 0, 1], [3, 1, 1, 1], [1, 0, 0, 1]])
    assert main(["spectrum", "--rep-file", rep, "--maxlen", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "matrix 1 has det" in err


def test_rep_file_with_integer_det_two_generators_is_input_error(tmp_path, capsys):
    rep = _write_rep(tmp_path / "det2.json", [[2, 1, 1, 1], [2, 2, 1, 2], [1, 0, 0, 1]])
    assert main(["spectrum", "--rep-file", rep, "--maxlen", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: matrix 2 has det 2.0, not 1\n" and captured.out == ""


# each entry as it is written in the file: strings, and the JSON number 1e400
@pytest.mark.parametrize("entry", ['"1e400"', '"inf"', '"-inf"', "1e400"])
def test_rep_file_with_non_finite_entry_is_input_error(tmp_path, capsys, entry):
    # these once loaded as inf and printed "inf" lengths with exit 0
    path = tmp_path / "inf.json"
    path.write_text(
        '{"genus": 1, "punctures": 1, "matrices": [[%s, "0", "0", "1"], [2, 0, 0, 0.5], [1, 1, 1, 2]]}'
        % entry
    )
    assert main(["spectrum", "--rep-file", str(path), "--maxlen", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: matrix 1 has an entry that is not finite\n" and captured.out == ""


def test_compare_rejects_malformed_other(tmp_path, capsys):
    good = tmp_path / "rep.json"
    main(["sample", "--seed", "9", "--output", str(good)])
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["compare", "--rep-file", str(good), "--other", str(bad), "--maxlen", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["spectrum", "pattern"])
def test_rank_other_than_the_rep_files_is_input_error(command, tmp_path, capsys):
    rep = tmp_path / "rep3.json"
    main(["sample", "--seed", "1", "--rank", "3", "--output", str(rep)])
    argv = [command, "--rep-file", str(rep), "--maxlen", "2"]
    assert main([*argv, "--rank", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --rank 2 differs from the rep file's free rank 3\n"
    # without --rank the file's rank is read; a matching --rank is accepted
    assert main(argv) == 0
    own = capsys.readouterr().out
    assert main([*argv, "--rank", "3"]) == 0
    assert capsys.readouterr().out == own != ""


def test_rep_file_and_seed_conflict(tmp_path):
    rep_path = tmp_path / "rep.json"
    main(["sample", "--seed", "3", "--output", str(rep_path)])
    assert main(["spectrum", "--rep-file", str(rep_path), "--seed", "3"]) == 1


def test_determinism_byte_identical():
    r1 = run_cli(["sample", "--seed", "123"])
    r2 = run_cli(["sample", "--seed", "123"])
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    r3 = run_cli(["scan", "--seed", "11", "--trials", "2", "--maxlen", "3"])
    r4 = run_cli(["scan", "--seed", "11", "--trials", "2", "--maxlen", "3"])
    assert r3.stdout == r4.stdout


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "rank": 3}))
    assert main(["sample", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 1 and len(doc["matrices"]) == 4


def test_explicit_flag_wins_over_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "maxlen": 2}))
    assert main(["spectrum", "--maxlen", "3", "--config", str(cfg)]) == 0
    with_config = capsys.readouterr().out
    assert main(["spectrum", "--seed", "4", "--maxlen", "3"]) == 0
    assert with_config == capsys.readouterr().out
    assert len(with_config.splitlines()) == 4 + 8 + 12  # classes of length <= 3


def test_config_value_of_wrong_type_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, doc in (
        ("spectrum", {"maxlen": "3"}),
        ("cocycle-verify", {"samples": 1.5}),
        ("spectrum", {"format": "xml"}),
        ("spectrum", {"trials": 2}),
    ):
        cfg.write_text(json.dumps(doc))
        assert main([command, "--seed", "4", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config key" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--seed", "1"],
        ["spectrum", "--seed", "1", "--maxlen", "3"],
        ["pattern", "--seed", "1", "--maxlen", "3"],
        ["tracepoly", "--word", "ab"],
        ["rmin", "--seed", "1", "ab", "ba"],
        ["scan", "--seed", "1", "--trials", "1", "--maxlen", "3"],
        ["cocycle-verify", "--seed", "1", "--samples", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_scan_rank_below_two_is_input_error(argv, capsys):
    # every command checks the rank in one place, Presentation.free
    assert main([*argv, "--rank", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need m >= 2, got 1\n"


def test_scan_arithmetic_point_at_rank_three_is_input_error(capsys):
    argv = ["scan", "--seed", "1", "--rank", "3", "--trials", "1", "--maxlen", "3"]
    assert main([*argv, "--arithmetic-point"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the arithmetic point is a rank-2 rep, got m = 3\n"


def test_format_is_a_spectrum_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "--seed", "4", "--maxlen", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_tolerance_is_an_option_of_no_command(tmp_path, capsys):
    # the equal-length gap is fixed, so no command takes a tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-9}))
    for argv in (
        ["pattern", "--seed", "1", "--maxlen", "3"],
        ["compare", "--rep-file", "r.json", "--other", "r.json"],
        ["scan", "--seed", "1", "--trials", "1", "--maxlen", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tolerance", "1e-9"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: speclab {argv[0]} ")
        assert main(argv + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key 'tolerance' is not an option of this command\n"


# shared options a command does not read are not options of that command
UNREAD_OPTIONS = [
    (["sample", "--seed", "1"], "--maxlen"),
    (["compare", "--rep-file", "r.json", "--other", "r.json"], "--seed"),
    (["compare", "--rep-file", "r.json", "--other", "r.json"], "--rank"),
    (["tracepoly", "--word", "ab"], "--seed"),
    (["tracepoly", "--word", "ab"], "--maxlen"),
    (["rmin", "--seed", "1", "ab"], "--maxlen"),
    (["cocycle-verify", "--seed", "1"], "--maxlen"),
]


@pytest.mark.parametrize(
    "argv,option", UNREAD_OPTIONS, ids=[f"{a[0]}{o}" for a, o in UNREAD_OPTIONS]
)
def test_unread_option_is_refused(argv, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # reported by the command's own parser: its usage line names the command
    assert err.startswith(f"usage: speclab {argv[0]} ")
    assert f"speclab {argv[0]}: error: unrecognized arguments: {option} 3" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option[2:]: 3}))
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {option[2:]!r} is not an option of this command\n"


# sha256 of stdout at fixed seeds; a change to any printed digit fails here
GOLDEN_STDOUT = [
    (
        ["spectrum", "--seed", "11", "--rank", "3", "--maxlen", "5"],
        "b3c5cecbbe15a17837d42a3d63273d35d4e3c1a5e8fb38c7340d0899dc9b822b",
    ),
    (
        ["spectrum", "--seed", "11", "--maxlen", "7", "--format", "csv"],
        "f56cf5d5c5ede0acd949c3dd035c269c688c73c1a44e794b7e7923b3415339f3",
    ),
    (
        ["pattern", "--seed", "11", "--rank", "3", "--maxlen", "5"],
        "5814e2b64630fe2e24e07b3e01fef0bc75fa8ebe437bafd63f3ebdb2a5e3787d",
    ),
    (
        ["scan", "--seed", "1", "--trials", "5", "--maxlen", "6", "--arithmetic-point"],
        "1ee5f580265c4510a5b581e38a3d0deaf2235780df75d632d1229e6768a86bf4",
    ),
    (
        ["scan", "--seed", "1", "--trials", "20", "--maxlen", "8", "--arithmetic-point"],
        "f7ff6f1af890a0cf98ffe6fe3570a10ada781a10ad015babaa30968b839ea89a",
    ),
    (
        ["scan", "--seed", "11", "--rank", "3", "--trials", "5", "--maxlen", "5"],
        "370e9dd62d2eaf9fb76de2b4e9f629e81e72e11b52e1e22fef136c757a4de46a",
    ),
    (
        ["cocycle-verify", "--seed", "7", "--samples", "200"],
        "195b3cb3e14a4bedd1a6a9795e15f297a766340b606a04b9306ceb84c02c854e",
    ),
    (
        ["cocycle-verify", "--seed", "11", "--rank", "3", "--samples", "200"],
        "fcbb08984cb238284ee4b2bbacbce2640ff8b18b66fb9aafcf54930a6092a565",
    ),
    (
        ["tracepoly", "--word", "abAB"],
        "adc516d075b659dabce9369b2370ddcaa3d435c5c1e485e1d8783be7c6a98d0d",
    ),
    (
        ["tracepoly", "--word", "aaBBabAb"],
        "429ab76bcf9689c404dace8136394ea27fe1a322308a11464052ec38e451dbf4",
    ),
    (
        ["tracepoly", "--rank", "3", "--word", "abcabc"],
        "2418fae9d147ae74aa7b634472a325b33b07544e6967d760477a477a48016f7a",
    ),
    # rank-4 polynomial text depends on the order of the three rewrite rules
    # (inverse letter, repeated letter, product rule): another order changes
    # this word's polynomial, though not its value at any rep
    (
        ["tracepoly", "--rank", "4", "--word", "abcdbb"],
        "1b229a2120f1f1cfdbba2e0e08a852df7de9dfba9506e0c7cab59d5aebd2e48b",
    ),
    (
        ["rmin", "--seed", "1", "ab", "ba", "aB"],
        "214d171e2d2ca68b7829aedfc2685259bd49458d1a34408f2c554ad95a57ad5b",
    ),
    (
        ["rmin", "--seed", "1", "--rank", "3", "abc", "bca", "acb", "CBA"],
        "3586940dbcf26ad4c26337c2f7031bfea201ce99884f53f42cfcc3c86b1a3ee1",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_STDOUT,
    ids=[
        "spectrum-jsonl",
        "spectrum-csv",
        "pattern",
        "scan",
        "scan-bench-size",
        "scan-rank3",
        "cocycle-verify",
        "cocycle-verify-rank3",
        "tracepoly-commutator",
        "tracepoly-squares",
        "tracepoly-rank3",
        "tracepoly-rank4",
        "rmin",
        "rmin-rank3",
    ],
)
def test_golden_stdout(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("chunk", [None, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize(
    "argv,digest", GOLDEN_STDOUT[:3], ids=["spectrum-jsonl", "spectrum-csv", "pattern"]
)
def test_output_file_holds_the_golden_stdout(argv, digest, chunk, tmp_path, monkeypatch, capsys):
    # --output writes the bytes stdout gets; a 7-part chunk splits the rows
    # over many writes, as a large spectrum's are
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    path = tmp_path / "out"
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,bound",
    [
        (["spectrum", "--format", "jsonl"], 6_000_000),
        (["spectrum", "--format", "csv"], 6_000_000),
        (["pattern"], 4_500_000),
    ],
    ids=["jsonl", "csv", "pattern"],
)
def test_spectrum_output_peak_is_the_spectrums(command, bound, tmp_path):
    # rows are written as they are formatted, so the peak is the spectrum's
    # and one chunk of text (3.2 MB jsonl, 3.3 MB csv at rank 3, L=7), not
    # also a list of lines, their joined text and its encoded copy (8.2 MB
    # and 7.2 MB when the text was built).  pattern makes each word's text
    # as its block takes it (3.9 MB), not a list of every word's text
    # beside the blocks (5.0 MB).  The first call in a process also fills
    # the interpreter's free lists and imports what argparse imports on
    # first use (0.6 to 1.3 MB on CPython 3.10 to 3.13), so a call before
    # the traced one measures the command alone, whatever ran before it
    argv = command + ["--seed", "1", "--rank", "3", "--maxlen", "7"]
    argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("command", ["spectrum", "pattern"])  # many writes, one write
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_is_an_input_error(command, unbuffered):
    # The reader takes 100 bytes and hangs up, so a later write fails with
    # EPIPE.  Under PYTHONUNBUFFERED stdout's text layer sits on the raw
    # stream and would drop the short count of a write the pipe cuts short,
    # so there too every write must be completed or fail.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [command, "--seed", "1", "--rank", "3", "--maxlen", "7"]
    with subprocess.Popen(
        [sys.executable, "-m", "speclab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "first,second,code,digest",
    [
        (5, 9, 0, "c37ab7285c76568239bbd1fa8ee2165027276aa052aa8c0ab8228c7aef88a92f"),
        # the paper's contrast: the arithmetic point's coincidences are not
        # length relations of a sampled rep
        (None, 5, 2, "4e63cb66558448bb2ca9440b5a255ed90be5ea28e2af444f31ff51ff324d268e"),
    ],
    ids=["samples-5-9", "modular-torus-5"],
)
def test_golden_compare_stdout(first, second, code, digest, tmp_path, capsys):
    # a seed stands for the rep `sample --seed` writes, None for the modular torus
    paths = []
    for seed in (first, second):
        path = tmp_path / f"rep{seed}.json"
        if seed is None:
            path.write_text(rep_to_json(modular_torus_rep()))
        else:
            assert main(["sample", "--seed", str(seed), "--output", str(path)]) == 0
        paths.append(str(path))
    assert main(["compare", "--rep-file", paths[0], "--other", paths[1], "--maxlen", "5"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rows_to_csv_layout(capsys):
    assert main(["spectrum", "--seed", "1", "--maxlen", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    # the header, then one line per class: a, A, b, B
    assert len(lines) == 1 + 4 and all(line.endswith("\n") for line in lines)
    assert lines[0] == "class,trace,length\n"
    assert lines[1].startswith("a,")


def test_csv_signed_int_fallback_past_26_generators(capsys):
    # no compact letter past z: a class's signed integers are joined by dots
    assert main(["spectrum", "--seed", "1", "--rank", "27", "--maxlen", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1513 and lines[0] == "class,trace,length"
    classes = [line.split(",")[0] for line in lines[1:]]
    assert {"a", "A", "z", "Z", "27", "-27", "1.27", "-27.-27"} <= set(classes)
    assert all(c.isalpha() or all(x.lstrip("-").isdigit() for x in c.split(".")) for c in classes)
    assert all(len(line.split(",")) == 3 for line in lines)


def test_golden_exact_spectrum_rows():
    # modular torus: integer matrices, so the traces are exact integers
    s = spectrum(modular_torus_rep(), 8)
    rows = list(zip(s.classes, s.traces, s.lengths))
    text = "".join(f"{k} {t!r} {l!r}\n" for k, t, l in rows)
    assert len(rows) == 1386
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "024eef83229a481e07a02f8c1e7a108940880c534c084c34eed0a003f9aff2b0"
    )


# -- the hand-written writers against json.dumps ------------------------------

def _dumps_spectrum(rep, maxlen):
    """`spectrum` jsonl as one json.dumps per row."""
    names = sg.letter_names(rep.presentation)
    s = spectrum(rep, maxlen)
    lines = [
        json.dumps(
            {"class": " ".join(map(names.__getitem__, k.word)), "trace": f"{float(t):.17g}", "length": f"{float(l):.17g}"},
            sort_keys=True,
        )
        for k, t, l in zip(s.classes, s.traces, s.lengths)
    ]
    return "\n".join(lines) + "\n"


def _dumps_pattern(rep, maxlen):
    """`pattern` output as one json.dumps of the whole document."""
    s = spectrum(rep, maxlen)
    p = pattern(s)
    names = sg.letter_names(rep.presentation)
    doc = {
        "rep_digest": s.rep_digest,
        "tolerance": f"{EPS:.17g}",
        "blocks": [
            [" ".join(map(names.__getitem__, k.word)) for k in block] for block in pattern_blocks(p)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "make_rep,maxlen",
    [
        (lambda: schottky_sample(3, 2), 6),
        (lambda: schottky_sample(11, 3), 4),
        (modular_torus_rep, 6),
        # letters a1 b1 g1 g2, and at rank 12 the two-digit g10 and G10
        (lambda: schottky_sample(1, 4), 3),
        (lambda: schottky_sample(1, 12), 2),
    ],
    ids=["rank2", "rank3", "modular-torus", "rank4", "rank12"],
)
def test_writers_match_json_dumps(make_rep, maxlen, tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(rep_to_json(make_rep()))
    rep = rep_from_json(path.read_text())  # the rep the commands read
    rank = str(rep.presentation.free_rank)
    common = ["--rep-file", str(path), "--rank", rank, "--maxlen", str(maxlen)]
    for argv, oracle in (
        (["spectrum"] + common, _dumps_spectrum(rep, maxlen)),
        (["pattern"] + common, _dumps_pattern(rep, maxlen)),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == oracle
        out = tmp_path / f"{argv[0]}.out"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == oracle.encode()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "blocks", [[], [[]], [["a1"]], [["a1", "A1"], [], ["b1 \u00e9\"\\"]]]
)
def test_indented_list_matches_json_dumps(blocks):
    inner = [_indented_list([_json_str(w) for w in b], "  ") for b in blocks]
    assert _indented_list(inner, "") == json.dumps(blocks, indent=2)
