import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autbounds
from autbounds import bounds, cli, lemmas
from autbounds.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    surface_invariants_from_kv,
)
from autbounds.errors import InvariantViolation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_of(out: str) -> dict:
    return json.loads(out)["body"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_is_64(capsys):
    code, _, _ = run_cli(capsys, "enumerate-covers", "--gmin", "2")
    assert code == EXIT_USAGE


def test_unknown_lemma_is_64(capsys):
    code, _, _ = run_cli(capsys, "verify-lemmas", "--lemma", "9.9", "--trials", "1")
    assert code == EXIT_USAGE


def test_invalid_data_is_65(capsys):
    code, _, err = run_cli(capsys, "bounds", "surface", "k2=10", "chi=0")
    assert code == EXIT_DATA
    assert "chi" in err


@pytest.mark.parametrize("argv, code, flag", [
    (["--bound", "3*g+6"], EXIT_DATA, "--bound"),
    (["--bound", "3g+6", "--golden", "/missing.json"], EXIT_USAGE, "--golden"),
    (["--bound", "3g+6", "--gamma", "-1"], EXIT_DATA, "--gamma"),
    (["--bound", "3g+6", "--gmin", "-3", "--gmax", "1"], EXIT_DATA, "--gmin"),
    (["--bound", "3g+6", "--gmin", "3", "--gmax", "2"], EXIT_DATA, "--gmin"),
    (["--bound", "g", "--kmin", "-5"], EXIT_DATA, "--kmin"),
    (["--bound", "1/0g"], EXIT_DATA, "--bound"),
    (["--bound", "3g+1/0"], EXIT_DATA, "--bound"),
    (["--bound", "0/0g+1"], EXIT_DATA, "--bound"),
], ids=["bad-bound", "missing-golden", "negative-gamma", "negative-gmin", "inverted-genus-range",
        "negative-kmin", "zero-slope-denominator", "zero-constant-denominator", "zero-over-zero"])
def test_bad_enumerate_input_exits_without_traceback(argv, code, flag):
    src = str(Path(autbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "autbounds.cli", "enumerate-covers",
                           "--gmin", "2", "--gmax", "3", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert flag in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, key", [
    (["plurigenus", "k3=x", "chi=0", "n=3"], "k3"),
    (["surface", "k2=10", "pencils=a"], "pencils"),
    (["plurigenus", "k3=2", "n=3"], "chi"),
    (["surface", "k2_range=5:1", "chi_range=x:y", "--table"], "k2_range"),
    (["surface", "k2_range=5:1", "--table"], "k2_range"),
    (["surface", "k2_range=1:2", "chi_range=5:1", "--table"], "chi_range"),
    (["surface", "k2_range=", "--table"], "k2_range"),
    (["surface", "k2=200", "chi=30", "no_pencils=5-3"], "no_pencils"),
    (["surface", "k2=200", "chi=30", "pencils=4-3"], "pencils"),
    (["surface", "k2=200", "chi=30", "no_pencils=3-8", "even=maybe"], "even"),
    (["surface", "k2=100", "chi=14", "canonical_image_dim=2", "no_pencils=2-5", "birational="], "birational"),
    (["surface", "k2=200", "chi=30", "no_pencils="], "no_pencils"),
    (["surface", "k2=200", "chi=30", "pencils=3,,5"], "pencils"),
], ids=["non-integer", "non-integer-list", "missing-key", "inverted-k2-bad-chi", "inverted-k2",
        "inverted-chi", "empty-k2", "inverted-list-range", "inverted-pencil-range", "bad-flag",
        "empty-flag", "empty-list", "empty-list-item"])
def test_bad_bounds_input_is_65_naming_the_key(capsys, argv, key):
    code, _, err = run_cli(capsys, "bounds", *argv)
    assert code == EXIT_DATA
    assert len(err.strip().splitlines()) == 1 and key in err


@pytest.mark.parametrize("argv, key", [
    (["threefold", "k3=2", "chi=0", "foo=1"], "foo"),
    (["plurigenus", "k3=2", "chi=0", "n=3", "k2=1"], "k2"),
    (["constant", "n=3"], "n"),
    (["universal-n", "eps=1/600"], "eps"),
    (["margin", "variant=prop3.3", "k3=6", "chi=1", "n=5", "k2=72"], "k2"),
    (["surface", "k2=72", "--table"], "k2"),
    (["surface", "k2=72", "k2_range=1:5"], "k2_range"),
], ids=["threefold", "plurigenus", "constant", "universal-n", "prop3.3", "table", "range-without-table"])
def test_unknown_bounds_key_is_65_naming_it(capsys, argv, key):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and repr(key) in err


@pytest.mark.parametrize("what", ["threefold", "plurigenus", "margin", "universal-n", "constant"])
def test_table_outside_surface_is_64(capsys, what):
    code, out, err = run_cli(capsys, "bounds", what, "--table")
    assert code == EXIT_USAGE and out == ""
    assert len(err.strip().splitlines()) == 1 and "--table" in err


def test_prop33_margin_reads_epsilon(capsys):
    argv = ["bounds", "margin", "variant=prop3.3", "k3=6", "chi=1", "n=5"]
    code, out, err = run_cli(capsys, *argv, "epsilon=0/0")
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "epsilon" in err
    _, out, _ = run_cli(capsys, *argv)
    _, out_default, _ = run_cli(capsys, *argv, "epsilon=1/530")
    _, out_other, _ = run_cli(capsys, *argv, "epsilon=1/600")
    margin = body_of(out)["margin"]
    assert body_of(out_default)["margin"] == margin != body_of(out_other)["margin"]
    assert body_of(out_other)["margin"] == str(bounds.decomposability_margin(
        "prop3.3", bounds.ThreefoldInvariants(6, 1), n=5, epsilon=Fraction(1, 600))[0])


@pytest.mark.parametrize("value", ["1e-5000", "1/" + "9" * 500])
def test_epsilon_past_500_digits_is_65(capsys, value):
    # at 1e-5000, n* has about 2500 digits and the certificate passes Python's print limit
    code, out, err = run_cli(capsys, "bounds", "universal-n", f"epsilon={value}")
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "epsilon" in err


@pytest.mark.parametrize("argv", [
    ["plurigenus", "k3=2" + "0" * 1500, "chi=0", "n=2" + "0" * 1500],
    ["surface", "d=" + "9" * 1500],
], ids=["plurigenus", "surface-degree"])
def test_result_past_the_int_to_text_limit_is_65(capsys, argv):
    # each result has about 4,500 digits; Python writes at most 4,300 as text
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and f"{sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kv", ["d=3", "d=1", "ci=2", "ci=2,2"])
def test_degrees_without_positive_canonical_class_are_65(capsys, kv):
    # by adjunction K = O(sum d_i - len - 3); these surfaces are not of general type
    code, out, err = run_cli(capsys, "bounds", "surface", kv)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and kv.partition("=")[0] + "=" in err


@pytest.mark.parametrize("lemma", ["2.4", "2.5"])
@pytest.mark.parametrize("dim", ["0", "-1"])
def test_nonpositive_dim_is_65(capsys, lemma, dim):
    code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", lemma, "--trials", "2",
                             "--dim", dim)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "dim" in err


def test_rule_2_4_size_past_the_cap_is_65(capsys):
    # in dim 1 this size would overflow the bulk draw's getrandbits(128 * size * dim);
    # the same cap stops rule 2.5's box draw before it runs out of memory
    for lemma, dim in (("2.4", "1"), ("2.5", "3")):
        code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", lemma, "--trials", "1",
                                 "--dim", dim, "--min-size", "20000000", "--max-size", "20000000")
        assert code == EXIT_DATA and out == ""
        assert len(err.strip().splitlines()) == 1 and f"rule {lemma} size 20000000" in err


@pytest.mark.parametrize("trials", ["1", "5"])
@pytest.mark.parametrize("lemma, sizes", [("2.4", ("-5", "10")), ("2.5", ("-5", "10")),
                                          ("2.5", ("2", "30"))],
                         ids=["2.4-negative", "2.5-negative", "2.5-below-dim+1"])
def test_unusable_least_size_is_65_before_any_draw(capsys, monkeypatch, lemma, sizes, trials):
    # a negative least size, or one below dim + 1 = 4 for rule 2.5's gauge
    # draw: the exit no longer depends on which sizes the trials draw
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a triple")

    monkeypatch.setattr(lemmas, "_draw_nested_levels", no_draw)
    monkeypatch.setattr(lemmas, "generate_nested_triple", no_draw)
    code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", lemma, "--trials", trials,
                             "--min-size", sizes[0], "--max-size", sizes[1], "--seed", "0")
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "size" in err and "Traceback" not in err


@pytest.mark.parametrize("dim, size", [
    ("8", "131072"), ("6", "174762"), ("8", "16384"), ("3", "349525"), ("8", "4096"),
    ("8", "5461"), ("24", "3277"), ("1000", None), ("2000", None),
    ("8000", "0"), ("100000000", "0"), ("3344", "2"),
])
def test_rule_2_4_size_past_the_work_cap_is_65(capsys, monkeypatch, dim, size):
    # sizes whose counts ran out of memory or ran for minutes; dims 1000 and
    # 2000 at the default sizes (12-44) are as slow, and so are sizes 0-2,
    # whose draws hold up to 3 points (dim 8000 ran past a minute)
    def no_draw(*args):
        raise AssertionError("drew a triple")

    monkeypatch.setattr(lemmas, "_draw_nested_levels", no_draw)
    sizes = [] if size is None else ["--min-size", size, "--max-size", size]
    code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", "2.4", "--trials", "1",
                             "--dim", dim, *sizes)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "work cap" in err and "Traceback" not in err


@pytest.mark.parametrize("lemma, dim", [("2.4", "0"), ("2.4", "-1"), ("2.5", "2"), ("2.7", "2"),
                                        ("2.6", "3")])
def test_dim_below_the_rule_least_is_65_before_any_draw(capsys, monkeypatch, lemma, dim):
    # 2.4 draws in any dim from 1, and rules 2.5-2.7 keep A1 of dim 3, 4 and
    # 3; rule 2.6 in dim 3 used to exit only after 50 generator attempts
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a triple")

    monkeypatch.setattr(lemmas, "_draw_nested_levels", no_draw)
    monkeypatch.setattr(lemmas, "generate_nested_triple", no_draw)
    code, out, err = run_cli(capsys, "verify-lemmas", "--lemma", lemma, "--trials", "1",
                             "--dim", dim)
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and f"in dim {dim} is below" in err


def test_golden_file_that_is_not_a_report_is_65(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run_cli(capsys, "enumerate-covers", "--bound", "3g+6",
                             "--gmin", "2", "--gmax", "3", "--golden", str(path))
    assert code == EXIT_DATA and out == ""
    assert len(err.strip().splitlines()) == 1 and "--golden" in err


def _run_with_closed_stdout(tmp_path, *argv, prelude=""):
    """Run the CLI in a child whose stdout is a pipe that no one reads."""
    src = str(Path(autbounds.__file__).resolve().parents[1])
    env = dict(os.environ, AUTBOUNDS_OUTPUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-c",
             prelude + "import sys; from autbounds.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    proc = _run_with_closed_stdout(tmp_path, "bounds", "surface", "k2_range=1:2000", "--table")
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


def test_closed_stdout_still_writes_the_witness_files(tmp_path):
    # an inflated bound makes every trial a violation
    inflate = ("from autbounds import lemmas; real = lemmas.bound_formula; "
               "lemmas.bound_formula = lambda *a, **k: real(*a, **k) + 10 ** 9; ")
    proc = _run_with_closed_stdout(tmp_path, "verify-lemmas", "--lemma", "2.5", "--trials", "2",
                                   "--seed", "5", prelude=inflate)
    assert proc.returncode == EXIT_VIOLATION
    assert "Traceback" not in proc.stderr
    assert len(list(tmp_path.glob("witness_2.5_*.json"))) == 2


def _child_env() -> dict:
    src = str(Path(autbounds.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_bounds_and_covers_modules_do_not_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, autbounds.cli, autbounds.bounds, autbounds.covers, "
         "autbounds.rules; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["bounds", "constant"],
    ["bounds", "surface", "k2_range=1:64", "--table"],
    ["bounds", "margin", "variant=prop3.3", "k3=2", "chi=0", "n=27450"],
    ["enumerate-covers", "--bound", "3g+6", "--gmin", "2", "--gmax", "8", "--no-hyperelliptic",
     "--golden", "fermat"],
], ids=["constant", "surface-table", "prop3.3-margin", "fermat-covers"])
def test_bounds_and_covers_run_without_numpy(capsys, argv):
    # numpy set to None in sys.modules makes any import of it fail
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['numpy'] = None; "
         "from autbounds.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    if "--table" in argv:  # the CSV lines end in \r\n, so compare bytes
        assert proc.stdout == out.encode()
    else:
        assert body_of(proc.stdout.decode()) == body_of(out)


# an inflated bound makes every trial of a suite a violation
_INFLATE = ("from autbounds import lemmas; real = lemmas.bound_formula; "
            "lemmas.bound_formula = lambda *a, **k: real(*a, **k) + 10 ** 9; ")


def test_out_under_a_regular_file_is_64(tmp_path):
    (tmp_path / "file").write_text("")
    proc = _run_with_closed_stdout(tmp_path, "bounds", "constant", "--out", str(tmp_path / "file" / "x.json"))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith(f"cannot write {tmp_path / 'file' / 'x.json'}: ")
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_witness_run_makes_a_missing_output_directory(tmp_path):
    out_dir = tmp_path / "made" / "here"
    proc = _run_with_closed_stdout(out_dir, "verify-lemmas", "--lemma", "2.5", "--trials", "2",
                                   "--seed", "5", prelude=_INFLATE)
    assert proc.returncode == EXIT_VIOLATION
    assert "Traceback" not in proc.stderr
    assert len(list(out_dir.glob("witness_2.5_*.json"))) == 2


def test_witness_run_under_a_regular_file_is_64(tmp_path):
    (tmp_path / "file").write_text("")
    proc = _run_with_closed_stdout(tmp_path / "file" / "out", "verify-lemmas", "--lemma", "2.5",
                                   "--trials", "2", "--seed", "5", prelude=_INFLATE)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith(f"cannot write {tmp_path / 'file' / 'out'}{os.sep}witness_2.5_")
    assert "Traceback" not in proc.stderr


def test_bounds_surface_value(capsys):
    code, out, _ = run_cli(capsys, "bounds", "surface", "k2=1")
    assert code == EXIT_OK
    body = body_of(out)
    assert body["value"] == 270
    assert body["source"] == ["unit_k2"]


# ---------------------------------------------------------------------------
# key=value parsing
# ---------------------------------------------------------------------------

def test_kv_parsing_flags():
    inv = surface_invariants_from_kv({
        "k2": "200", "chi": "30", "no_pencils": "3-5",
        "canonical_image_dim": "2", "birational": "1",
    })
    assert inv.no_pencils == frozenset({3, 4, 5})
    assert inv.canonical_image_dim == 2
    assert inv.canonical_map_birational


@pytest.mark.parametrize("argv", [
    ["k2=200", "chi=30", "no_pencils=3-8", "even=1"],
    ["k2=100", "chi=14", "canonical_image_dim=2", "no_pencils=2-5", "birational=1"],
], ids=["even", "birational"])
def test_flag_spellings_read_alike(capsys, argv):
    key, _, _ = argv[-1].partition("=")
    bodies = [body_of(run_cli(capsys, "bounds", "surface", *argv[:-1], f"{key}={value}")[1])
              for value in ("1", "True", "Yes", "yes")]
    assert len({(b["value"], tuple(b["source"])) for b in bodies}) == 1
    off = body_of(run_cli(capsys, "bounds", "surface", *argv[:-1], f"{key}=No")[1])
    assert (off["value"], off["source"]) != (bodies[0]["value"], bodies[0]["source"])


def test_kv_derives_k2_from_degree():
    inv = surface_invariants_from_kv({"d": "5"})
    assert inv.k2 == 5 and inv.p3_degree == 5
    inv = surface_invariants_from_kv({"ci": "4,5"})
    assert inv.k2 == (9 - 4 - 1) ** 2 * 20
    # d= is ci= with a single degree
    assert surface_invariants_from_kv({"ci": "7"}).k2 == surface_invariants_from_kv({"d": "7"}).k2 == 63


def test_kv_requires_k2():
    with pytest.raises(InvariantViolation):
        surface_invariants_from_kv({"chi": "9"})


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_bodies_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify-lemmas", "--lemma", "2.5",
                         "--trials", "3", "--seed", "9")
    _, out2, _ = run_cli(capsys, "verify-lemmas", "--lemma", "2.5",
                         "--trials", "3", "--seed", "9")
    b1 = json.dumps(body_of(out1), sort_keys=True)
    b2 = json.dumps(body_of(out2), sort_keys=True)
    assert b1 == b2
    # headers may differ (timestamps live there, not in the body)
    assert "created_utc" in json.loads(out1)["header"]


def test_lemma_suite_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--lemma", "2.4",
                           "--trials", "2", "--dim", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("lemma,")
    assert len(lines) == 3


def test_report_to_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUTBOUNDS_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify-lemmas", "--lemma", "2.4",
                           "--trials", "2", "--dim", "3", "--out", "r.json")
    assert code == EXIT_OK
    path = out.strip()
    assert os.path.dirname(path) == str(tmp_path)
    data = json.loads(open(path).read())
    assert data["body"]["trials"] == 2


@pytest.mark.parametrize("argv", [
    ["verify-lemmas", "--lemma", "2.4", "--trials", "2", "--format", "csv"],
    ["bounds", "surface", "k2_range=1:3", "--table"],
], ids=["lemma-suite", "surface-table"])
def test_csv_to_file(tmp_path, capsys, monkeypatch, argv):
    # a CSV goes to --out as a JSON report does: under the output directory,
    # with its path printed, and an unwritable path exits 64
    monkeypatch.setenv("AUTBOUNDS_OUTPUT_DIR", str(tmp_path))
    code, printed, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and printed.startswith(("lemma,", "k2,"))
    code, out, _ = run_cli(capsys, *argv, "--out", "rows.csv")
    assert (code, out) == (EXIT_OK, str(tmp_path / "rows.csv") + "\n")
    assert open(out.strip(), newline="").read() == printed
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "rows.csv" / "x.csv"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"cannot write {tmp_path / 'rows.csv' / 'x.csv'}: ")


# ---------------------------------------------------------------------------
# enumeration + golden
# ---------------------------------------------------------------------------

def test_enumerate_with_golden_match(capsys):
    code, out, _ = run_cli(capsys, "enumerate-covers", "--bound", "3g+6",
                           "--gmin", "2", "--gmax", "8", "--no-hyperelliptic",
                           "--golden", "fermat")
    assert code == EXIT_OK
    body = body_of(out)
    assert body["golden_match"] is True
    assert body["signatures"] == [[3, 16, 3, [4, 4, 4]], [6, 25, 3, [5, 5, 5]]]


def test_enumerate_golden_mismatch_is_violation(capsys):
    code, out, _ = run_cli(capsys, "enumerate-covers", "--bound", "3g+6",
                           "--gmin", "2", "--gmax", "5", "--no-hyperelliptic",
                           "--golden", "fermat")
    assert code == EXIT_VIOLATION
    body = body_of(out)
    assert body["golden_match"] is False
    assert "golden_expected" in body


def test_enumerate_cyclic_empty(capsys):
    code, out, _ = run_cli(capsys, "enumerate-covers", "--bound", "2g+2",
                           "--gmin", "3", "--gmax", "8", "--gamma", "0",
                           "--kmin", "4", "--cyclic")
    assert code == EXIT_OK
    assert body_of(out)["records"] == []


# ---------------------------------------------------------------------------
# bounds subcommands
# ---------------------------------------------------------------------------

def test_bounds_plurigenus(capsys):
    code, out, _ = run_cli(capsys, "bounds", "plurigenus", "k3=2", "chi=0", "n=3")
    assert code == EXIT_OK
    assert body_of(out)["value"] == 5


def test_bounds_margin(capsys):
    code, out, _ = run_cli(capsys, "bounds", "margin", "variant=lemma7.4",
                           "k2=72", "chi=8")
    assert code == EXIT_OK
    body = body_of(out)
    assert body["margin"] == 1 and body["positive"] is True


def test_bounds_margin_needs_variant(capsys):
    code, _, err = run_cli(capsys, "bounds", "margin", "k2=72", "chi=8")
    assert code == EXIT_DATA and "variant" in err


def test_bounds_table_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "surface", "k2_range=1:5", "--table")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k2,chi,value,source"
    assert len(lines) == 6
    assert lines[1].startswith("1,,270,")


def test_bounds_table_stdout_is_pinned(capsys):
    # 572 rows over K^2 1-64 and chi 1-12: a change to the rule table's
    # arithmetic must leave every value and source byte-identical
    code, out, _ = run_cli(capsys, "bounds", "surface", "k2_range=1:64", "chi_range=1:12", "--table")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3b1bffd2c269597ff30d15a61b9c9b85dcb7f8c46c35cccb15bb5a5e216e528b"


_BOUNDS_KEYS = sorted(cli._SURFACE_KEYS | {"k3", "chi", "n", "epsilon", "variant"})
_bounds_values = st.one_of(
    st.integers(-12, 80).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 10 ** 7)),
    st.builds("{}{}{}".format, st.integers(-3, 12), st.sampled_from(":-,"), st.integers(-3, 12)),
    st.sampled_from(bounds.MARGIN_VARIANTS + ("true", "")),
    st.text(max_size=6),
)
_bounds_argv = st.tuples(
    st.sampled_from(["surface", "threefold", "plurigenus", "margin", "universal-n", "constant"]),
    st.lists(st.builds("{}={}".format, st.sampled_from(_BOUNDS_KEYS), _bounds_values), max_size=5),
    st.booleans(),
).map(lambda t: ["bounds", t[0], *t[1]] + (["--table"] if t[2] else []))


@settings(deadline=None, max_examples=300)
@given(_bounds_argv)
def test_bounds_argv_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in err.getvalue()


_bound_numbers = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(0, 4)),
)
_enumerate_bounds = st.one_of(
    _bound_numbers,
    st.builds("{}g".format, st.sampled_from(["", "+", "-"]) | _bound_numbers),
    st.builds("{}g{}{}".format, st.sampled_from(["", "-"]) | _bound_numbers,
              st.sampled_from("+-"), _bound_numbers),
    st.text(max_size=6),
)
_small = st.integers(-2, 5).map(str)
_enumerate_argv = st.tuples(
    _enumerate_bounds, _small, _small,
    st.none() | _small, st.none() | _small, st.booleans(), st.booleans(),
).map(lambda t: ["enumerate-covers", f"--bound={t[0]}", "--gmin", t[1], "--gmax", t[2]]
      + (["--gamma", t[3]] if t[3] is not None else [])
      + (["--kmin", t[4]] if t[4] is not None else [])
      + (["--no-hyperelliptic"] if t[5] else []) + (["--cyclic"] if t[6] else []))


@settings(deadline=None, max_examples=150)
@given(_enumerate_argv)
def test_enumerate_argv_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in err.getvalue()


_verify_argv = st.tuples(
    st.sampled_from(["2.4", "2.5", "2.6", "2.7"]) | st.text(max_size=4),
    st.integers(1, 2), st.integers(-1, 5), st.integers(-5, 60), st.integers(-5, 60),
).map(lambda t: ["verify-lemmas", "--lemma", t[0], "--trials", str(t[1]), "--dim", str(t[2]),
                 "--min-size", str(t[3]), "--max-size", str(t[4])])


@settings(deadline=None, max_examples=150)
@given(_verify_argv)
@example(["verify-lemmas", "--lemma", "2.4", "--trials", "1", "--dim", "3",
          "--min-size", "-5", "--max-size", "-5"])
@example(["verify-lemmas", "--lemma", "2.4", "--trials", "1", "--min-size", "-5",
          "--max-size", "10", "--seed", "0"])
@example(["verify-lemmas", "--lemma", "2.4", "--trials", "1", "--dim", "1",
          "--min-size", "20000000", "--max-size", "20000000"])
@example(["verify-lemmas", "--lemma", "2.5", "--trials", "1",
          "--min-size", "20000000", "--max-size", "20000000"])
def test_verify_lemmas_argv_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in err.getvalue()


def test_reproduce_all_passes(capsys):
    code, out, _ = run_cli(capsys, "reproduce-all")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 13 and all(line.startswith("PASS  ") for line in lines)
    assert "FAIL" not in out
    # the whole stdout, pinned: a refactor must leave it byte-identical
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "fa6da1c8c13e83c77d4d490d522bafe358bd3cfb2c097151918c16b31ec5706d"


def test_min_size_2_6_run_has_no_small_admissible(capsys):
    # below the structural floor every instance reports inadmissible and the
    # run still exits 0 (no violated admissible instance)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--lemma", "2.6",
                           "--trials", "2", "--seed", "3",
                           "--min-size", "1100", "--max-size", "1400")
    assert code == EXIT_OK
    body = body_of(out)
    assert body["admissible"] == 0
    assert all(r["n3"] >= 1061 or not r["admissible"] for r in body["rows"])
