import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autbounds
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
], ids=["bad-bound", "missing-golden"])
def test_bad_enumerate_input_exits_without_traceback(argv, code, flag):
    src = str(Path(autbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "autbounds.cli", "enumerate-covers",
                           "--gmin", "2", "--gmax", "3", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert flag in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


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


def test_kv_derives_k2_from_degree():
    inv = surface_invariants_from_kv({"d": "5"})
    assert inv.k2 == 5 and inv.p3_degree == 5
    inv = surface_invariants_from_kv({"ci": "4,5"})
    assert inv.k2 == (9 - 4 - 1) ** 2 * 20


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
