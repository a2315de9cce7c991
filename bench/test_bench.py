"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, prov_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    prov = json.loads(prov_line)["provenance"]
    assert prov["seed"] == 5 and prov["nproc"] >= 1
    assert set(prov["samples"]) == set(result["metrics"])


def test_wrong_golden_signature_fails_items():
    exp = workloads.load_expectations()
    g, order, k, sig = exp.fermat[0]
    exp.fermat = [[g, order, k, sig + [2]]] + exp.fermat[1:]
    run = workloads.Run()
    workloads.cover_enumeration(run, exp, 0, workloads.SIZES["tiny"]["cover-enumeration"])
    assert run.failed / run.attempted > 0
    assert any("3g+6" in failure for failure in run.failures)


def test_wrong_surface_value_fails_items():
    exp = workloads.load_expectations()
    exp.surface_table[0] = dict(exp.surface_table[0], value=exp.surface_table[0]["value"] + 1)
    run = workloads.Run()
    workloads.bound_arithmetic(run, exp, 0, dict(workloads.SIZES["tiny"]["bound-arithmetic"], extra_eps=0))
    assert run.failed == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "chain-suites", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
