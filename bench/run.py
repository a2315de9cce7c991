"""The autbounds benchmark: time to a verified result, per workload.

    python3 bench/run.py --workload chain-suites --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # one table, every workload

Each measurement is a fresh interpreter (`child.py`), started one at a time
from this process: a closed loop with one caller. Per-process caches start
cold, as they do for a CLI user, and each workload's phase order is fixed.
With `--trace 0` the run starts a few set-up-only children, then workload
children until `--seconds` would be exceeded by one more; it reports the
median of each end-to-end metric, with times scaled to a nominal machine
speed (see `child.SpeedProbe`). With `--trace 1` it alternates untraced
and traced children and reports the median of each per-layer metric; the
traced children must pass the same checks.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
provenance (machine, versions, commit, seed, samples behind each number).
The exit code is 0 when every output checked correct, 1 when some did not,
and 2 when the benchmark cannot run at all (no `src/autbounds` beside it,
or a child that crashed or overran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9        # set-up-only children per untraced run; setup_s is their median
CHILD_LIMIT_S = 170     # the whole run must end within 180 s
# child.reference_chunk() takes about this long on the machine the benchmark
# was built on (a shared 2-core Xeon VM). Times are scaled to it.
REF_NOMINAL_S = 0.0036
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, scale: str, trace: int, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child overran the {CHILD_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - started
    return out


def measure(workload: str, seed: int, seconds: float, scale: str, trace: int) -> dict:
    """Run children of one workload for about `seconds`; return them all."""
    start = time.monotonic()
    limit = start + CHILD_LIMIT_S
    probes, work, traced = [], [], []
    if not trace:
        probes = [spawn(workload, seed, scale, 0, limit, setup_only=True) for _ in range(SETUP_PROBES)]
    rounds = []
    while True:
        t = time.monotonic()
        work.append(spawn(workload, seed, scale, 0, limit))
        if trace:
            traced.append(spawn(workload, seed, scale, 1, limit))
        rounds.append(time.monotonic() - t)
        if time.monotonic() + statistics.median(rounds) > start + seconds:
            break
    return {"probes": probes, "work": work, "traced": traced}


def median_of(children, key):
    return statistics.median(c[key] for c in children)


def child_speed(child: dict) -> float:
    """REF_NOMINAL_S over the child's median reference chunk: > 1 when the machine is fast."""
    return REF_NOMINAL_S / statistics.median(child["ref_s"])


def summarize(children: dict, trace: int, attempted: int, failed: int) -> tuple[dict, dict]:
    """(metrics, samples): each metric's median, and how many values it is the median of.

    Times are scaled to the machine's nominal speed: each child's `wall_s` by
    its own reference speed, `setup_s` by the median speed of the workload
    children (see child.SpeedProbe).
    """
    work, traced = children["work"], children["traced"]
    if trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.median(c["layers"][name] for c in traced) for name in names}
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(work, "wall_s")
        return metrics, {name: len(traced) for name in metrics}
    probes = children["probes"]
    metrics = {
        "setup_s": median_of(probes, "setup_s") * statistics.median(map(child_speed, work)),
        "wall_s": statistics.median(c["wall_s"] * child_speed(c) for c in work),
        "peak_rss_mb": median_of(work, "peak_rss_mb"),
        "passed_share": 1 - failed / attempted,
    }
    samples = {"setup_s": len(probes), "wall_s": len(work), "peak_rss_mb": len(work),
               "passed_share": attempted}
    return metrics, samples


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "passed_share": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    import tracing

    return tracing.unit_of(name)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "autbounds").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(workload, seed, seed_used, seconds, scale, trace, children, samples) -> dict:
    first = children["work"][0]
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": seed_used,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": first["python"],
        "numpy": first["numpy"],
        "platform": platform.platform(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "samples": samples,
        "measured": {"setup_s": median_of(children["probes"], "setup_s") if children["probes"] else None,
                     "wall_s": median_of(children["work"], "wall_s"),
                     "speed": statistics.median(map(child_speed, children["work"]))},
        "phases": first["phases"],
        "children": {kind: [{k: c[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "elapsed_s", "ref_s") if k in c}
                            for c in group] for kind, group in children.items()},
    }


def run_one(workload, seed, seed_used, seconds, scale, trace) -> tuple[dict, dict]:
    """(provenance, result) of one run."""
    children = measure(workload, seed, seconds, scale, trace)
    checked = children["work"] + children["traced"]
    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    metrics, samples = summarize(children, trace, attempted, failed)
    for c in checked:
        for failure in c["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return provenance(workload, seed, seed_used, seconds, scale, trace, children, samples), result


def main(argv=None) -> int:
    if not (SRC / "autbounds" / "__init__.py").is_file():
        print(f"no autbounds sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="tiny runs a few seconds of work, for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, not workloads.WORKLOADS[name].deterministic,
                                 args.seconds, args.scale, args.trace) for name in names}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, (_, result) in results.items():
            share = result["failed"] / result["attempted"]
            cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items()]
            print(f"{name:18s}  " + "  ".join(cells) + f"  failed_share {share:.4g} ratio")
        print(json.dumps({name: result for name, (_, result) in results.items()}))
    else:
        prov, result = results[args.workload]
        print(json.dumps({"provenance": prov}))
        print(json.dumps(result))
    return 0 if all(result["correct"] for _, result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
