"""One measured run of one workload, in a fresh interpreter.

Started by `run.py` as `python -I bench/child.py ...`. It imports autbounds
from the checkout's `src/`, loads the golden files, then (unless
`--setup-only`) runs the workload once and prints one JSON line.

An untraced workload child also samples the machine's speed while the
workload runs (`SpeedProbe`).

`setup_s` runs from `--t0-ns`, the parent's CLOCK_MONOTONIC reading just
before it started this process, to the end of set-up; Python's
`time.monotonic_ns` reads the same clock in both processes.
"""

import argparse
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def reference_chunk() -> float:
    """Seconds taken by a fixed, short piece of pure-Python work."""
    start = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    table = {(i % 61, i % 67): i for i in range(2_000)}
    sorted(table.items())
    return time.perf_counter() - start


class SpeedProbe:
    """Times `reference_chunk()` every INTERVAL_S seconds while a phase runs.

    The machine this benchmark was built on is shared, and its speed drifts
    by a third within minutes. The chunks run inside the phase (from a
    SIGALRM handler), so they see the speed the workload sees; `run.py`
    scales each child's time by the median chunk. `Run.call` takes the time
    spent in chunks out of the phase time.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.chunks: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.chunks.append(reference_chunk())

    def start(self) -> None:
        """Sample once now, so every phase has a sample, then every INTERVAL_S."""
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0-ns", dest="t0_ns", type=int, required=True)
    parser.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(BENCH)]
    import autbounds
    import numpy

    if Path(autbounds.__file__).resolve().parent != SRC / "autbounds":
        print(f"autbounds imported from {autbounds.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    expectations = workloads.load_expectations()
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    out = {"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__}
    if not args.setup_only:
        # The traced child is not probed: chunks would land in its spans.
        tracer = probe = None
        if args.trace:
            import tracing

            tracer = tracing.install()
        else:
            probe = SpeedProbe()
        run = workloads.Run(tracer, probe)
        workload = workloads.WORKLOADS[args.workload]
        workload.run(run, expectations, args.seed, workloads.SIZES[args.scale][args.workload])
        out.update({
            "wall_s": run.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
            "phases": run.phases,
        })
        if probe is not None:
            out["ref_s"] = probe.chunks
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer, run.wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
