"""One fresh interpreter running one workload: set-up, then timed passes.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR SECONDS RESULT_JSON
    python3 perfbench/worker.py WORKLOAD INPUT_DIR --setup-only

Set-up is what a user pays before the first analysis: importing nullgvn and
its CLI, and for `oracle` loading the bundled corpus. The worker prints
`ready` on stdout the moment set-up ends, so the parent can time it from
process start. It then runs passes until SECONDS have gone by (at least
one pass), and writes the pass times, peak RSS, operation counts and the first
pass's outputs to RESULT_JSON. Passes run with tracing off.

The worker runs on one CPU. Under the GIL nullgvn uses one core at a time
anyway, but `report`'s thread pool, left free, hands the GIL across cores,
and that hand-off cost swings with whatever else the host runs: unpinned
`report` passes took 8.0-10.4 s against 5.3-6.3 s pinned, alternating
processes on the same inputs, on a shared 2-core 2.0 GHz Intel Xeon.
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    workload, input_dir = argv[0], Path(argv[1])
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import nullgvn.cli  # noqa: F401 - set-up: the CLI and everything it imports

    programs = None
    if workload == "oracle":
        from nullgvn import bundled_programs

        programs = bundled_programs()
    print("ready", flush=True)
    if argv[2] == "--setup-only":
        return 0

    import json
    import resource

    from workloads import run_pass

    seconds, result_path = float(argv[2]), Path(argv[3])
    files = sorted(input_dir.glob("*.ir"))
    walls: list[float] = []
    outputs, stable, attempted, failed = None, True, 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out, a, f = run_pass(workload, files, programs)
        walls.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        if outputs is None:
            outputs = out
        elif out != outputs:
            stable = False
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "walls": walls,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "outputs": outputs,
        "outputs_stable": stable,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
