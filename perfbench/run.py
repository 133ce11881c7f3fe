"""End-to-end benchmark of siqrng: certify -> extract, Monte Carlo, design sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  One run:

1. writes the workload's inputs from --seed under .perfbench/ (inputs.py);
2. runs the workload in a fresh worker process (worker.py), a single client
   in a closed loop for --seconds, checking every op's output;
3. times fresh interpreters, before and after the worker, until `siqrng.cli`
   is imported (setup_s, the median);
4. prints a summary and, as its last stdout line, one JSON object with
   `correct`, `attempted`, `failed` and the end-to-end metrics (--trace 0) or
   the per-layer metrics of a traced run (--trace 1).

It exits nonzero without a result when the checkout holds no siqrng source.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set-up launches made before and again after the worker runs, so that the
# median spans the run rather than one moment of the shared host.
SETUP_LAUNCHES = 5
# Every run must end within 180 s; what is left after set-up goes to the worker.
RUN_LIMIT_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.monotonic(); import numpy; u = time.monotonic(); "
    "import siqrng.cli; print(t, u, time.monotonic())"
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read and left unchanged."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def launch_interpreters(root: Path, env: dict, times: dict[str, list[float]]) -> None:
    """Time fresh interpreters from launch until `import siqrng.cli` is done, and its import parts."""
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        t, u, done = (float(v) for v in probe.stdout.split())
        times["setup_s"].append(done - start)
        times["import.numpy_s"].append(u - t)
        times["import.siqrng_s"].append(done - u)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "siqrng" / "__init__.py").is_file():
        print(f"error: no siqrng source under {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    import inputs

    out_dir = root / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    machine = machine_info()
    try:
        plan = inputs.generate(args.workload, args.seed, work)
        trace_file = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        plan.update(seconds=args.seconds, trace=bool(args.trace), machine=machine, trace_file=str(trace_file))
        (work / "plan.json").write_text(json.dumps(plan))
        launches = {"setup_s": [], "import.numpy_s": [], "import.siqrng_s": []}
        launch_interpreters(root, env, launches)
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(work / "plan.json"), str(work / "result.json")]
        subprocess.run(worker, cwd=root, env=env, timeout=RUN_LIMIT_S - (time.monotonic() - started), check=True)
        result = json.loads((work / "result.json").read_text())
        launch_interpreters(root, env, launches)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {**result["metrics"], **{name: statistics.median(v) for name, v in launches.items()}}
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names}

    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} trace: {args.trace}")
    if args.trace:
        print("top self time (share of op wall): " + ", ".join(f"{n} {s:.1%}" for n, s in result["top_self"]))
        print(f"trace file: {trace_file.relative_to(root)}")
    else:
        m = result["metrics"]
        print(
            f"ops timed: {m['op_count']}; not gated: work_per_s {m['work_per_s']:.6g} item/s (raw wall), "
            f"op_s.p50 {m['op_s.p50']:.6g} s, op_s.p90 {m['op_s.p90']:.6g} s, reference kernel {m['ref.s']:.6g} s"
        )
    for error in result["errors"]:
        print(f"failed {error}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
