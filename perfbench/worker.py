"""Worker process: runs one workload's plan as a closed loop of ops, one at a time.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

run.py starts it fresh for every run, after generating the inputs, with
PYTHONPATH pointing at the checkout's src/.  One untimed warm-up op comes
first.  Cycles of the plan's ops then run until the plan's `seconds` have
passed.  Each op is timed alone, followed by a timed run of the workload's
reference kernel (reference.py), and checked after that, outside both times.
With `trace` set, cycles alternate between untraced and traced, the latter with
every public siqrng function wrapped (tracer.py); the per-layer numbers come
from the traced cycles and the overhead from the difference between the two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
from checks import CheckError, field
from tracer import Tracer

import siqrng
import siqrng.cli

MAX_LOGGED_ERRORS = 5


def run_cli(argv: list[str]) -> dict[str, str]:
    """siqrng.cli.main in process; the stdout report parsed by key."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = siqrng.cli.main(argv)
    if status != 0:
        raise CheckError(f"siqrng {argv[0]} exited {status}: {err.getvalue().strip()}")
    return checks.parse_report(out.getvalue())


def read_bit_file(path: str) -> np.ndarray:
    return np.frombuffer(Path(path).read_bytes().strip(), dtype=np.uint8) - ord("0")


class Postprocess:
    """rate --counts then extract --net-bits on ASCII bit files; work = raw bits hashed."""

    def __init__(self, plan: dict):
        self.eps2 = plan["eps2"]

    def op(self, spec: dict, op_id: int):
        cert = run_cli(["rate", "--counts", spec["counts"], "--N", str(spec["N"])])
        ext = run_cli(
            ["extract", "--input", spec["raw"], "--seed-file", spec["seed"], "--net-bits", cert["net_bits"], "--out", spec["out"]]
        )
        return spec["n"], (cert, ext)

    def check(self, spec: dict, result) -> None:
        cert, ext = result
        checks.check_rate_report(cert, spec["N"])
        checks.check_extraction(
            read_bit_file(spec["seed"]),
            read_bit_file(spec["raw"]),
            read_bit_file(spec["out"]),
            float(cert["net_bits"]),
            int(field(ext, "m")),
            self.eps2,
            np.array(spec["rows"]),
        )


class McCertify:
    """rate --simulate --mc with a fresh seed per op; work = pulses simulated and certified."""

    def __init__(self, plan: dict):
        self.seed_base = plan["seed_base"]

    def _flags(self, spec: dict, op_id: int) -> list[str]:
        return ["--mc", "--N", str(spec["N"]), "--q", str(spec["q"]), "--mu0", str(spec["mu0"]), "--p", str(spec["p"]),
                "--seed", str(self.seed_base + op_id)]  # fmt: skip

    def op(self, spec: dict, op_id: int):
        return spec["N"], (run_cli(["rate", "--simulate", *self._flags(spec, op_id)]), op_id)

    def check(self, spec: dict, result) -> None:
        cert, op_id = result
        checks.check_rate_report(cert, spec["N"])
        n_z = field(cert, "n_z")
        checks.check_z_clicks(n_z, spec["N"], spec["q"], spec["mu0"], spec["p"])
        if spec["cross_check"]:
            sim = run_cli(["simulate", *self._flags(spec, op_id)])
            pulses = {b: field(sim, f"pulses.{b}") for b in "xyz"}
            counts = {b: tuple(field(sim, f"counts.{b}.{k}") for k in ("n0", "n1", "nd")) for b in "xyz"}
            checks.check_mc_counts(spec["N"], spec["q"], spec["mu0"], spec["p"], pulses, counts)
            if field(sim, "counts.z.total") != n_z:
                raise CheckError(f"rate certified n_z = {n_z}, simulate drew {sim['counts.z.total']} Z clicks")


class DesignSweep:
    """Library optimize() on the default grids; work = evaluated (mu, q) cells."""

    def __init__(self, plan: dict):
        self.seen: dict[tuple, tuple] = {}

    def op(self, spec: dict, op_id: int):
        result = siqrng.optimize(
            n_pulses=spec["N"], p_mix=spec["p"], budget=siqrng.EpsilonBudget.uniform(), policy=spec["policy"]
        )
        return result.evaluations, result

    def check(self, spec: dict, result) -> None:
        if not result.positive:
            raise CheckError(f"no positive rate at {spec}")
        key = (spec["N"], spec["p"], spec["policy"])
        optimum = (result.mu_opt, result.q_opt, result.rate_opt)
        if key in self.seen:
            if optimum != self.seen[key]:
                raise CheckError(f"optimum {optimum} differs from the earlier {self.seen[key]} at {spec}")
            return
        # first time in the run: re-certify the optimum through the scalar path
        cert = run_cli(["rate", "--simulate", "--N", repr(spec["N"]), "--q", repr(result.q_opt),
                        "--mu0", repr(result.mu_opt), "--p", repr(spec["p"]), "--policy", spec["policy"]])  # fmt: skip
        checks.check_optimum(*optimum, cert.get("rate_per_pulse", ""), spec["reference"])
        self.seen[key] = optimum


class CertifyStream:
    """rate --counts over a pool of small counts files; work = certificates issued."""

    def __init__(self, plan: dict):
        pass

    def op(self, spec: dict, op_id: int):
        return 1, run_cli(["rate", "--counts", spec["counts"], "--N", str(spec["N"]), "--policy", spec["policy"]])

    def check(self, spec: dict, result) -> None:
        checks.check_rate_report(result, spec["N"])


WORKLOADS = {
    "postprocess": Postprocess,
    "mc_certify": McCertify,
    "design_sweep": DesignSweep,
    "certify_stream": CertifyStream,
}


class Loop:
    """Closed loop over the plan's ops, each followed by the reference kernel; counts attempted and failed ops."""

    def __init__(self, workload, ops: list[dict], reference):
        self.workload = workload
        self.ops = ops
        self.reference = reference
        self.op_ids = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_ref = self.time_reference()

    def time_reference(self) -> float:
        start = time.perf_counter()
        self.reference()
        return time.perf_counter() - start

    def one(self, spec: dict, tracer: Tracer | None = None) -> tuple[float, int, float]:
        """Run, time and check one op.

        Returns its wall seconds, its work items (-1 if it failed) and the
        mean time of the reference kernel runs just before and just after it.
        """
        op_id = next(self.op_ids)
        self.attempted += 1
        if tracer is not None:
            tracer.begin(op_id)
        start = time.perf_counter()
        try:
            try:
                items, result = self.workload.op(spec, op_id)
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.end(wall)
                before, self.last_ref = self.last_ref, self.time_reference()
                ref = (before + self.last_ref) / 2.0
            self.workload.check(spec, result)
        except Exception as e:  # a failing op is counted and the run goes on
            self.failed += 1
            if len(self.errors) < MAX_LOGGED_ERRORS:
                self.errors.append(f"op {op_id}: {type(e).__name__}: {e}")
            return wall, -1, ref
        return wall, items, ref

    def run(self, seconds: float, tracer: Tracer | None = None):
        """The plan's ops in order, cycle after cycle, until `seconds` have passed.

        Returns per op of the plan the list of its (wall, items, ref) runs.
        After the first cycle the run stops with the op that crosses the
        deadline.  With a tracer, whole cycles alternate untraced and traced,
        so that both see the same conditions, and the untraced and the traced
        runs are returned apart.
        """
        deadline = time.perf_counter() + seconds
        done = ([[] for _ in self.ops], [[] for _ in self.ops])
        for c in itertools.count():
            traced = tracer is not None and c % 2 == 1
            if traced:
                tracer.install()
            try:
                for runs, spec in zip(done[traced], self.ops):
                    runs.append(self.one(spec, tracer if traced else None))
                    if tracer is None and c > 0 and time.perf_counter() >= deadline:
                        return done[0]
            finally:
                if traced:
                    tracer.uninstall()
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return done if tracer is not None else done[0]


def succeeded(samples):
    """Per op of the plan, its runs that did not fail, or all of them if none succeeded."""
    return [[s for s in runs if s[1] >= 0] or runs for runs in samples]


def ref_ratio(samples) -> float:
    """Sum over the plan's ops of each op's median ratio of its wall time to the reference kernel's."""
    return sum(statistics.median(wall / ref for wall, _, ref in runs) for runs in succeeded(samples))


def median_cycle_s(samples) -> float:
    """Sum over the plan's ops of each op's median wall time."""
    return sum(statistics.median(wall for wall, _, _ in runs) for runs in succeeded(samples))


def end_to_end(samples, nominal_s: float) -> dict[str, float]:
    """Work per second at the reference kernel's nominal speed, and raw wall figures.

    `norm_work_per_s` divides one cycle's work items by the sum, over the
    cycle's ops, of each op's median time in units of the reference kernel
    run around it, times that kernel's nominal seconds (reference.py).  A
    host slow spell stretches op and kernel alike and leaves it in place.
    `work_per_s` is the same from raw median wall times; it and the op-time
    median and p90 are printed for reading, not gated.
    """
    ok = succeeded(samples)
    times = [wall for runs in ok for wall, _, _ in runs]
    items = sum(max(0, *(items for _, items, _ in runs)) for runs in samples)
    return {
        "norm_work_per_s": items / (ref_ratio(samples) * nominal_s),
        "work_per_s": items / median_cycle_s(samples),
        "ref.s": statistics.median(ref for runs in samples for _, _, ref in runs),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "op_count": len(times),
    }


def per_layer(t: Tracer, untraced, traced, nominal_s: float) -> dict[str, float]:
    """Per traced op: layer times, calls, counts and self-time shares, and the trace overhead."""
    metrics = {}
    for name in (
        "extractor.toeplitz_extract", "detector.mc_sample", "optimizer.optimize", "optimizer.rate_surface",
        "qubit.binary_entropy_arr", "cli.build_parser", "acquisition.read_counts", "qubit.coherence_rel_entropy",
        "bounds.assemble_rate_report",
    ):  # fmt: skip
        metrics[f"{name}.s"] = t.time(name)
        metrics[f"{name}.calls"] = t.calls(name)
    metrics["cli.main.self_s"] = t.self_time("cli.main")
    metrics["cli.main.calls"] = t.calls("cli.main")
    metrics["optimizer.self_s"] = t.self_time("optimizer.")
    metrics["acquisition.self_s"] = t.self_time("acquisition.")
    for name in ("extractor.raw_bits", "extractor.out_bits", "extractor.matrix_ops", "extractor.io_bytes",
                 "detector.pulses", "optimizer.cells"):  # fmt: skip
        metrics[name] = t.count(name)
    metrics["extractor.io_s"] = t.time("extractor.read_bits") + t.time("extractor.write_bits")
    extract_s = t.time("extractor.toeplitz_extract")
    metrics["extractor.raw_bits_per_s"] = metrics["extractor.raw_bits"] / extract_s if extract_s else 0.0
    pulses, cells = metrics["detector.pulses"], metrics["optimizer.cells"]
    metrics["detector.ns_per_pulse"] = 1e9 * t.time("detector.mc_sample") / pulses if pulses else 0.0
    metrics["optimizer.ns_per_cell"] = 1e9 * t.time("optimizer.rate_surface") / cells if cells else 0.0
    shares = t.self_shares()
    for layer in ("extractor", "detector", "optimizer", "qubit", "bounds", "acquisition", "cli", "outside"):
        metrics[f"{layer}.self_share"] = shares.get(layer, 0.0)
    plain, wrapped = median_cycle_s(untraced), median_cycle_s(traced)
    metrics["trace.overhead_s"] = (wrapped - plain) / len(untraced)
    metrics["trace.overhead_share"] = (wrapped - plain) / plain
    metrics["trace.ops"] = t.ops
    raw = end_to_end(untraced, nominal_s)
    metrics["wall.work_per_s"] = raw["work_per_s"]
    metrics["ref.s"] = raw["ref.s"]
    return metrics


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    workload = plan["workload"]
    nominal_s = reference.NOMINAL_S[workload]
    loop = Loop(WORKLOADS[workload](plan), plan["ops"], reference.KERNELS[workload]())
    loop.one(plan["ops"][0])  # warm-up, untimed
    seconds = plan["seconds"]
    result: dict = {}
    if plan["trace"]:
        tracer = Tracer()
        untraced, traced = loop.run(seconds, tracer=tracer)
        result["metrics"] = per_layer(tracer, untraced, traced, nominal_s)
        result["top_self"] = tracer.top_self()[:5]
        Path(plan["trace_file"]).write_text(json.dumps({"machine": plan["machine"], **tracer.record()}))
    else:
        result["metrics"] = end_to_end(loop.run(seconds), nominal_s)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
