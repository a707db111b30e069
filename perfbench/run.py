"""Benchmark of the paneitz package: one workload per run, outputs checked.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory and driven in-process through ``paneitz.cli.main(argv)``
and public functions; no file under ``src/`` is touched.  After an untimed
warm-up pass, a fixed number of whole passes over the workload's task list
run: ``--seconds`` over the workload's nominal pass time.  The count does not
depend on how fast the host is, so the same seed and ``--seconds`` give the
same tasks, and the same ``attempted`` and ``failed``, on every run.

``--trace 0`` prints the end-to-end metrics; set-up time is measured in
fresh interpreters (``setup_probe.py``).  Their times are scaled to a
reference host speed (``HostSpeed``, ``host_speed.py``), since a shared
host's CPU speed drifts; set-up time by reference samples taken between its
probes, the other times by those taken between passes.  The raw wall times
are in the report.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, with the tracing overhead as traced over untraced pass
time; its spans are written to ``.bench_out/``.  The last line of standard output is the result as JSON;
the line before it is a report with the run context, sample counts, named
failure reasons, ``fail_ratio`` and ``task_s_p90``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the single-threaded baseline
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# No transparent huge pages for numpy's arrays: whether the kernel grants them
# depends on the host's memory state, and they round peak RSS up by megabytes.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NoReturn

from tracing import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verified_per_s": "1/s",
    "task_s_p50": "s",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = {
    "solver.newton_solve": ("calls", "busy_s", "self_s", "fail"),
    "solver.continuation_init": ("calls", "busy_s"),
    "sweep.branch_continuation": ("calls", "busy_s", "fail"),
    "sweep.run_sweep": ("self_s",),
    "sweep.emit": ("busy_s",),
    "cli.main": ("self_s",),
    "solver.minimize_quotient": ("calls", "busy_s", "fail"),
    "solver.rescale_to_solution": ("busy_s",),
    "field.save_field": ("busy_s",),
    "field.load_field": ("busy_s",),
    "field.norms": ("calls", "busy_s"),
    "field.localized_mass": ("calls", "busy_s"),
    "field.PeriodicField.fine_values": ("calls", "busy_s"),
    "diagnostics.concentration_ratios": ("calls", "busy_s", "self_s"),
    "diagnostics.quantization_check": ("busy_s",),
    "diagnostics.multi_bubble_energy": ("calls", "busy_s"),
    "quadrature.panel_rule": ("calls", "busy_s"),
    "bubble.pde_residual": ("busy_s",),
    "bubble.bubble_energy": ("busy_s",),
    "bubble.pohozaev_identity_residual": ("busy_s",),
}
_UNITS = {"calls": "count", "fail": "count", "busy_s": "s", "self_s": "s",
          "iters": "count", "modes_max": "count", "nodes": "count", "bytes": "B"}
PER_LAYER = {f"{fn}.{stat}": _UNITS[stat] for fn, stats in _SPAN_METRICS.items() for stat in stats}
PER_LAYER.update({
    "solver.newton_solve.iters": "count",
    "solver.newton_solve.modes_max": "count",
    "solver.minimize_quotient.iters": "count",
    "field.save_field.bytes": "B",
    "field.load_field.bytes": "B",
    "quadrature.panel_rule.nodes": "count",
    "sweep.continuation.solves_per_call": "solves/call",
    "constants.calls": "count",
    "geometry.calls": "count",
    "trace.pass_s_untraced": "s",
    "trace.pass_s_traced": "s",
    "trace.overhead_ratio": "ratio",
})


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# --- run context -------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "paneitz").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- measurement ---------------------------------------------------------------


def measure_setup(workload: str, workdir: Path, host: HostSpeed) -> tuple[list[float], list[float]]:
    """Cold set-up time, each sample in a fresh interpreter, and the host
    reference timed before each probe and after the last."""
    samples, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(host.time_reference())
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir), str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    reference.append(host.time_reference())
    return samples, reference


class HostSpeed:
    """Times the reference computation of ``host_speed.py`` between passes.

    On a host shared with other tenants, CPU speed drifts by tens of percent
    over minutes, uniformly across workloads.  End-to-end times are reported
    scaled by REFERENCE_S / (median reference time of the run), that is in
    seconds at the host speed where the reference takes REFERENCE_S.
    """

    REFERENCE_S = 0.07
    INTERVAL_S = 1.0

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "host_speed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def time_reference(self) -> float:
        """Seconds the reference takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            fail(f"host speed reference exited with {self._proc.poll()}")
        return float(answer)

    def sample(self) -> None:
        """Time the reference if INTERVAL_S has passed since the last sample."""
        if perf_counter() - self._last < self.INTERVAL_S:
            return
        self.samples.append(self.time_reference())
        self._last = perf_counter()

    @classmethod
    def factor(cls, samples: list[float]) -> float:
        return cls.REFERENCE_S / statistics.median(samples)


def run_pass(workload, tracer=None) -> list[dict]:
    """One pass over the task list; each task timed, then checked untimed.

    A task whose program call fails records the reason; one whose output
    fails a check, or cannot be checked, is also marked ``wrong``.
    """
    from workloads import TaskFailed  # imports paneitz, so only once src/ is on the path

    records = []
    for task in workload.tasks:
        if tracer is not None:
            tracer.task = task["label"]
        reason, outputs, wrong = None, 0, False
        start = perf_counter()
        try:
            result = workload.run(task)
        except TaskFailed as exc:
            reason = str(exc)
        except Exception as exc:  # the task boundary: record and go on
            reason = f"run: raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if reason is None:
            if tracer is not None:
                tracer.paused = True
            try:
                outputs = workload.check(task, result)
            except TaskFailed as exc:
                reason, wrong = f"check: {exc}", True
            except Exception as exc:  # the task boundary: record and go on
                reason, wrong = f"check: raised {type(exc).__name__}: {exc}", True
            finally:
                if tracer is not None:
                    tracer.paused = False
        records.append({"task": task["label"], "seconds": seconds, "outputs": 0 if reason else outputs,
                        "reason": reason, "wrong": wrong})
    return records


def pass_seconds(records) -> float:
    return sum(r["seconds"] for r in records)


def percentile_with_tail(values, q: int):
    """The q-th percentile when at least ten samples lie beyond it, else None."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_samples, factor: float, setup_factor: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, times scaled to the reference host speed; the raw
    wall-time values go to the report."""
    tasks = [r for records in passes for r in records]
    times = [r["seconds"] for r in tasks]
    pass_times = [pass_seconds(records) for records in passes]
    failed = [r for r in tasks if r["reason"]]
    raw = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(pass_times),
        "verified_per_s": sum(r["outputs"] for r in tasks) / sum(times),
        "task_s_p50": statistics.median(times),
    }
    values = {name: value / factor if name == "verified_per_s" else value * factor
              for name, value in raw.items()}
    values["setup_s"] = raw["setup_s"] * setup_factor
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": len(setup_samples), "pass_s": len(pass_times),
               "verified_per_s": len(tasks), "task_s_p50": len(tasks), "peak_rss_mb": 1}
    p90 = percentile_with_tail(times, 90)
    extra = {
        "raw_wall_time": raw,
        "fail_ratio": len(failed) / len(tasks),
        "task_s_p90": p90 * factor if p90 is not None else
        f"omitted: {len(tasks)} tasks, fewer than 10 would lie beyond p90",
        "outputs_verified": sum(r["outputs"] for r in tasks),
    }
    return values, samples, extra


def per_layer(summaries, untraced, traced) -> dict:
    def median_of(key):
        return statistics.median(s.get(key, 0.0) for s in summaries)

    def mean_of(key):
        return statistics.fmean(s.get(key, 0) for s in summaries)

    values = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        if name.endswith(".modes_max"):
            values[name] = max(s.get(name, 0) for s in summaries)
        elif unit == "s":
            values[name] = median_of(name)
        elif name == "sweep.continuation.solves_per_call":
            calls = mean_of("sweep.branch_continuation.calls")
            values[name] = mean_of("sweep.continuation.solves") / calls if calls else 0.0
        else:
            values[name] = mean_of(name)
    values["trace.pass_s_untraced"] = statistics.median(untraced)
    values["trace.pass_s_traced"] = statistics.median(traced)
    values["trace.overhead_ratio"] = values["trace.pass_s_traced"] / values["trace.pass_s_untraced"]
    return values


def failure_reasons(passes) -> list[dict]:
    counts: dict[tuple[str, str], int] = {}
    for records in passes:
        for r in records:
            if r["reason"]:
                key = (r["task"], r["reason"])
                counts[key] = counts.get(key, 0) + 1
    return [{"task": task, "reason": reason, "count": count}
            for (task, reason), count in sorted(counts.items())]


def measure(args, workload, workdir: Path) -> tuple[dict, dict, dict, list]:
    """Run the passes; return metrics with units, sample counts, report extras, passes."""
    with HostSpeed() as host:
        run_pass(workload)  # warm-up: caches fill and lazy set-up finishes untimed
        host.time_reference()  # the helper's first, cold, reference is dropped
        passes, spans, summaries, untraced, traced = [], [], [], [], []
        tracer = Tracer() if args.trace else None
        # a traced round runs two passes, one untraced and one traced
        per_round = workload.nominal_pass_s * (2 if tracer is not None else 1)
        rounds = max(1, round(args.seconds / per_round))
        origin = perf_counter()
        for _ in range(rounds):
            host.sample()
            passes.append(run_pass(workload))
            if tracer is not None:
                untraced.append(pass_seconds(passes[-1]))
                tracer.reset()
                tracer.install()
                try:
                    records = run_pass(workload, tracer)
                finally:
                    tracer.uninstall()
                passes.append(records)
                traced.append(pass_seconds(records))
                spans.append(tracer.spans)
                summaries.append(tracer.summary())
        if tracer is None:
            setup_samples, setup_reference = measure_setup(args.workload, workdir, host)
    factor = HostSpeed.factor(host.samples)
    host_speed = {"reference_s": statistics.median(host.samples), "factor": factor}
    if tracer is None:
        setup_factor = HostSpeed.factor(setup_reference)
        values, samples, extra = end_to_end(passes, setup_samples, factor, setup_factor)
        samples["host_reference"] = len(host.samples)
        samples["setup_host_reference"] = len(setup_reference)
        host_speed["setup_reference_s"] = statistics.median(setup_reference)
        host_speed["setup_factor"] = setup_factor
        units = END_TO_END
    else:
        values = per_layer(summaries, untraced, traced)
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                   "host_reference": len(host.samples)}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(trace_path, origin, spans)
        extra = {"spans": sum(len(s) for s in spans), "spans_file": str(trace_path.relative_to(ROOT))}
        units = PER_LAYER
    extra["host_speed"] = host_speed
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, samples, extra, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the workload and the host-speed helper: they take turns, and
    # the reference then meets the same contention as the workload.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not (SRC / "paneitz" / "__init__.py").is_file():
        fail(f"no paneitz sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import paneitz

    if Path(paneitz.__file__).resolve().parent != SRC / "paneitz":
        fail(f"imported paneitz from {paneitz.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        workload.prepare()
        metrics, samples, extra, passes = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tasks = [r for records in passes for r in records]
    failed = sum(1 for r in tasks if r["reason"])
    # a crash or a numerical failure is a failed task; only a wrong answer is incorrect
    incorrect = sum(1 for r in tasks if r["wrong"])
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:44s} {metric['value']!r:>24} {metric['unit']}")
    report = {
        "context": run_context(args),
        "samples": samples,
        "failures": failure_reasons(passes),
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": incorrect == 0, "attempted": len(tasks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
