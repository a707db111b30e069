"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly with --trace 0 and --trace 1.
It asserts that the result line has exactly the contract keys, and that it
emits every end-to-end (or per-layer) metric named there, with its unit and
nothing else.  A copy of the benchmark in a directory without ``src/`` must
exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"]
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True, f"{workload} trace={trace}: wrong answers\n{proc.stdout}"
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected, (
        f"{workload} trace={trace}: missing {sorted(set(expected) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(expected))}, "
        f"unit mismatch {sorted(k for k in expected if k in emitted and emitted[k] != expected[k])}"
    )
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        if not trace:
            assert value > 0, (workload, name, value)
    print(f"ok  {workload:12s} trace={trace}  {len(emitted)} metrics, "
          f"{result['attempted']} tasks, {result['failed']} failed")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without src/"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without src/"
        print(f"ok  without src/: exit {proc.returncode}: {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
