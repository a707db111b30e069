"""Cold set-up time of one workload, measured in a fresh interpreter.

Times ``import paneitz`` plus the first call of each entry point the
workload uses, on small inputs.  Every ``paneitz`` invocation pays this once.
Run by ``run.py`` as ``python3 perfbench/setup_probe.py WORKLOAD WORKDIR SRC``;
prints ``{"setup_s": seconds}``.
"""

import sys
from time import perf_counter


def main(workload: str, workdir: str) -> None:
    start = perf_counter()
    import io
    import os
    from contextlib import redirect_stdout

    import paneitz.cli
    import paneitz.diagnostics

    field_path = os.path.join(workdir, "setup.field")
    first_calls = {
        "sweep-dense": [["sweep", "--dim", "5", "--t", "1", "--alpha", "2:4:2:log",
                         "--out", os.path.join(workdir, "setup.csv")]],
        "solve-fresh": [["solve", "--dim", "5", "--t", "1", "--alpha", "4", "--init", "mode1",
                         "--field-out", field_path],
                        ["diagnose", field_path, "--alpha", "4"]],
        "bubble-quad": [["bubble-check", "--dim", "5"]],
    }[workload]
    with redirect_stdout(io.StringIO()):
        for argv in first_calls:
            if paneitz.cli.main(argv) != 0:
                raise SystemExit(f"setup call failed: paneitz {' '.join(argv)}")
        if workload == "bubble-quad":
            paneitz.diagnostics.quantization_check(5, 1.5)
    elapsed = perf_counter() - start
    print(f'{{"setup_s": {elapsed!r}}}')


if __name__ == "__main__":
    src = sys.argv[3]
    sys.path.insert(0, src)
    main(sys.argv[1], sys.argv[2])
