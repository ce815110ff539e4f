"""Run one workload in this process and write what it measured as JSON.

``run.py`` starts this script once per measurement so that each workload's
peak RSS is its own. With ``--setup-only`` it stops after set-up and reports
only when set-up ended. With ``--trace 1`` the calls into every ``cmhl``
module are wrapped in spans and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def runtime_info() -> dict:
    """Interpreter, NumPy/SciPy and BLAS versions, and BLAS threads."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = config = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(handle, f"{prefix}_get_num_threads{suffix}"):
                    threads = int(getattr(handle, f"{prefix}_get_num_threads{suffix}")())
                    get_config = getattr(handle, f"{prefix}_get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{args.out.parent.name}")
        tracer.install()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = W.WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup_end_monotonic": time.monotonic()}

    if not args.setup_only:
        tally = W.Tally()

        def boundary():
            # like peak_rss_mib, live tensor memory covers the first operation
            if tracer and tally.units == 0:
                tracer.sample_live_tensors()

        if tracer:
            tracer.mark_loop_start()
        deadline = time.perf_counter() + args.seconds
        while True:
            workload.run_once(tally, boundary)
            tally.units += 1
            if tally.units == 1:
                # the peak through set-up and one whole operation does not
                # depend on how many operations fit into the run
                first_peak = peak_rss_mib()
            if time.perf_counter() >= deadline:
                break
        if tracer:
            tracer.mark_loop_end()
        workload.final_checks(tally)
        result.update(
            unit=workload.unit,
            tally=dataclasses.asdict(tally),
            peak_rss_mib=first_peak,
            process_peak_rss_mib=peak_rss_mib(),
            runtime=runtime_info(),
        )
        if tracer:
            result["layers"] = tracer.layer_metrics(tally.units)
            tracer.write(args.out.with_name(f"spans-trace{args.trace}.csv.gz"))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
