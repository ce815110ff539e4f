"""The cmhl benchmark: one workload per call, measured in child processes.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics from a traced
run, together with the tracing overhead against untraced runs of the same
seed just before and after it. Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything a run writes goes under ``.perfbench_run/`` in the checkout.

Run from the root of a checkout that holds ``src/cmhl``. Exit code 0 means
every correctness check passed; 1 means a check failed or a worker did not
finish; 2 means the program's sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_train", "mid_train", "desk_eval", "gradcheck")

# extra fresh processes that only set up; with the measured run's own set-up
# they give five samples, and setup_s is their median
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0

# per-workload names for the end-to-end figures, printed for reading; the
# JSON line carries the metrics every workload shares instead
REPORT_NAMES = (
    ("setup_s", "s"),
    ("train_examples_per_s", "examples/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_examples_per_s", "examples/s"),
    ("gradcheck_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("val_macro_f1", "ratio"),
    ("failed_frac", "ratio"),
)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_info() -> dict:
    """Run metadata recorded beside the results; nothing gates on it."""
    cpu = mem = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), None)
        with open("/proc/meminfo") as handle:
            mem = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("MemTotal")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": mem,
        "git_commit": commit,
        "src_py_lines": src_lines,
    }


class Runner:
    """Starts worker processes against one deadline and collects their JSON."""

    def __init__(self, args, rundir: Path):
        self.args = args
        self.rundir = rundir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.errors: list[str] = []

    def spawn(self, tag: str, trace: int, setup_only: bool = False):
        """Run one worker; returns (its JSON or None, set-up seconds or None)."""
        out = self.rundir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--trace", str(trace),
            "--workdir", str(self.rundir / f"work-{tag}"), "--out", str(out),
        ] + (["--setup-only"] if setup_only else [])
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.errors.append(f"{tag}: no time left before the run's limit")
            return None, None
        started = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{tag}: worker killed after {remaining:.0f}s")
            return None, None
        finally:
            shutil.rmtree(self.rundir / f"work-{tag}", ignore_errors=True)
        if done.returncode != 0 or not out.exists():
            self.errors.append(f"{tag}: worker exited {done.returncode}")
            return None, None
        result = json.loads(out.read_text())
        return result, result["setup_end_monotonic"] - started


def op_p50(result) -> float:
    return statistics.median(result["tally"]["latencies_ms"])


def end_to_end(result, setup_samples) -> dict:
    tally = result["tally"]
    return {
        "setup_s": statistics.median(setup_samples),
        "op_ms_p50": op_p50(result),
        "items_per_s": tally["items"] / tally["busy_s"],
        "peak_rss_mib": result["peak_rss_mib"],
    }


def report_values(workload: str, result, e2e: dict) -> dict:
    """The nine per-workload figures; None where one does not apply."""
    tally = result["tally"]
    lat = tally["latencies_ms"]
    values = dict.fromkeys(name for name, _ in REPORT_NAMES)
    values.update(setup_s=e2e["setup_s"], peak_rss_mib=e2e["peak_rss_mib"],
                  failed_frac=tally["failed"] / max(tally["attempted"], 1))
    if workload in ("desk_train", "mid_train"):
        values.update(train_examples_per_s=e2e["items_per_s"], step_ms_p50=e2e["op_ms_p50"])
        if len(lat) >= 100:
            values["step_ms_p90"] = statistics.quantiles(lat, n=10)[-1]
    if workload == "desk_train":
        rep = tally["report"]
        values.update(eval_examples_per_s=rep["validation_examples"] / rep["validation_s"],
                      val_macro_f1=rep["val_macro_f1"])
    if workload == "desk_eval":
        values["eval_examples_per_s"] = e2e["items_per_s"]
    if workload == "gradcheck":
        values["gradcheck_s"] = e2e["op_ms_p50"] / 1e3
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmhl" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'cmhl'}; "
              "run from the root of a cmhl checkout", file=sys.stderr)
        return 2
    spec = declared()
    # the build step: byte-compile once so that no measured set-up compiles
    for path in (ROOT / "src", HERE):
        compileall.compile_dir(str(path), quiet=1)

    rundir = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, rundir)

    if args.trace == 0:
        # half the set-up samples before the measured run and half after, so
        # that their median spans the run's time window
        samples = [runner.spawn(f"setup{k}", 0, setup_only=True)[1] for k in range(SETUP_SAMPLES // 2)]
        result, setup_s = runner.spawn("measure", 0)
        samples.append(setup_s)
        samples += [runner.spawn(f"setup{k}", 0, setup_only=True)[1]
                    for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
        workers, declared_metrics = [result], spec["end_to_end"]
    else:
        # untraced runs before and after the traced one, so that a drift in
        # the machine's speed cancels out of the overhead
        before, _ = runner.spawn("untraced-before", 0)
        result, _ = runner.spawn("traced", 1)
        after, _ = runner.spawn("untraced-after", 0)
        workers, declared_metrics = [before, result, after], spec["per_layer"]

    finished = not runner.errors  # every worker, set-up samples included, ended well
    done = [w for w in workers if w is not None]
    attempted = sum(w["tally"]["attempted"] for w in done) or 1
    failed = sum(w["tally"]["failed"] for w in done) + len(runner.errors)
    errors = runner.errors + [e for w in done for e in w["tally"]["errors"]]
    out = {"correct": finished and failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    report = None
    if finished and args.trace == 0:
        metrics = end_to_end(result, samples)
        report = report_values(args.workload, result, metrics)
    elif finished:
        metrics = dict(result["layers"])
        untraced = (op_p50(before) + op_p50(after)) / 2
        metrics["trace.overhead_ms"] = op_p50(result) - untraced
        metrics["trace.overhead_frac"] = op_p50(result) / untraced - 1.0
    if finished:
        out["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared_metrics}

    meta = {**machine_info(), **(result["runtime"] if finished else {})}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "meta": meta, "errors": errors, "report": report, **out}
    if finished:
        summary.update(unit=result["unit"], operations=result["tally"]["units"],
                       samples=len(result["tally"]["latencies_ms"]),
                       process_peak_rss_mib=result["process_peak_rss_mib"])
    (rundir / "result.json").write_text(json.dumps(summary, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in meta.items():
        print(f"  meta {key}: {value}")
    if finished:
        print(f"  {summary['operations']} whole operations, {summary['samples']} timed samples "
              f"of one {summary['unit']}; process peak RSS {summary['process_peak_rss_mib']:.1f} MiB")
    for name, unit in REPORT_NAMES if report else ():
        shown = "n/a" if report[name] is None else f"{report[name]:.6g} {unit}"
        print(f"  {name:<22} {shown}")
    for error in errors[:20]:
        print(f"  FAILED: {error}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
