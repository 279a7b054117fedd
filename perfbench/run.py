"""soficlab benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload enum-scan --seed 0 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  enum-scan            configs E3, E5, E6: exhaustive good-model enumeration
  defect-cover-oracle  configs E4, E9 (sampled quenched and doubly quenched
                       defects), E1, E2, E7, E8 (cover/pack solvers, Schreier
                       spectra), then a fresh tree-Markov oracle queried twice
                       on 15 elements of the radius-2 ball of F2; never
                       enumerates

Experiments run through `soficlab.cli.main(["run", <config>, "--out", <dir>])`
on configs generated from the seed (seed 0 runs the committed configs and
byte-compares every artifact with results/). A pass is started while it
should end within --seconds, judged by the previous pass; there is always at
least one. Each pass index draws new inputs.

--trace 0 prints the end-to-end metrics setup_s (median launch-to-ready time
of fresh processes that import soficlab and validate the configs, half of
them launched before the passes and half after) and wall_s (median pass
time), and on lines of their own the median time of each operation (e3_s,
..., oracle_s), peak_rss_mb and failed_frac.
--trace 1 runs pass 0 untraced, then again with every public soficlab function
wrapped in spans, and prints the per-module metrics and peak_rss_mb. Peak
memory is not an end-to-end metric because on enum-scan it follows the number
of good models E3 keeps, which varies with the seed from about 180 to 660 MB.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 12  # half before the passes, half after
PROBE_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"))


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_threads(nproc: int) -> None:
    """Cap the BLAS and OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def missing_inputs() -> List[str]:
    needed = [ROOT / "src" / "soficlab" / "__init__.py", ROOT / "configs", ROOT / "results"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def import_soficlab():
    sys.path.insert(0, str(ROOT / "src"))
    import soficlab.cli

    if (ROOT / "src") not in Path(soficlab.__file__).resolve().parents:
        raise ImportError(f"soficlab was imported from {soficlab.__file__}, not from this checkout")
    return soficlab.cli


def setup_seconds(config_paths: List[Path], probes: int) -> List[float]:
    """Launch-to-ready times of fresh processes that import and validate."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(ROOT), *map(str, config_paths)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def code_digest() -> str:
    h = hashlib.blake2b(digest_size=8)
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report_ops(passes) -> tuple:
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        for problem in op.problems:
            print(f"FAIL {problem}")
    return len(ops), len(failed)


def run_untraced(args, workload, cli) -> dict:
    paths = [path for _, _, path in workload.config_paths(0)]
    setup = setup_seconds(paths, SETUP_PROBES // 2)
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(workload.run_pass(len(passes), cli.main))
        now = time.perf_counter()
        if (now - start) + (now - begun) > args.seconds:  # the next pass would overrun
            break
    setup += setup_seconds(paths, SETUP_PROBES - SETUP_PROBES // 2)
    attempted, failed = report_ops(passes)
    op_names = list(dict.fromkeys(op.name for op in passes[0].ops))
    print(f"passes {len(passes)}: " + ", ".join(f"{p.seconds:.3f} s" for p in passes))
    for name in op_names:
        print(f"op {name.lower()}_s {statistics.median(p.op_seconds(name) for p in passes):.4f} s")
    print(f"peak_rss_mb {peak_rss_mb():.1f} MB")
    print("setup probes: " + ", ".join(f"{t:.4f}" for t in setup) + " s")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for i, p in enumerate(passes):
        print(f"digest pass{i} {p.digest} ({p.artifact_bytes} artifact bytes)")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.seconds for p in passes),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, dict(END_TO_END)),
    }


def run_traced(args, workload, cli) -> dict:
    untraced = workload.run_pass(0, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # look main up at call time, so the wrapped entry point is the one called
        traced = workload.run_pass(0, lambda argv: cli.main(argv), label="-traced", on_op=tracer.set_operation)
    finally:
        tracer.uninstall()

    attempted, failed = report_ops([untraced, traced])
    problems = []
    if traced.digest != untraced.digest:
        problems.append("traced pass wrote other artifacts than the untraced pass")
    values = tracer.metrics(traced.seconds, untraced.seconds, traced.artifact_bytes)
    values["peak_rss_mb"] = peak_rss_mb()
    counters = {name: values[name] for name in tracing.EXACT_COUNTERS}
    record = SCRATCH / "counters" / f"{args.workload}-seed{args.seed}-{code_digest()}.json"
    if record.exists():
        previous = json.loads(record.read_text())
        changed = sorted(k for k in counters if previous.get(k) != counters[k])
        if changed:
            problems.append(f"exact counters differ from an earlier traced run of the same code: {changed}")
        else:
            print(f"exact counters repeat those of {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counters, sort_keys=True) + "\n")
    spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.span_records()) + "\n")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"traced wall {traced.seconds:.3f} s, untraced wall {untraced.seconds:.3f} s, "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    print(f"digest pass0 {traced.digest} ({traced.artifact_bytes} artifact bytes)")
    for name, unit, _ in tracing.PER_LAYER:
        note = "  (computed from call arguments)" if name == "convergence.kernel_cells_per_s" else ""
        print(f"layer {name} {values[name]:.6g} {unit}{note}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, {name: unit for name, unit, _ in tracing.PER_LAYER}),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="workload seed; the default runs the committed configs")
    parser.add_argument("--seconds", type=float, default=45.0, help="measure for about this long, one pass at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-module metrics")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    nproc = available_cpus()
    pin_threads(nproc)
    cli = import_soficlab()

    print("env " + json.dumps(environment(nproc), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    work = SCRATCH / f"run-{os.getpid()}"
    workload = workloads.ExperimentWorkload(args.workload, args.seed, ROOT, work)
    try:
        result = run_traced(args, workload, cli) if args.trace else run_untraced(args, workload, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
