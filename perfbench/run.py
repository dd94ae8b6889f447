"""Benchmark of ghzgraphs: four workloads, five end-to-end metrics each, and
a traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan|dense|census|cli|all \
        --seed N --seconds S --trace 0|1

The package runs from ``src/`` through PYTHONPATH; nothing is installed.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with machine facts, samples and, for ``cli``, per-command output digests.
``--workload all`` runs the four in turn and also prints a table.  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS, PER_LAYER, Tracer, layer_metrics, patched

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
WORKLOADS = ("scan", "dense", "census", "cli")
PROBES = 9  # fresh interpreters per interpreter-start median
SETUP_PAIRS = 13  # set-up probes, each timed next to a numpy-import child
# setup_s is set-up time at a fixed host speed: the median ratio of a probe
# to the numpy-import child timed beside it, in units of this many seconds
# (about what that child took on the 2-vCPU VM the benchmark was built on).
NUMPY_IMPORT_S = 0.2
REF_SAMPLES = 5  # reference-kernel timings before each unit and after the last
MIN_PASSES = 3
# The top-level spans of a traced pass must cover its wall time to within
# this share plus this many seconds (the loop between jobs is not a span).
TOP_LEVEL_SHARE, TOP_LEVEL_SLACK_S = 0.02, 0.002

END_TO_END = {"setup_s": "s", "run_rel": "ref", "cpu_rel": "ref", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def spawn(argv: list[str], env: dict, err_path: Path):
    """Run a child to completion; return (exit code, stdout, stderr, rusage)."""
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), usage


def setup_probe(workload: str, seed: int, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    package and built the workload's inputs."""
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(WORK)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {proc.returncode}")
    return ready


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def child(env: dict, code: str):
    """A fresh interpreter running ``code``, as a callable."""
    return lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True)


def ref_block(reference) -> list[float]:
    """REF_SAMPLES timings of the reference, or none without one."""
    return [timed(reference) for _ in range(REF_SAMPLES)] if reference else []


def lib_pass(jobs, traced: bool, reference=None) -> dict:
    """One pass of library jobs; results are checked after the timed block.
    Each job is a unit: the reference is timed just before it, outside its
    own timing."""
    tracer = Tracer()
    gc.collect()
    outcomes, units = [], []
    with patched(tracer) if traced else contextlib.nullcontext():
        for job in jobs:
            refs = ref_block(reference)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                outcomes.append((job, job.run(), None))
            except Exception as exc:  # a raising job is a failed job
                outcomes.append((job, None, exc))
            units.append((refs, time.perf_counter() - wall0, time.process_time() - cpu0))
    out = {"wall": sum(u[1] for u in units), "cpu": sum(u[2] for u in units), "outcomes": outcomes, "units": units}
    if traced:
        out["top_level_s"] = tracer.top_level_s()
        out["layers"] = layer_metrics(tracer.spans)
    return out


def cli_pass(jobs, env: dict, traced: bool, tmp: Path, reference=None) -> dict:
    """One pass of cli jobs, one child at a time.  The whole pass is one
    unit, with the reference timed just before it."""
    tracer = Tracer()
    prefix = [sys.executable, str(HERE / "cli_child.py")] if traced else [sys.executable, "-m", "ghzgraphs"]
    outcomes, cpu, rss_kb, child = [], 0.0, 0, []
    refs = ref_block(reference)
    wall0 = time.perf_counter()
    for job in jobs:
        with tracer.span("cli." + job.name):
            code, out, err, usage = spawn(prefix + job.argv, env, tmp / "stderr")
        outcomes.append((job, (code, out, err), None))
        cpu += usage.ru_utime + usage.ru_stime
        rss_kb = max(rss_kb, usage.ru_maxrss)
        if traced and code == 0:
            child.append(json.loads(err.splitlines()[-1]))
    wall = time.perf_counter() - wall0
    result = {"wall": wall, "cpu": cpu, "rss_mb": rss_kb / 1024, "outcomes": outcomes, "units": [(refs, wall, cpu)]}
    if traced:
        result["top_level_s"] = tracer.top_level_s()
        result["layers"] = {
            "cli.import_s": statistics.median(c["import_s"] for c in child) if child else 0.0,
            "cli.command_s": sum(c["command_s"] for c in child),
            "cli.stdout_bytes": sum(len(value[1]) for _, value, _ in outcomes),
        }
    return result


def failures(outcomes, baseline: dict | None) -> list[str]:
    """Messages for every job that raised, exited non-zero, failed its check,
    or printed other bytes than in the warm-up pass.  ``baseline`` holds the
    warm-up stdout of each cli command and is None for library jobs."""
    bad = []
    for job, value, exc in outcomes:
        try:
            if exc is not None:
                raise exc
            if baseline is None:
                job.check(value)
                continue
            code, out, err = value
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.decode(errors='replace')[-500:]}")
            job.check(out)
            if job.name in baseline and out != baseline[job.name]:
                raise RuntimeError("stdout differs from the warm-up pass")
        except Exception as exc2:
            bad.append(f"{job.name}: {type(exc2).__name__}: {exc2}")
    return bad


def blas_facts() -> dict:
    """OpenBLAS build string and thread count, read from the library numpy loaded."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            config = getattr(cdll, f"{prefix}_get_config{suffix}", None)
            threads = getattr(cdll, f"{prefix}_get_num_threads{suffix}", None)
            if config and threads:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return {"blas": config().decode(), "blas_threads": threads()}
    return {"blas": "unknown", "blas_threads": None}


def machine_facts(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "platform": platform.platform(),
        "seed": seed,
        "package": "src/ via PYTHONPATH, not installed",
    }


def run_workload(args, env: dict) -> tuple[dict, dict]:
    """Measure one workload; return (result line, report)."""
    import workloads  # imports the package, so only once src/ is on sys.path

    report = {"workload": args.workload, "facts": machine_facts(args.seed)}
    metrics = {}
    numpy_import = child(env, "import numpy")
    if not args.trace:
        setup_refs = [timed(numpy_import)]
        samples = []
        for _ in range(SETUP_PAIRS):
            samples.append(setup_probe(args.workload, args.seed, env))
            setup_refs.append(timed(numpy_import))
        # each probe against the mean of the numpy-import timings just before and after it
        ratios = [probe / ((before + after) / 2) for probe, before, after in zip(samples, setup_refs, setup_refs[1:])]
        report["setup_raw_s_samples"] = samples
        report["setup_raw_s"] = statistics.median(samples)
        report["setup_ref_s"] = statistics.median(setup_refs)
        metrics["setup_s"] = statistics.median(ratios) * NUMPY_IMPORT_S
    elif args.workload == "cli":
        samples = [timed(child(env, "pass")) for _ in range(PROBES)]
        metrics["cli.interpreter_s"] = statistics.median(samples)

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        jobs = workloads.build(args.workload, args.seed, tmp)
        # the reference runs only next to untraced passes of an untraced run
        reference = None if args.trace else workloads.REFERENCES.get(args.workload, numpy_import)
        if args.workload == "cli":
            def one_pass(traced):
                return cli_pass(jobs, env, traced, tmp, None if traced else reference)
        else:
            def one_pass(traced):
                return lib_pass(jobs, traced, None if traced else reference)

        deadline = time.monotonic() + args.seconds
        warm = one_pass(False)
        baseline = None
        if args.workload == "cli":
            baseline = {job.name: value[1] for job, value, _ in warm["outcomes"] if value[0] == 0}
            report["cli_outputs"] = {name: {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
                                     for name, out in baseline.items()}
        kinds = (False, True) if args.trace else (False,)
        passes = {kind: [] for kind in kinds}
        while len(passes[kinds[-1]]) < MIN_PASSES or time.monotonic() < deadline:
            for kind in kinds:
                passes[kind].append(one_pass(kind))
        final_refs = ref_block(reference)

    every = [warm] + [p for kind in kinds for p in passes[kind]]
    failed_msgs = [msg for p in every for msg in failures(p["outcomes"], baseline)]
    attempted = sum(len(p["outcomes"]) for p in every)
    inconsistent = []
    plain = passes[False]
    report["passes"] = len(plain)
    report["run_s_samples"] = [p["wall"] for p in plain]
    report["run_s"] = statistics.median(report["run_s_samples"])
    report["cpu_s"] = statistics.median(p["cpu"] for p in plain)

    if not args.trace:
        # each unit against the mean of the reference timings just before and
        # after it; a pass's relative time is the sum over its units
        blocks = [refs for p in plain for refs, _, _ in p["units"]] + [final_refs]
        norms = [statistics.mean(before + after) for before, after in zip(blocks, blocks[1:])]
        report["ref_s"] = statistics.median(norms)
        run_rel, cpu_rel, i = [], [], 0
        for p in plain:
            here = list(zip(p["units"], norms[i:i + len(p["units"])]))
            run_rel.append(sum(wall / ref for (_, wall, _), ref in here))
            cpu_rel.append(sum(cpu / ref for (_, _, cpu), ref in here))
            i += len(here)
        report["run_rel_samples"] = run_rel
        metrics["run_rel"] = statistics.median(run_rel)
        metrics["cpu_rel"] = statistics.median(cpu_rel)
        if args.workload == "cli":
            metrics["peak_rss_mb"] = max(p["rss_mb"] for p in every)
        else:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = 1 - len(failed_msgs) / attempted
        units = END_TO_END
    else:
        traced = passes[True]
        report["traced_passes"] = len(traced)
        report["traced_run_s_samples"] = [p["wall"] for p in traced]
        for p in traced:
            gap = p["wall"] - p["top_level_s"]
            if abs(gap) > TOP_LEVEL_SHARE * p["wall"] + TOP_LEVEL_SLACK_S:
                inconsistent.append(f"top-level spans cover {p['top_level_s']:.4f} s of a {p['wall']:.4f} s pass")
        for name in COUNTS:
            seen = {p["layers"].get(name, 0) for p in traced}
            if len(seen) > 1:
                inconsistent.append(f"count {name} differs across traced passes: {sorted(seen)}")
        for name in PER_LAYER:
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if values:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in plain))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}

    report["failures"] = failed_msgs[:20]
    report["inconsistencies"] = inconsistent
    result = {
        "correct": not failed_msgs and not inconsistent,
        "attempted": attempted,
        "failed": len(failed_msgs),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    return result, report


def run_all(args) -> int:
    """Every workload in turn, each in its own process; a table, then one
    JSON line whose metric names carry the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<8} {name:<44} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "ghzgraphs" / "__init__.py").is_file():
        print(f"error: {src / 'ghzgraphs'} not found; run from the root of a ghzgraphs checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    WORK.mkdir(exist_ok=True)
    result, report = run_workload(args, env)
    for msg in report["failures"] + report["inconsistencies"]:
        print(f"{args.workload}: {msg}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
