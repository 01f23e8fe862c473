"""sweepdepth benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload kitti_fine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # each workload in its own process

Each unit of work starts only when the previous one has finished. The
library is imported from ``src/`` of the checkout this file sits in and is
driven through ``sweepdepth.cli.main`` in-process. Set-up (a fresh
interpreter importing the CLI, rendering and writing the dataset, one
warm-up unit) is repeated ``SETUP_REPEATS`` times and its median reported;
then units run until their summed wall time reaches ``--seconds``. Every
unit's outputs are checked; a failed check fails that unit, not the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates runs
of four untraced and four traced units, reports per-layer metrics from the
traced ones (see ``tracing.py``), the difference of the two medians as the
tracing overhead, and a single-threaded replay of the last sweep. Spans are
written to ``.perfbench/results/`` when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it are the environment and a readable table.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TRACE_RUN = 4
WORKLOAD_NAMES = ("kitti_fine", "kitti_train", "desk_cli")

END_TO_END_UNITS = {
    "unit_ms_p50": "ms",
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "abs_rel": "ratio",
    "delta1": "ratio",
    "mask_iou": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("gathered_mb", "volume_mb")):
        return "MB_computed"  # from array sizes, not measured
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("fraction", "share", "coverage", "speedup")):
        return "ratio"
    return "count"


class LibraryMissing(Exception):
    pass


def load_library():
    """Import sweepdepth from this checkout's src/, never from anywhere else."""
    init = SRC / "sweepdepth" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no library source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import sweepdepth

    if Path(sweepdepth.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"imported sweepdepth from {sweepdepth.__file__}, not {init}")
    return sweepdepth


def run_unit(wl, i: int, recs: list[dict], tracer=None) -> dict:
    rec = {"index": i, "ok": True, "error": None, "traced": tracer is not None}
    if tracer is not None:
        tracer.unit = i
        tracer.install()
    start = perf_counter()
    try:
        rec.update(wl.unit(i))
    except Exception:  # a unit that raises is a failed unit; the run goes on
        rec["ok"], rec["error"] = False, traceback.format_exc(limit=3)
    finally:
        rec["seconds"] = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if rec["ok"]:
        try:
            wl.check(rec)
        except Exception:  # checks never abort the run either
            rec["ok"], rec["error"] = False, traceback.format_exc(limit=3)
    recs.append(rec)
    return rec


def serial_replay(tracer, budget_s: float = 3.0, max_pairs: int = 5) -> dict[str, float]:
    """Re-run the last traced sweep with SWEEPDEPTH_THREADS=1 and as configured, in pairs."""
    if tracer.last_sweep is None:
        return {"costvolume.build_cost_volume.serial_ms": 0.0,
                "costvolume.build_cost_volume.thread_speedup": 0.0}
    args, kwargs = tracer.last_sweep
    build = tracer.original("costvolume.build_cost_volume")
    configured = os.environ.get("SWEEPDEPTH_THREADS")
    serial, threaded = [], []
    start = perf_counter()
    try:
        while len(serial) < max_pairs and (not serial or perf_counter() - start < budget_s):
            os.environ["SWEEPDEPTH_THREADS"] = "1"
            t = perf_counter()
            build(*args, **kwargs)
            serial.append(perf_counter() - t)
            _restore_env("SWEEPDEPTH_THREADS", configured)
            t = perf_counter()
            build(*args, **kwargs)
            threaded.append(perf_counter() - t)
    finally:
        _restore_env("SWEEPDEPTH_THREADS", configured)
    return {
        "costvolume.build_cost_volume.serial_ms": 1000 * statistics.median(serial),
        "costvolume.build_cost_volume.thread_speedup":
            statistics.median(serial) / statistics.median(threaded),
    }


def _restore_env(key: str, value: str | None) -> None:
    if value is None:
        os.environ.pop(key, None)
    else:
        os.environ[key] = value


def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to start, import the CLI module and exit."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sweepdepth.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return perf_counter() - start


def measure(wl, seconds: float, trace: bool):
    """Set up, warm up, run the closed loop; return the unit records, metrics and tracer."""
    from tracing import Tracer

    # Each set-up: a fresh interpreter's import, rendering and writing the
    # dataset, and one warm-up unit on it. The loop runs on the last one.
    recs: list[dict] = []
    setups = []
    for k in range(SETUP_REPEATS):
        import_s = fresh_import_seconds()
        start = perf_counter()
        wl.prepare(wl.workdir / f"setup{k}")
        prepare_s = perf_counter() - start
        wl.load_references()
        warm = run_unit(wl, 0, recs)
        warm["warmup"] = True
        setups.append(import_s + prepare_s + warm["seconds"])
    setup_s = statistics.median(setups)

    tracer = Tracer() if trace else None
    busy, i = 0.0, 1
    while busy < seconds or i <= len(wl.keys):  # every target or preset at least once
        # Trace units in runs of four, so that the traced and the untraced
        # halves each see whole cycles of kitti_train's four-sample schedule.
        traced = trace and (i // TRACE_RUN) % 2 == 1
        rec = run_unit(wl, i, recs, tracer if traced else None)
        busy += rec["seconds"]
        i += 1
    quality = wl.finish(recs)

    timed = [r for r in recs if not r.get("warmup")]
    ok = [r for r in timed if r["ok"]]
    attempted = len(recs)
    failed = sum(not r["ok"] for r in recs)
    if not trace:
        metrics = {
            "unit_ms_p50": 1000 * statistics.median(r["seconds"] for r in ok) if ok else 0.0,
            "units_per_s": len(ok) / busy,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (attempted - failed) / attempted,
            **quality,
        }
        return recs, metrics, None

    traced_units = [r["seconds"] for r in timed if r["traced"]]
    metrics = tracer.report(len(traced_units), sum(traced_units))
    traced = [r["seconds"] for r in ok if r["traced"]]
    untraced = [r["seconds"] for r in ok if not r["traced"]]
    metrics.update(serial_replay(tracer))
    metrics["trace.overhead_ms"] = (
        1000 * (statistics.median(traced) - statistics.median(untraced))
        if traced and untraced else 0.0)
    return recs, metrics, tracer


def declared_metrics(trace: bool) -> dict[str, str] | None:
    """name -> unit from BENCHMARK.json, if the checkout has one."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    try:
        load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import envinfo
    import workloads

    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.record_expected:
        if args.seed != workloads.DEFAULT_SEED:
            print(f"error: record with --seed {workloads.DEFAULT_SEED}", file=sys.stderr)
            return 1
        wl.recording = {}
    try:
        recs, metrics, tracer = measure(wl, args.seconds, bool(args.trace))
        env = envinfo.environment(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: (END_TO_END_UNITS[name] if not args.trace else layer_unit(name))
             for name in metrics}
    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != units:
        missing = sorted(set(declared) - set(units))
        extra = sorted(set(units) - set(declared))
        wrong = sorted(k for k in set(units) & set(declared) if units[k] != declared[k])
        print(f"error: metrics disagree with BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}, unit differs {wrong}", file=sys.stderr)
        return 1

    if wl.recording is not None:
        path = BENCH_DIR / "expected.json"
        expected = json.loads(path.read_text())
        expected[args.workload]["recorded"] = wl.recording
        path.write_text(json.dumps(expected, indent=2) + "\n")
    failed = [r for r in recs if not r["ok"]]
    for r in failed:
        print(f"unit {r['index']} failed: {r['error']}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, **result,
              "unit_ms": [round(1000 * r["seconds"], 4) for r in recs],
              "error_rate": len(failed) / len(recs)}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps({
            "columns": ["id", "name", "start_ms", "end_ms", "parent", "thread", "unit"],
            "wrapped": sorted(tracer.wrapped),
            "spans": tracer.span_records(),
        }) + "\n")

    print(json.dumps({"env": env}))
    for k, v in result["metrics"].items():
        print(f"{args.workload:<12} {k:<48} {v['value']:>16.6f} {v['unit']}")
    print(f"{args.workload:<12} {'error_rate':<48} {record['error_rate']:>16.6f} ratio")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; prints their tables."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[1:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="summed wall time of the timed units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's default-seed outputs in expected.json")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
