"""wmscatter benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is mc_h2, bank_io, cli_cold, wv_sweep, or ``all`` (every workload in
turn).  Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  Each workload is measured in a
child process started through launch.py, so its peak RSS is its own and not
that of whatever started the benchmark.

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is the separate traced run: it repeats the workload untraced and then traced
over the same units, reports per-layer metrics from the traced pass, and the
tracing overhead as the difference between the two.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/METRICS.md for what each metric predicts.
"""

import os

# BLAS / OpenMP pools are pinned to one thread before numpy loads; children
# inherit the setting through the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0   # one workload's child; a run must end within 180 s
STARTUP_REPEATS = 3
INPROC_CHAINS = 2

LAYERS = (
    "analysis.centroid_ke", "analysis.ingest_spectrum", "analysis.reduce_spectrum",
    "analysis.fit_roto_recoil", "analysis.calibration_audit",
    "spectra.write_spectrum_csv", "spectra.simulate_spectrum", "spectra.poisson_sample",
    "weakval.scenario_record_A", "weakval.scenario_record_B", "weakval.scenario_record_C",
    "weakval.deficit_sweep", "weakval.weak_value_mixed", "svgplot.ribbon_svg",
)
CLI_SUBCOMMANDS = ("weakvalue", "simulate", "reduce", "fit", "audit", "plot")
# Per-layer figures the workloads measure themselves (Workload.own_metrics).
OWN_METRICS = (("spectra.write_bytes", "bytes"), ("svgplot.svg_bytes", "bytes"),
               ("qstate.grid_points_A", "count"),
               *((f"cli.{sub}_s", "s") for sub in CLI_SUBCOMMANDS))

STARTUP_SPLIT_CODE = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
import wmscatter.cli
t3 = time.perf_counter()
print(t2 - t1, t3 - t0)
"""


def load_package():
    """Import wmscatter from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "wmscatter" / "__init__.py").is_file():
        sys.exit(f"bench: no wmscatter sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wmscatter
    if Path(wmscatter.__file__).resolve().parent != SRC / "wmscatter":
        sys.exit(f"bench: imported wmscatter from {wmscatter.__file__}, not {SRC}")
    import workloads
    return wmscatter, workloads


def scratch():
    """This process's scratch directory; concurrent runs do not share it."""
    return WORK / str(os.getpid())


def percentile(values, pct):
    return float(np.percentile(values, pct)) if len(values) else 0.0


def measure(wl, rec, seconds=None, units=None):
    """Run units of ``wl``; returns (wall seconds less probe time, units run).

    With ``units`` set, exactly that many.  Otherwise at least
    ``wl.min_units``, then on while the run would end nearer ``seconds`` by
    taking one more unit than by stopping.
    """
    def elapsed():
        probe_s = rec.probe.total if rec.probe is not None else 0.0
        return time.perf_counter() - t0 - probe_s

    t0 = time.perf_counter()
    n = 0
    while True:
        if units is not None:
            if n >= units:
                break
        elif n >= wl.min_units and elapsed() * (1.0 + 0.5 / n) > seconds:
            break
        wl.run(n, rec)
        n += 1
    return elapsed(), n


def primary_samples(wl, rec):
    """(midpoint, seconds) of the successful operations that count for
    throughput and latency."""
    kinds = [wl.primary] if wl.primary is not None else list(rec.samples)
    return [smp for kind in kinds for smp in rec.samples[kind]]


def group_means(lat, size):
    """Means of consecutive runs of ``size`` latencies; a last, short run is dropped."""
    n = len(lat) // size * size
    return lat[:n].reshape(-1, size).mean(axis=1) if size > 1 else lat


def setup_times(workloads, name, seed, probe):
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs, one per repeat, with a speed probe before each."""
    out = []
    for i in range(SETUP_REPEATS):
        d = scratch() / f"setup-{name}-{i}"
        d.mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", name, "--seed", str(seed), "--workdir", str(d)]
        probe.run()
        code, _, err, wall, _ = workloads.run_child(argv, str(d), dict(os.environ))
        if code != 0:
            raise RuntimeError(f"setup of {name} failed (exit {code}): {err.strip()[-300:]}")
        out.append(wall)
    probe.run()
    return out


def startup_split(workloads):
    """Fresh-interpreter start-up split: bare interpreter, and the imports
    of numpy, scipy.optimize and wmscatter.cli measured inside the child."""
    env = workloads.child_env()
    cwd = str(scratch())
    interp, scipy_s, import_s = [], [], []
    for _ in range(STARTUP_REPEATS):
        _, _, _, wall, _ = workloads.run_child([sys.executable, "-c", "pass"], cwd, env)
        interp.append(wall)
        code, out, err, _, _ = workloads.run_child(
            [sys.executable, "-c", STARTUP_SPLIT_CODE], cwd, env)
        if code != 0:
            raise RuntimeError(f"start-up split failed: {err.strip()[-300:]}")
        s, total = (float(v) for v in out.split())
        scipy_s.append(s)
        import_s.append(total)
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(import_s),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def end_to_end_metrics(wl, rec, wall, setups, setup_probe, rss_kib):
    """End-to-end metrics, every timing normalised by the speed probe; the
    raw wall-clock figures go to the report."""
    smp = primary_samples(wl, rec)
    lat = np.array([dt for _, dt in smp])
    norm = lat / rec.probe.local_factors([mid for mid, _ in smp]) if smp else lat
    ops = len(lat)
    lat, norm = group_means(lat, wl.latency_group), group_means(norm, wl.latency_group)
    f_run, f_setup = rec.probe.factor(), setup_probe.factor()
    metrics = {
        "setup_s": (statistics.median(setups) / f_setup, "s"),
        "ops_per_s": (ops / wall * f_run, "1/s"),
        "op_p50_ms": (percentile(norm, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(norm, wl.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / wall,
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": percentile(lat, wl.tail_pct) * 1e3,
        "speed_factor_run": f_run,
        "speed_factor_setup": f_setup,
        "probes": len(rec.probe.times) + len(setup_probe.times),
    }
    tail = percentile(norm, wl.tail_pct)
    op_tail = {"percentile": wl.tail_pct, "n": len(lat), "group": wl.latency_group,
               "n_beyond": int(np.count_nonzero(norm > tail))}
    return metrics, raw, op_tail


def per_layer_metrics(wl, tracer, wall, units, overhead, startup, layer_units):
    """Per-layer figures from the traced pass, in raw wall-clock time.
    Shares are self time per unit over the traced wall time per unit; the
    tracing overhead compares the traced and untraced passes after speed
    normalisation."""
    stats = tracer.layer_stats()
    wall_per_unit = wall / units
    m = {}
    for layer in LAYERS:
        durs, self_s, _ = stats.get(layer, ([], 0.0, 0))
        m[f"{layer}_ms"] = (statistics.median(durs) * 1e3 if durs else 0.0, "ms")
        m[f"{layer}.calls"] = (len(durs), "count")
        m[f"{layer}.share"] = (self_s / layer_units / wall_per_unit if durs else 0.0, "ratio")
    m["analysis.centroid_ke_fail"] = (stats.get("analysis.centroid_ke", ([], 0, 0))[2], "count")
    for name, value in startup.items():
        m[name] = (value, "s")
    own = wl.own_metrics()
    for name, unit in OWN_METRICS:
        m[name] = (own.get(name, 0.0), unit)
    for sub in CLI_SUBCOMMANDS:
        inproc = stats.get(f"cli.{sub}_inproc", ([], 0, 0))[0]
        m[f"cli.{sub}_inproc_ms"] = (statistics.median(inproc) * 1e3 if inproc else 0.0, "ms")
    sub_s = [own[f"cli.{sub}_s"] for sub in CLI_SUBCOMMANDS if f"cli.{sub}_s" in own]
    start_s = startup["cli.interp_s"] + startup["cli.import_s"]
    m["cli.startup_share"] = (start_s / statistics.median(sub_s) if sub_s else 0.0, "ratio")
    m["trace.overhead_ms"] = (overhead[0] * 1e3, "ms")
    m["trace.overhead_share"] = (overhead[1], "ratio")
    return m


def provenance(args, wmscatter, tail_pct):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wmscatter").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "wmscatter": wmscatter.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tail_percentile": tail_pct,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(name, args, wmscatter, workloads, tiny=False):
    """Run one workload; returns (result dict, report dict)."""
    cls = workloads.WORKLOADS[name]
    workdir = scratch() / name
    (workdir / "run").mkdir(parents=True)
    report = {}
    if not args.trace:
        setup_probe = SpeedProbe()
        setups = setup_times(workloads, name, args.seed, setup_probe)
        wl = cls(args.seed, str(workdir / "run"), tiny=tiny)
        rec = workloads.Recorder(NullTracer(), SpeedProbe())
        wall, units = measure(wl, rec, seconds=args.seconds)
        if name == "cli_cold":
            rss = max(wl.child_rss_kib, default=0)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, report["raw"], report["op_tail"] = end_to_end_metrics(
            wl, rec, wall, setups, setup_probe, rss)
    else:
        wl = cls(args.seed, str(workdir / "run"), tiny=tiny)
        ref_rec = workloads.Recorder(NullTracer(), SpeedProbe())
        wall_ref, units = measure(wl, ref_rec, seconds=args.seconds / 2.0)
        (workdir / "traced").mkdir()
        wl = cls(args.seed, str(workdir / "traced"), tiny=tiny)
        tracer = Tracer()
        rec = workloads.Recorder(tracer, SpeedProbe())
        with tracer.patched(wmscatter):
            wall, _ = measure(wl, rec, units=units)
            layer_units = units
            if name == "cli_cold":
                layer_units = wl.run_in_process(tracer, INPROC_CHAINS)
        startup = startup_split(workloads)
        untraced = wall_ref / ref_rec.probe.factor()
        overhead_s = wall / rec.probe.factor() - untraced
        metrics = per_layer_metrics(wl, tracer, wall, units, (overhead_s, overhead_s / untraced),
                                    startup, layer_units)
        report["spans"] = len(tracer.spans)
    acc = wl.accuracy()
    ceilings_ok = all(acc.get(k) is not None and acc[k] <= limit
                      for k, limit in workloads.ACCURACY_CEILING.items() if k in acc)
    report.update({
        "units": units,
        "wall_s": wall,
        "fail_ratio": rec.failed / rec.attempted,
        "accuracy": acc,
        "failures": rec.failures[:20],
        "failure_reasons": sorted({f"{f['kind']}: {f['reason']}" for f in rec.failures}),
    })
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ceilings_ok,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def print_result(name, result, report, prov):
    for key, m in result["metrics"].items():
        print(f"{name:9s} {key:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:9s} {'fail_ratio':40s} {report['fail_ratio']:>16.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    for key, value in report["accuracy"].items():
        print(f"{name:9s} {key:40s} {value if value is not None else 'n/a':>16} 1")
    print("REPORT " + json.dumps({"provenance": prov, **report}, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wmscatter, workloads = load_package()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_only:
        workloads.WORKLOADS[names[0]](args.seed, args.workdir)
        return 0
    results = {}
    try:
        if args.in_child:
            result, report = run_workload(names[0], args, wmscatter, workloads)
            print_result(names[0], result, report, provenance(
                args, wmscatter, workloads.WORKLOADS[names[0]].tail_pct))
            print(json.dumps(result), flush=True)
            return 0
        scratch().mkdir(parents=True)
        for name in names:
            argv = [sys.executable, str(Path(__file__).resolve()), "--in-child",
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code, out, err, _, _ = workloads.run_child(argv, str(scratch()), dict(os.environ),
                                                       timeout=RUN_TIMEOUT_S)
            sys.stderr.write(err)
            if code != 0:
                sys.exit(f"bench: workload {name} failed (exit {code})")
            *lines, last = out.splitlines()
            print("\n".join(lines), flush=True)
            results[name] = json.loads(last)
    finally:
        shutil.rmtree(scratch(), ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
