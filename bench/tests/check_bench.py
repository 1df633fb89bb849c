"""Checks of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/tests/check_bench.py

They run every workload at a tiny size, so they take about a minute, most
of it CLI processes starting up.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

wmscatter, workloads = run.load_package()
analysis = workloads.analysis
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _run(name, trace):
    args = types.SimpleNamespace(seed=3, seconds=0.01, trace=trace, workload=name)
    return run.run_workload(name, args, wmscatter, workloads, tiny=True)


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_declared_metric(name, trace):
    result, _ = _run(name, trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for key, m in result["metrics"].items():
        assert NAME.fullmatch(key)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    json.dumps(result, allow_nan=False)


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_cli_checks_flag_the_three_known_defects(work_dir):
    """Fake subcommand outputs, each showing one defect of the CLI as it was
    when the benchmark was defined, and the same output without it."""
    wl = workloads.CliCold(5, str(work_dir), tiny=True)
    chain = work_dir / "c"
    red = chain / "red"
    red.mkdir(parents=True)
    for d in range(wl.n_det):
        (red / f"ke_det{d:03d}.csv").write_text("")
    pts = [(d, analysis.KEPoint(10.0 + d, 5.0, 0.1)) for d in range(wl.n_det)]
    ok = (0, "", "", 0.1, 1)

    def check(sub, res=ok):
        wl.check(sub, str(chain), res)

    analysis.write_centroids_csv(pts, str(red / "centroids.csv"), metadata={"seed": 5})
    check("reduce")
    # reduce recorded the last detector's Poisson seed instead of the run seed
    analysis.write_centroids_csv(pts, str(red / "centroids.csv"), metadata={"seed": 10000035})
    with pytest.raises(workloads.CheckFailed, match="records seed 10000035, run seed is 5"):
        check("reduce")

    audit = {"seed": 5, "masking_flag": True, "refit_mass": 2.0}
    (chain / "audit.json").write_text(json.dumps(audit))
    check("audit")
    # audit died writing a numpy.bool_ masking flag to JSON
    tb = ("Traceback (most recent call last):\n  File \"cli.py\", line 1\n"
          "TypeError: Object of type bool_ is not JSON serializable\n")
    with pytest.raises(workloads.CheckFailed, match="exit 1 with a traceback: .*bool_"):
        check("audit", (1, "", tb, 0.1, 1))
    (chain / "audit.json").write_text(json.dumps({**audit, "masking_flag": 1}))
    with pytest.raises(workloads.CheckFailed, match="masking_flag is not a boolean"):
        check("audit")

    (chain / "ribbon.svg").write_text('<?xml version="1.0"?>\n<svg></svg>\n')
    check("plot")
    # plot --input <dir> globbed spectrum_det*.csv and found no reduced files
    rec = workloads.Recorder(NullTracer())
    rec.op("plot", lambda: (2, "", "error: no spectrum files in red", 0.1, 1),
           lambda res: check("plot", res))
    assert rec.failed == 1
    assert rec.failures[0]["reason"].startswith("CheckFailed: exit 2")


def test_check_rejects_a_wrong_product(work_dir):
    wl = workloads.CliCold(5, str(work_dir), tiny=True)
    chain = work_dir / "c"
    chain.mkdir()
    (chain / "weakvalue.json").write_text(json.dumps(
        {"seed": 5, "hbarK": 4.0, "width_ratio": 1e-3, "P_w_re": 3.9, "case": "A"}))
    with pytest.raises(workloads.CheckFailed, match="oracle"):
        wl.check("weakvalue", str(chain), (0, "", "", 0.1, 1))
    with pytest.raises(workloads.CheckFailed, match="exit 3"):
        wl.check("weakvalue", str(chain), (3, "", "error: x", 0.1, 1))


def _mc_fits(work_dir, tracer, units, seed=3):
    wl = workloads.McH2(seed, str(work_dir), tiny=True)
    rec = workloads.Recorder(tracer)
    run.measure(wl, rec, units=units)
    return wl, rec


def test_tracing_adds_spans_but_not_changes(work_dir):
    plain, plain_rec = _mc_fits(work_dir, NullTracer(), 3)
    tracer = Tracer()
    original = workloads.analysis.centroid_ke
    with tracer.patched(wmscatter):
        assert workloads.analysis.centroid_ke is not original
        traced, traced_rec = _mc_fits(work_dir, tracer, 3)
    assert workloads.analysis.centroid_ke is original
    assert [f.m_eff for f in traced.fits] == [f.m_eff for f in plain.fits]
    assert traced.accuracy() == plain.accuracy()
    assert traced_rec.attempted == plain_rec.attempted
    names = {s.name for s in tracer.spans}
    assert {"analysis.centroid_ke", "spectra.poisson_sample", "op.detector_replica"} <= names
    ops = {s.op_id for s in tracer.spans if s.name == "analysis.centroid_ke"}
    assert None not in ops and len(ops) == 15


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner.parent == 0 and outer.parent is None
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert own[1] == inner.end - inner.start


def test_accuracy_depends_on_seed_not_run_length(work_dir):
    short, _ = _mc_fits(work_dir, NullTracer(), 3)
    longer, _ = _mc_fits(work_dir, NullTracer(), 5)
    other, _ = _mc_fits(work_dir, NullTracer(), 3, seed=4)
    assert short.accuracy() == longer.accuracy()
    assert other.accuracy() != short.accuracy()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_h2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_by_nearby_kernel_times():
    from probe import NOMINAL_S, SpeedProbe
    probe = SpeedProbe()
    probe.ends = [10.0, 11.0, 20.0]
    probe.times = [NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S]
    assert probe.factor() == pytest.approx(2.0)
    assert probe.local_factors([10.5, 15.5, 30.0]).tolist() == pytest.approx([2.0, 2.0, 2.0])
    assert probe.local_factors([9.2]).tolist() == pytest.approx([1.0])


def test_a_failure_in_the_first_units_makes_the_run_incorrect(work_dir, monkeypatch):
    real = workloads.weakval.deficit_sweep

    def off_by_one_percent(*args):
        return [{**row, "deficit": row["deficit"] * 1.01} for row in real(*args)]
    monkeypatch.setattr(workloads.weakval, "deficit_sweep", off_by_one_percent)
    result, report = _run("wv_sweep", 0)
    assert result["failed"] >= 1 and result["correct"] is False
    assert report["accuracy"] == {"oracle_err": None}
    assert any("deficit sweep off by 1.000e-02" in r for r in report["failure_reasons"])
