"""The four benchmark workloads and their output checks.

Every workload models the paper's H2 sample (M = 2.01 amu, E_rot = 14.7 meV,
injected M_eff = 0.64, Gaussian n(P) with sigma_p = 0.3 1/A) on a
direct-geometry instrument (E0 = 90 meV, L0 = 11.6 m, L1 = 4.0 m), except
wv_sweep, which exercises the weak-value layers alone.  A workload builds all
its inputs from the seed in its constructor (the set-up that setup_s times),
then runs numbered units (a replica, a pass or a CLI chain) until the runner
stops it.  Accuracy figures come from the first ``min_units`` units only, so
they repeat exactly for a given seed whatever the run length; a failed
operation in those units leaves them unknown, which marks the run incorrect,
except in cli_cold (see CliCold.accuracy).  Each workload
fixes the percentile its tail latency is read at (bench/METRICS.md says why).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import wmscatter
from wmscatter import analysis, cli, qstate, spectra, svgplot, weakval
from wmscatter.kinematics import DetectorGeometry, NeutronBeam

M_FREE = 2.01
E_ROT = 14.7
M_EFF_TRUE = 0.64
SIGMA_P = 0.3
WIDTH_RATIO = 1.0
LAM = 2.0 * (1.0 - math.sqrt(M_EFF_TRUE / M_FREE))
E0, L0, L1 = 90.0, 11.6, 4.0
COUNTS = 200000
CHILD_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def rel_err(value, truth):
    return abs(value - truth) / abs(truth)


class Recorder:
    """Counts attempted and failed operations and times the successful ones.

    An operation fails if it raises, or if its check raises CheckFailed; the
    reason is kept per operation.  Only the call itself is timed, not the
    check.  With a SpeedProbe, the probe may run before an operation starts.
    """

    def __init__(self, tracer, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.samples = defaultdict(list)   # kind -> [(midpoint, seconds)]
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, kind, call, check=None, duration=None):
        """Run ``call`` as one operation; ``duration(result)``, if given,
        replaces the measured time (a child process times itself)."""
        if self.probe is not None:
            self.probe.maybe_run()
        op_id = self.attempted
        self.attempted += 1
        self.tracer.set_op(op_id)
        try:
            with self.tracer.span("op." + kind):
                t0 = time.perf_counter()
                result = call()
                dt = time.perf_counter() - t0 if duration is None else duration(result)
            if check is not None:
                check(result)
        except Exception as exc:  # a failing operation is recorded; the run goes on
            self.failed += 1
            self.failures.append({"op": op_id, "kind": kind,
                                  "reason": f"{type(exc).__name__}: {exc}"})
            return None
        finally:
            self.tracer.set_op(None)
        self.samples[kind].append((t0 + 0.5 * dt, dt))
        return result


def h2_sample():
    grid = qstate.grid_for_gaussians([0.0], [SIGMA_P])
    return spectra.SampleModel(M_FREE, qstate.gaussian_state(grid, 0.0, SIGMA_P),
                               E_ROT, spectra.DeficitInjection(LAM, WIDTH_RATIO))


def h2_instrument(sample, thetas_deg, n_bins):
    beam = NeutronBeam(E0)
    dets = tuple(DetectorGeometry(L0, L1, math.radians(a)) for a in thetas_deg)
    bins = spectra.recoil_tof_window(beam, dets, sample, SIGMA_P, n_bins=n_bins)
    return spectra.InstrumentConfig(beam, dets, bins)


def unit_seed(seed, unit, det):
    """Poisson seed of one detector in one unit, derived from the run seed."""
    return int(np.random.SeedSequence([seed, unit, det]).generate_state(1)[0])


def check_point(pt):
    require(math.isfinite(pt.k) and pt.k > 0, f"centroid K = {pt.k}")
    require(math.isfinite(pt.e), f"centroid E = {pt.e}")
    require(pt.sigma_e is not None and pt.sigma_e > 0, f"centroid stderr = {pt.sigma_e}")


def check_fit(fit):
    require(math.isfinite(fit.m_eff) and fit.m_eff > 0, f"M_eff = {fit.m_eff}")
    require(math.isfinite(fit.stderr) and fit.stderr > 0, f"stderr = {fit.stderr}")


class Workload:
    """Defaults shared by the workloads."""

    primary = None          # operation kind timed for throughput; None: every kind
    min_units = 1
    latency_group = 1       # latency is read over means of this many consecutive ops
    first_failures = 0      # failed operations within the first min_units units

    def run(self, n, rec):
        """Run unit ``n``, counting its failures if it is one of the first units."""
        failed = rec.failed
        self.unit(n, rec)
        if n < self.min_units:
            self.first_failures += rec.failed - failed

    def own_metrics(self):
        """Per-layer figures this workload measures itself, by metric name."""
        return {}


class McH2(Workload):
    """Monte-Carlo bias study: Poisson replicas of 11 precomputed spectra.

    Latency is the mean detector-replica time within each replica: the 11
    detectors take either 1.2-1.6 ms or 2.2-4.8 ms, and the median of single
    detector-replicas falls in the gap between the groups, where it moved by
    up to 20% between runs.
    """

    name = "mc_h2"
    primary = "detector_replica"
    tail_pct = 95.0

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.min_units = 3 if tiny else 200
        self.sample = h2_sample()
        thetas = (8, 13, 18, 23, 28) if tiny else range(8, 29, 2)
        self.cfg = h2_instrument(self.sample, thetas, 512 if tiny else 2048)
        self.noiseless = [spectra.simulate_spectrum(self.cfg, self.sample, d)
                          for d in range(len(self.cfg.detectors))]
        self.latency_group = len(self.noiseless)
        self.fits = []

    def unit(self, r, rec):
        pts = []
        for d, spec in enumerate(self.noiseless):
            def op(d=d, spec=spec):
                noisy = spectra.poisson_sample(spec, COUNTS, unit_seed(self.seed, r, d))
                red = analysis.reduce_spectrum(noisy, self.cfg, d, poisson_errors=True)
                return analysis.centroid_ke(red)[0]
            pt = rec.op(self.primary, op, check_point)
            if pt is not None:
                pts.append(pt)
        fit = rec.op("fit", lambda: analysis.fit_roto_recoil(pts, m_free=M_FREE),
                     check_fit)
        if r < self.min_units:
            self.fits.append(fit)

    def accuracy(self):
        if len(self.fits) < self.min_units or self.first_failures:
            return {"m_eff_rel_err": None, "bias_over_stderr": None}
        mean = float(np.mean([f.m_eff for f in self.fits]))
        bias = abs(mean - M_EFF_TRUE)
        return {"m_eff_mean": mean,
                "m_eff_rel_err": bias / M_EFF_TRUE,
                "bias_over_stderr": bias / float(np.median([f.stderr for f in self.fits]))}


class BankIO(Workload):
    """Wide bank through the file codec: every detector is simulated, written,
    read back and reduced from its own metadata, then fit, audited and plotted."""

    name = "bank_io"
    primary = "round_trip"
    tail_pct = 90.0

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.dir = os.path.join(workdir, "bank")
        os.makedirs(self.dir, exist_ok=True)
        self.sample = h2_sample()
        thetas = np.linspace(8.0, 28.0, 10 if tiny else 100)
        self.cfg = h2_instrument(self.sample, thetas, 1024 if tiny else 8192)
        self.m_eff = []
        self.write_bytes = []
        self.svg_bytes = []

    def _round_trip(self, p, d):
        spec = spectra.simulate_spectrum(self.cfg, self.sample, d)
        noisy = spectra.poisson_sample(spec, COUNTS, unit_seed(self.seed, p, d))
        path = os.path.join(self.dir, f"spectrum_det{d:03d}.csv")
        spectra.write_spectrum_csv(noisy, path)
        back = analysis.ingest_spectrum(path)
        red = analysis.reduce_spectrum(back, poisson_errors=True)
        pt, _ = analysis.centroid_ke(red)
        return noisy, back, red, pt, path

    def _check_round_trip(self, d, res):
        noisy, back, _, pt, path = res
        require(back.detector_index == d, f"ingested detector {back.detector_index} != {d}")
        require(np.array_equal(back.counts, noisy.counts), "counts changed in the file round trip")
        require(np.allclose(back.bin_edges, noisy.bin_edges, rtol=1e-12, atol=0.0),
                "bin edges changed in the file round trip")
        check_point(pt)
        self.write_bytes.append(os.path.getsize(path))

    def unit(self, p, rec):
        done = []
        for d in range(len(self.cfg.detectors)):
            res = rec.op(self.primary, lambda d=d: self._round_trip(p, d),
                         lambda res, d=d: self._check_round_trip(d, res))
            if res is not None:
                done.append((d, res[2], res[3]))
        pts = [pt for _, _, pt in done]
        fit = rec.op("fit", lambda: analysis.fit_roto_recoil(pts, m_free=M_FREE), check_fit)
        if p < self.min_units:
            self.m_eff.append(None if fit is None else fit.m_eff)
        peaks = [(d, analysis.PeakFit(pt.e, 1.0, 1.0, 0.0, centroid_err=pt.sigma_e))
                 for d, _, pt in done]

        def check_audit(report):
            require(math.isfinite(report.refit_mass) and report.refit_mass > 0,
                    f"refit mass {report.refit_mass}")
            require(math.isfinite(report.residual_norm), "non-finite residual norm")
        rec.op("audit", lambda: analysis.calibration_audit(
            self.cfg, peaks, M_FREE, ("L1", "theta")), check_audit)
        ribbon = [(k, e, i) for _, red, _ in done[::9]
                  for k, e, i in zip(red.k, red.e, red.intensity)]

        def check_svg(svg):
            require(svg.startswith("<?xml") and svg.rstrip().endswith("</svg>"),
                    "malformed SVG document")
            self.svg_bytes.append(len(svg.encode()))
        rec.op("svg", lambda: svgplot.ribbon_svg(
            ribbon, m_conventional=M_FREE,
            m_fitted=fit.m_eff if fit else None,
            e_rot_fitted=fit.e_rot_fit if fit else 0.0,
            centroids=[(pt.k, pt.e) for pt in pts]), check_svg)

    def own_metrics(self):
        return {"spectra.write_bytes": float(np.median(self.write_bytes or [0])),
                "svgplot.svg_bytes": float(np.median(self.svg_bytes or [0]))}

    def accuracy(self):
        if len(self.m_eff) < self.min_units or self.first_failures:
            return {"m_eff_rel_err": None}
        return {"m_eff": self.m_eff[0], "m_eff_rel_err": rel_err(self.m_eff[0], M_EFF_TRUE)}


LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


def run_child(argv, cwd, env, timeout=CHILD_TIMEOUT_S):
    """Run a command to completion through launch.py; returns (exit code,
    stdout, stderr, wall seconds, peak RSS in KiB)."""
    paths = {k: os.path.join(cwd, f".child.{k}") for k in ("out", "err", "json")}
    with open(paths["out"], "wb") as out, open(paths["err"], "wb") as err:
        subprocess.run([sys.executable, LAUNCHER, paths["json"], str(timeout), *argv],
                       cwd=cwd, env=env, stdout=out, stderr=err,
                       timeout=timeout + 30.0, check=True)
    with open(paths["json"]) as fh:
        rep = json.load(fh)
    with open(paths["out"]) as fh:
        stdout = fh.read()
    with open(paths["err"]) as fh:
        stderr = fh.read()
    return rep["code"], stdout, stderr, rep["wall_s"], rep["maxrss_kib"]


def child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wmscatter.__file__)))
    env["PYTHONPATH"] = src
    return env


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class CliCold(Workload):
    """One fresh ``python -m wmscatter.cli`` process per subcommand, chained
    weakvalue -> simulate -> reduce -> fit -> audit -> plot."""

    name = "cli_cold"
    # About 13 successful processes a run: no percentile above the median
    # keeps 10 samples beyond it, so the tail is the median.
    tail_pct = 50.0

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        sample = h2_sample()
        cfg = h2_instrument(sample, (8, 13, 18, 23, 28) if tiny else range(8, 29, 2),
                            512 if tiny else 2048)
        self.n_det = len(cfg.detectors)
        self.instrument = os.path.join(workdir, "instrument.json")
        spectra.save_instrument_json(cfg, self.instrument)
        self.sample = os.path.join(workdir, "sample.json")
        with open(self.sample, "w") as fh:
            json.dump({"schema": 1, "M": M_FREE, "E_rot": E_ROT,
                       "momentum_dist": {"type": "gaussian", "sigma": SIGMA_P},
                       "deficit": {"lambda": LAM, "width_ratio": WIDTH_RATIO}}, fh)
        self.env = child_env()
        self.child_rss_kib = []
        self.child_walls = defaultdict(list)
        self.m_eff = []

    def argvs(self, chain):
        """argv (without the interpreter) of each subcommand of one chain."""
        s = str(self.seed)
        sim, red = os.path.join(chain, "sim"), os.path.join(chain, "red")
        cen = os.path.join(red, "centroids.csv")
        return {
            "weakvalue": ["weakvalue", "--case", "A", "--seed", s,
                          "--out", os.path.join(chain, "weakvalue.json")],
            "simulate": ["simulate", "--instrument", self.instrument, "--sample", self.sample,
                         "--counts", str(COUNTS), "--seed", s, "--out", sim],
            "reduce": ["reduce", "--input", sim, "--seed", s, "--out", red],
            "fit": ["fit", "--centroids", cen, "--m-free", str(M_FREE), "--seed", s,
                    "--out", os.path.join(chain, "fit.json")],
            "audit": ["audit", "--instrument", self.instrument, "--centroids", cen,
                      "--free", "L1,theta", "--assumed-m", str(M_FREE), "--seed", s,
                      "--out", os.path.join(chain, "audit.json")],
            "plot": ["plot", "--input", red, "--centroids", cen,
                     "--fit", os.path.join(chain, "fit.json"), "--m-free", str(M_FREE),
                     "--seed", s, "--out", os.path.join(chain, "ribbon.svg")],
        }

    def check(self, sub, chain, res):
        """Raise CheckFailed unless subcommand ``sub`` of ``chain`` did its job."""
        code, _, stderr, wall, rss = res
        self.child_rss_kib.append(rss)
        self.child_walls[sub].append(wall)
        if "Traceback (most recent call last)" in stderr:
            last = stderr.strip().splitlines()[-1]
            raise CheckFailed(f"exit {code} with a traceback: {last}")
        require(code == 0, f"exit {code}: {stderr.strip()[-200:]}")
        seed = self.seed
        if sub == "weakvalue":
            doc = _read_json(os.path.join(chain, "weakvalue.json"))
            require(doc["seed"] == seed, f"echoed seed {doc['seed']} != {seed}")
            hk, ratio = doc["hbarK"], doc["width_ratio"]
            oracle = hk / (1.0 + ratio**2)
            require(rel_err(doc["P_w_re"], oracle) < 1e-9,
                    f"Re(P_w) {doc['P_w_re']} != oracle {oracle}")
        elif sub == "simulate":
            man = _read_json(os.path.join(chain, "sim", "manifest.json"))
            require(man["seed"] == seed, f"manifest seed {man['seed']} != {seed}")
            files = [f for f in os.listdir(os.path.join(chain, "sim"))
                     if f.startswith("spectrum_det")]
            require(len(files) == self.n_det, f"{len(files)} spectra for {self.n_det} detectors")
        elif sub == "reduce":
            red = os.path.join(chain, "red")
            kes = [f for f in os.listdir(red) if f.startswith("ke_det")]
            require(len(kes) == self.n_det, f"{len(kes)} K-E files for {self.n_det} detectors")
            meta, recs = analysis.read_centroids_csv(os.path.join(red, "centroids.csv"))
            require(len(recs) == self.n_det, f"{len(recs)} centroids for {self.n_det} detectors")
            echoed = meta.get("seed")
            require(echoed == seed, f"centroids.csv records seed {echoed}, run seed is {seed}")
        elif sub == "fit":
            doc = _read_json(os.path.join(chain, "fit.json"))
            m = doc["M_eff"]
            require(math.isfinite(m) and m > 0, f"M_eff = {m}")
            require(doc["n_points"] == self.n_det, f"fit used {doc['n_points']} points")
            echoed = analysis.read_centroids_csv(
                os.path.join(chain, "red", "centroids.csv"))[0].get("seed")
            require(doc["seed"] == echoed, f"fit seed {doc['seed']} != input seed {echoed}")
            if self.m_eff:
                require(m == self.m_eff[0], f"M_eff {m!r} differs between identical chains")
            else:
                self.m_eff.append(m)
        elif sub == "audit":
            doc = _read_json(os.path.join(chain, "audit.json"))
            require(doc["seed"] == seed, f"audit seed {doc['seed']} != {seed}")
            require(isinstance(doc["masking_flag"], bool), "masking_flag is not a boolean")
            require(math.isfinite(doc["refit_mass"]), "non-finite refit mass")
        elif sub == "plot":
            with open(os.path.join(chain, "ribbon.svg")) as fh:
                svg = fh.read()
            require(svg.startswith("<?xml") and svg.rstrip().endswith("</svg>"),
                    "malformed SVG document")

    def unit(self, c, rec):
        chain = os.path.join(self.workdir, f"chain{c:03d}")
        os.makedirs(chain, exist_ok=True)
        for sub, argv in self.argvs(chain).items():
            full = [sys.executable, "-m", "wmscatter.cli", *argv]
            rec.op(sub, lambda full=full: run_child(full, chain, self.env),
                   lambda res, sub=sub: self.check(sub, chain, res),
                   duration=lambda res: res[3])

    def run_in_process(self, tracer, n_chains):
        """Run ``cli.main`` in this process under ``tracer``; returns the
        number of chains run.  Outcomes are not counted as operations: this
        only splits each subcommand's own work from interpreter start-up."""
        for c in range(n_chains):
            chain = os.path.join(self.workdir, f"inproc{c:03d}")
            os.makedirs(chain, exist_ok=True)
            for sub, argv in self.argvs(chain).items():
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        with tracer.span(f"cli.{sub}_inproc"):
                            cli.main(argv)
                    except Exception:  # a defective subcommand still yields its timing
                        pass
        return n_chains

    def own_metrics(self):
        """Median wall time of each subcommand's process, failed ones too."""
        return {f"cli.{sub}_s": float(np.median(walls))
                for sub, walls in self.child_walls.items()}

    def accuracy(self):
        """From the first chain's fit.  Failures do not make it unknown: three
        subcommands fail on known defects, and fail_ratio counts them."""
        if not self.m_eff:
            return {"m_eff_rel_err": None}
        return {"m_eff": self.m_eff[0], "m_eff_rel_err": rel_err(self.m_eff[0], M_EFF_TRUE)}


def _gauss_overlap_sq(s1, s2, hk):
    """|<N(hk, s2)|N(0, s1)>|^2 for normalized Gaussian amplitudes whose
    densities have standard deviations s1, s2."""
    v = s1**2 + s2**2
    return (2.0 * s1 * s2 / v) * math.exp(-hk**2 / (2.0 * v))


class WvSweep(Workload):
    """Weak values only: scenario records for cases A, B, C, a deficit sweep
    and a mixed pre-selection, each checked against its closed form."""

    name = "wv_sweep"
    tail_pct = 99.0
    SIGMA_I = 1.0
    WIDTH_B = 0.5

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng(seed)
        self.hks = [float(v) for v in rng.uniform(0.5, 4.0, 3 if tiny else 20)]
        self.sweep_hks = np.sort(rng.uniform(0.5, 4.0, 5 if tiny else 50))
        weights = rng.dirichlet(np.ones(3))
        weights[-1] = 1.0 - weights[:-1].sum()
        sigmas = (0.6, 1.0, 1.5)
        self.mix_hk = float(rng.uniform(0.5, 4.0))
        self.mix_sf = 0.5
        grid = qstate.grid_for_gaussians([0.0, 0.0, 0.0, self.mix_hk],
                                         [*sigmas, self.mix_sf])
        self.mix_pre = qstate.MixedState(tuple(
            (float(w), qstate.gaussian_state(grid, 0.0, s)) for w, s in zip(weights, sigmas)))
        self.mix_post = qstate.gaussian_state(grid, self.mix_hk, self.mix_sf)
        ov = [float(w) * _gauss_overlap_sq(s, self.mix_sf, self.mix_hk)
              for w, s in zip(weights, sigmas)]
        self.mix_oracle = sum(o * self.mix_hk * s**2 / (s**2 + self.mix_sf**2)
                              for o, s in zip(ov, sigmas)) / sum(ov)
        self.errors = []

    def _sf(self, case):
        return {"A": weakval.PLANE_WAVE_RATIO, "B": self.WIDTH_B, "C": 1.0}[case] * self.SIGMA_I

    def unit(self, p, rec):
        si = self.SIGMA_I

        def checked(err, what):
            if p < self.min_units:
                self.errors.append(err)
            require(err < 1e-9, f"{what} off by {err:.3e}")
        for case in "ABC":
            oracle_ratio = si**2 / (si**2 + self._sf(case) ** 2)
            for hk in self.hks:
                def check(doc, hk=hk, ratio=oracle_ratio):
                    checked(rel_err(doc["P_w_re"], hk * ratio), f"case {doc['case']} Re(P_w)")
                rec.op("scenario_record", lambda case=case, hk=hk: weakval.scenario_record(
                    case, si, hk, width_ratio=self.WIDTH_B), check)
        sf = self._sf("B")

        def check_sweep(rows):
            require(len(rows) == len(self.sweep_hks), f"{len(rows)} sweep rows")
            checked(max(rel_err(row["deficit"], row["hbarK"] * sf**2 / (si**2 + sf**2))
                        for row in rows), "deficit sweep")
        rec.op("deficit_sweep", lambda: weakval.deficit_sweep(si, self.WIDTH_B, self.sweep_hks),
               check_sweep)

        def check_mixed(res):
            checked(rel_err(res.value.real, self.mix_oracle), "mixed Re(P_w)")
        rec.op("weak_value_mixed",
               lambda: weakval.weak_value_mixed(self.mix_pre, self.mix_post), check_mixed)

    def own_metrics(self):
        return {"qstate.grid_points_A": float(np.median(
            [weakval.scenario("A", self.SIGMA_I, hk)[0].grid.n_points for hk in self.hks]))}

    def accuracy(self):
        if not self.errors or self.first_failures:
            return {"oracle_err": None}
        return {"oracle_err": max(self.errors)}


WORKLOADS = {w.name: w for w in (McH2, BankIO, CliCold, WvSweep)}

# An accuracy figure above its ceiling marks the run incorrect.  The ceilings
# flag a broken pipeline; they are far above the known centroid bias (1.7%).
ACCURACY_CEILING = {"m_eff_rel_err": 0.05, "oracle_err": 1e-9}
