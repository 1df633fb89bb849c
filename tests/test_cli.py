"""End-to-end tests of the command-line front end, run in process, and of
the package's import footprint."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from wmscatter import analysis, cli, qstate, spectra
from wmscatter import constants as C
from wmscatter.errors import ParseError
from wmscatter.kinematics import DetectorGeometry, NeutronBeam

M_FREE, E_ROT, M_EFF, SIGMA_P = 2.01, 14.7, 0.64, 0.3
LAM = 2.0 * (1.0 - math.sqrt(M_EFF / M_FREE))
RUN_SEED = 11


def write_h2_inputs(tmp_path, angles=(8, 13, 18, 23, 28), n_bins=512):
    """Instrument and sample JSON for the paper's H2 case, by default with
    5 detectors and 512 TOF bins."""
    doc = {"schema": 1, "M": M_FREE, "E_rot": E_ROT,
           "momentum_dist": {"type": "gaussian", "sigma": SIGMA_P},
           "deficit": {"lambda": LAM, "width_ratio": 1.0}}
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps(doc))
    beam = NeutronBeam(90.0)
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a)) for a in angles)
    bins = spectra.recoil_tof_window(beam, dets, spectra.sample_from_dict(doc),
                                     SIGMA_P, n_bins=n_bins)
    inst_path = tmp_path / "instrument.json"
    spectra.save_instrument_json(spectra.InstrumentConfig(beam, dets, bins), inst_path)
    return tmp_path, str(inst_path), str(sample_path)


@pytest.fixture
def h2_inputs(tmp_path):
    return write_h2_inputs(tmp_path)


def run(argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


def test_full_chain(h2_inputs, capsys):
    tmp, inst, sample = h2_inputs
    sim, red = tmp / "sim", tmp / "red"
    cen = red / "centroids.csv"
    seed = ["--seed", RUN_SEED]
    run(["weakvalue", "--case", "A", *seed, "--out", tmp / "wv.json"])
    wv = json.loads((tmp / "wv.json").read_text())
    assert wv["seed"] == RUN_SEED
    # case A's defaults: sigma_i = 1, hbarK = 4, sigma_f = 1e-3 sigma_i
    sigma_i, hbar_k, sigma_f = 1.0, 4.0, 1e-3
    assert wv["P_w_re"] == pytest.approx(hbar_k * sigma_i**2 / (sigma_i**2 + sigma_f**2), rel=1e-9)
    assert wv["P_w_im"] == 0.0

    run(["simulate", "--instrument", inst, "--sample", sample,
         "--counts", 200000, *seed, "--out", sim])
    manifest = json.loads((sim / "manifest.json").read_text())
    assert manifest["seed"] == RUN_SEED
    # simulate writes spectra and their manifest; centroids and fits are
    # the products of reduce and fit alone
    assert sorted(manifest) == ["counts_per_detector", "files", "instrument",
                                "sample", "schema", "seed"]
    assert sorted(os.listdir(sim)) == ["manifest.json", *manifest["files"]]
    for d, name in enumerate(manifest["files"]):
        meta = analysis.ingest_spectrum(sim / name).metadata
        assert meta["seed"] == cli._per_detector_seed(RUN_SEED, d)
        assert meta["run_seed"] == RUN_SEED

    # reduce is given a different --seed: the run seed recorded by simulate wins
    run(["reduce", "--input", sim, "--seed", 999, "--out", red])
    meta, recs = analysis.read_centroids_csv(cen)
    assert meta["seed"] == RUN_SEED
    assert meta["failures"] == []
    assert [d for d, _ in recs] == list(range(5))

    run(["fit", "--centroids", cen, "--m-free", M_FREE, "--out", tmp / "fit.json"])
    fit = json.loads((tmp / "fit.json").read_text())
    assert fit["seed"] == RUN_SEED
    assert fit["n_points"] == 5
    assert 0.55 < fit["M_eff"] < 0.7
    assert "left_out" not in fit

    capsys.readouterr()
    run(["audit", "--instrument", inst, "--centroids", cen, "--free", "L1,theta",
         "--assumed-m", M_FREE, *seed, "--out", tmp / "audit.json"])
    assert "calibration audit" in capsys.readouterr().out
    audit = json.loads((tmp / "audit.json").read_text())
    assert type(audit["masking_flag"]) is bool
    assert math.isfinite(audit["refit_mass"])

    # a directory input to plot means the K-E files written by reduce
    run(["plot", "--input", red, "--centroids", cen, "--fit", tmp / "fit.json",
         "--m-free", M_FREE, "--out", tmp / "ribbon.svg"])
    root = ET.parse(tmp / "ribbon.svg").getroot()
    assert root.tag.endswith("svg")
    assert len(list(root.iter("{http://www.w3.org/2000/svg}circle"))) >= 5


@pytest.mark.parametrize("angles, n_bins, m_eff, max_stderr", [
    ((8, 13, 18, 23, 28), 512, 0.6295559, 1e-2),
    (range(8, 29, 2), 2048, 0.6296568, 1e-3),
], ids=["5x512", "11x2048"])
def test_noiseless_chain_gets_chi2_stderrs(tmp_path, angles, n_bins, m_eff, max_stderr):
    """A noiseless spectrum records a null seed, so reduce scales its
    centroid stderrs by the Gaussian fit's chi^2 and does not floor a
    density's per-bin variance at one count (which gave sigma_E 7.6 meV at
    8 degrees and a fit stderr of 1.31 on 5 x 512, 1.79 on 11 x 2048)."""
    tmp, inst, sample = write_h2_inputs(tmp_path, angles, n_bins)
    sim, red = tmp / "sim", tmp / "red"
    run(["simulate", "--instrument", inst, "--sample", sample, "--counts", 0,
         "--out", sim])
    run(["reduce", "--input", sim, "--out", red])
    _, recs = analysis.read_centroids_csv(red / "centroids.csv")
    assert recs[0][1].sigma_e < 0.1   # meV, at 8 degrees
    run(["fit", "--centroids", red / "centroids.csv", "--out", tmp / "fit.json"])
    fit = json.loads((tmp / "fit.json").read_text())
    assert fit["n_points"] == len(angles)
    assert fit["stderr"] < max_stderr
    # the centroid path's own bias against the injected 0.64, pinned
    assert fit["M_eff"] == pytest.approx(m_eff, abs=1e-6)


def test_reduce_takes_the_count_model_from_each_spectrum(h2_inputs, monkeypatch):
    tmp, inst, sample = h2_inputs
    seen = []

    def spy(red, window=None):
        seen.append(red.poisson)
        return centroid_ke(red, window)
    centroid_ke = analysis.centroid_ke
    monkeypatch.setattr(analysis, "centroid_ke", spy)
    for counts, poisson in ((0, False), (200000, True)):
        sim = tmp / f"sim{counts}"
        run(["simulate", "--instrument", inst, "--sample", sample,
             "--counts", counts, "--out", sim])
        seed = analysis.ingest_spectrum(sim / "spectrum_det000.csv").metadata["seed"]
        assert (seed is not None) == poisson
        seen.clear()
        run(["reduce", "--input", sim, "--out", tmp / f"red{counts}"])
        assert seen == [poisson] * 5


def test_fit_leaves_out_detectors_without_sigma(h2_inputs):
    tmp, _, _ = h2_inputs
    cen, out = tmp / "centroids.csv", tmp / "fit.json"
    ks = [1.1, 1.7, 2.2, 3.3, 3.8]
    recs = [(d, analysis.KEPoint(k, E_ROT + C.ATOM_E_COEF * k**2 / M_EFF, 0.01))
            for d, k in enumerate(ks)]
    recs[2] = (2, analysis.KEPoint(ks[2], recs[2][1].e + 5.0, None))
    analysis.write_centroids_csv(recs, cen)
    run(["fit", "--centroids", cen, "--out", out])
    fit = json.loads(out.read_text())
    assert fit["n_points"] == 4
    assert fit["left_out"] == [2]
    # the shifted point, fitted with or without weight, would move M_eff
    assert fit["M_eff"] == pytest.approx(M_EFF, rel=1e-9)


def test_fit_recoil_rejects_a_pinned_offset(h2_inputs, capsys):
    """--model recoil is the roto-recoil line with E_rot pinned at 0, so a
    second pin is refused rather than silently dropped."""
    tmp, _, _ = h2_inputs
    cen = tmp / "centroids.csv"
    analysis.write_centroids_csv(
        [(d, analysis.KEPoint(k, C.ATOM_E_COEF * k**2 / M_EFF, 0.01))
         for d, k in enumerate([1.1, 1.7, 2.2, 3.3])], cen)
    assert cli.main(["fit", "--centroids", str(cen), "--model", "recoil",
                     "--pin-erot", "14.7"]) == 2
    err = capsys.readouterr().err
    assert "--pin-erot" in err and "--model recoil" in err


@pytest.mark.parametrize("counts", [200000, 0])
def test_audit_asks_the_fits_question(h2_inputs, counts, capsys):
    """At fit's own M_eff the audit maps the peaks onto fit's line
    E = E_rot + C_A K^2 / M, so with nothing free it refits fit's mass and
    masks, and freeing t0 leaves t0 within its prior.  The free mass stays
    out of reach of a plausible L1 and theta."""
    tmp, inst, sample = h2_inputs
    sim, red = tmp / "sim", tmp / "red"
    cen = red / "centroids.csv"
    run(["simulate", "--instrument", inst, "--sample", sample, "--counts", counts,
         "--seed", RUN_SEED, "--out", sim])
    run(["reduce", "--input", sim, "--out", red])
    run(["fit", "--centroids", cen, "--out", tmp / "fit.json"])
    fit = json.loads((tmp / "fit.json").read_text())

    def audit(m, free=""):
        run(["audit", "--instrument", inst, "--centroids", cen, "--assumed-m", repr(m),
             "--free", free, "--out", tmp / "audit.json"])
        return json.loads((tmp / "audit.json").read_text())

    m_eff = fit["M_eff"]
    fixed = audit(m_eff)
    # the rest is centroid_ke's linear K interpolation against the exact map
    assert fixed["refit_mass"] == pytest.approx(m_eff, rel=1e-6)
    assert fixed["refit_e_rot"] == pytest.approx(fit["E_rot_fit"], abs=1e-3)   # meV
    assert "refit E_rot" in capsys.readouterr().out
    assert fixed["masking_flag"]
    t0 = audit(m_eff, "t0")
    assert abs(t0["delta_sigmas"]["t0"]) <= analysis.AUDIT_MAX_SIGMAS
    assert t0["masking_flag"]
    assert not audit(M_FREE, "L1,theta")["masking_flag"]


def test_reduce_falls_back_to_cli_seed(h2_inputs, tmp_path):
    """Spectra without a recorded run seed take --seed, not their Poisson seed."""
    tmp, inst, sample = h2_inputs
    cfg = spectra.load_instrument_json(inst)
    spec = spectra.simulate_spectrum(cfg, spectra.load_sample_json(sample), 0)
    spec = spectra.poisson_sample(spec, 100000, 12345)
    spectra.write_spectrum_csv(spec, tmp_path / "spectrum_det000.csv")
    run(["reduce", "--input", tmp_path, "--seed", 5, "--out", tmp_path / "red"])
    meta, _ = analysis.read_centroids_csv(tmp_path / "red" / "centroids.csv")
    assert meta["seed"] == 5


def test_reduce_records_failed_inputs_and_exits_1(h2_inputs, tmp_path, capsys):
    tmp, inst, sample = h2_inputs
    sim, red = tmp / "sim", tmp / "red"
    run(["simulate", "--instrument", inst, "--sample", sample, "--out", sim])
    bad = sim / "spectrum_det002.csv"
    lines = bad.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace(",", ",x", 1)
    bad.write_text("".join(lines))
    assert cli.main(["reduce", "--input", str(sim), "--out", str(red)]) == 1
    assert "spectrum_det002.csv" in capsys.readouterr().err
    meta, recs = analysis.read_centroids_csv(red / "centroids.csv")
    assert [d for d, _ in recs] == [0, 1, 3, 4]
    [failure] = meta["failures"]
    assert failure["path"] == str(bad)
    assert failure["error"].startswith("ParseError: ")


def test_audit_echoes_the_seed_of_the_centroids_file(h2_inputs, capsys):
    tmp, inst, _ = h2_inputs
    cen, out = tmp / "centroids.csv", tmp / "audit.json"
    analysis.write_centroids_csv(
        [(d, analysis.KEPoint(2.0 + d, 20.0 + 5.0 * d, 0.1)) for d in range(5)], cen,
        metadata={"seed": 5})
    run(["audit", "--instrument", inst, "--centroids", cen, "--assumed-m", 2.01,
         "--out", out])
    assert json.loads(out.read_text())["seed"] == 5


def test_audit_of_an_unknown_detector_exits_2(h2_inputs, capsys):
    tmp, inst, _ = h2_inputs
    cen = tmp / "centroids.csv"
    analysis.write_centroids_csv(
        [(d, analysis.KEPoint(2.0 + d, 20.0 + 5.0 * d, 0.1)) for d in (0, 1, 5)], cen)
    assert cli.main(["audit", "--instrument", inst, "--centroids", str(cen),
                     "--free", "t0", "--assumed-m", "2.01"]) == 2
    assert "detector 5" in capsys.readouterr().err


def test_audit_with_a_repeated_free_parameter_exits_2(h2_inputs, capsys):
    tmp, inst, _ = h2_inputs
    cen = tmp / "centroids.csv"
    analysis.write_centroids_csv(
        [(d, analysis.KEPoint(2.0 + d, 20.0 + 5.0 * d, 0.1)) for d in (0, 1, 2)], cen)
    assert cli.main(["audit", "--instrument", inst, "--centroids", str(cen),
                     "--free", "t0,t0", "--assumed-m", "2.01"]) == 2
    assert "'t0' given twice" in capsys.readouterr().err


def test_ke_file_needs_its_column_header(h2_inputs, tmp_path):
    tmp, inst, sample = h2_inputs
    run(["simulate", "--instrument", inst, "--sample", sample, "--out", tmp / "sim"])
    run(["reduce", "--input", tmp / "sim", "--out", tmp / "red"])
    path = tmp / "red" / "ke_det000.csv"
    assert len(cli._read_ke_csv(path)) == 512
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "tof_us,K,E,counts\n" + "".join(lines[2:]))
    with pytest.raises(ParseError) as err:
        cli._read_ke_csv(path)
    assert err.value.line == 2
    assert cli.main(["plot", "--input", str(path), "--out", str(tmp / "r.svg")]) == 2


@pytest.mark.parametrize("flag, value, named", [
    ("--hbarK", "inf", "hbarK"), ("--hbarK", "nan", "hbarK"), ("--sigma-i", "1e300", "sigma"),
    ("--sigma-i", "0", "sigma_i"), ("--width-ratio", "nan", "width_ratio")])
def test_weakvalue_rejects_bad_input_with_exit_2(flag, value, named, capsys):
    assert cli.main(["weakvalue", "--case", "B", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_weakvalue_grid_over_the_node_cap_exits_2(capsys):
    # sigma_i = 1e-9 asks for a 2**44-node grid, which only the cap refuses
    # before it is allocated
    assert qstate.MAX_POINTS <= 1 << 24
    assert cli.main(["weakvalue", "--case", "A", "--sigma-i", "1e-9"]) == 2
    assert "MAX_POINTS" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, field, value", [
    ("simulate", "E0", math.nan), ("audit", "L1", math.inf), ("audit", "t0", math.nan),
    ("simulate", "E_rot", math.inf), ("simulate", "M", math.nan),
    ("simulate", "t_max", math.inf), ("simulate", "t_min", -math.inf)])
def test_non_finite_instrument_or_sample_value_exits_2(tmp_path, capsys, subcommand, field, value):
    """json.load takes NaN and Infinity; before the boundary checks these ran
    on to exit 4 (E0, and t_max after numpy warnings), a LAPACK failure, a
    silently dropped detector (exit 1) and all-zero spectra (exit 0)."""
    tmp, inst, sample = write_h2_inputs(tmp_path, angles=(8, 13, 18, 23))
    path = tmp / ("sample.json" if field in ("E_rot", "M") else "instrument.json")
    doc = json.loads(path.read_text())
    if field == "E0":
        doc["beam"]["E0"] = value
    elif field in ("L1", "t0"):
        doc["detectors"][1][field] = value
    elif field in ("t_min", "t_max"):
        doc["tof_bins"][field] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    cen = tmp / "centroids.csv"
    analysis.write_centroids_csv(
        [(d, analysis.KEPoint(2.0 + d, 20.0 + 5.0 * d, 0.1)) for d in range(4)], cen)
    argv = {"simulate": ["--sample", sample, "--out", tmp / "sim"],
            "audit": ["--centroids", cen, "--assumed-m", 2.01]}[subcommand]
    assert cli.main([str(a) for a in [subcommand, "--instrument", inst, *argv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp / "sim").exists()
    assert captured.err.startswith("error: ") and f"{field} = {value!r} must be" in captured.err


@pytest.mark.parametrize("dist, named", [
    ({"type": "gaussian", "sigma": 0.0}, "sigma = 0.0 must be positive and finite"),
    ({"type": "gaussian", "sigma": -0.3}, "sigma = -0.3 must be positive and finite"),
    ({"type": "gaussian", "sigma": math.nan}, "sigma = nan must be positive and finite"),
    ({"type": "gaussian", "sigma": math.inf}, "sigma = inf must be positive and finite"),
    ({"type": "mixture", "components": []}, "needs at least one component"),
    ({"type": "mixture", "components": [{"weight": 0.6, "sigma": 0.3},
                                        {"weight": 0.6, "sigma": 0.6}]},
     "weights must sum to 1"),
    ({"type": "mixture", "components": [{"weight": -0.2, "sigma": 0.3},
                                        {"weight": 1.2, "sigma": 0.6}]},
     "weight = -0.2 must be finite and nonnegative"),
    ({"type": "mixture", "components": [{"weight": math.nan, "sigma": 0.3},
                                        {"weight": 1.0, "sigma": 0.6}]},
     "weight = nan must be finite and nonnegative"),
], ids=["sigma-0", "sigma-neg", "sigma-nan", "sigma-inf", "empty-mixture", "weights-1.2",
        "weight-neg", "weight-nan"])
def test_bad_sample_width_or_weights_exit_2(tmp_path, capsys, dist, named):
    """sigma 0 and -0.3 once exited 1 (qstate's NonPositiveSigma), and an
    empty mixture exited 2 with numpy's message about a zero-size array."""
    tmp, inst, sample = write_h2_inputs(tmp_path, angles=(8, 13, 18, 23))
    doc = json.loads((tmp / "sample.json").read_text())
    doc["momentum_dist"] = dist
    (tmp / "sample.json").write_text(json.dumps(doc))
    assert cli.main(["simulate", "--instrument", inst, "--sample", sample,
                     "--out", str(tmp / "sim")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp / "sim").exists()
    assert captured.err.startswith("error: momentum_dist ") and named in captured.err


def test_cli_import_leaves_out_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wmscatter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
