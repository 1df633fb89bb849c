"""End-to-end tests of the command-line front end, run in process, and of
the package's import footprint."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from wmscatter import analysis, cli, spectra
from wmscatter.kinematics import DetectorGeometry, NeutronBeam

M_FREE, E_ROT, M_EFF, SIGMA_P = 2.01, 14.7, 0.64, 0.3
LAM = 2.0 * (1.0 - math.sqrt(M_EFF / M_FREE))
RUN_SEED = 11


@pytest.fixture
def h2_inputs(tmp_path):
    """Instrument and sample JSON for the paper's H2 case: 5 detectors,
    512 TOF bins."""
    doc = {"schema": 1, "M": M_FREE, "E_rot": E_ROT,
           "momentum_dist": {"type": "gaussian", "sigma": SIGMA_P},
           "deficit": {"lambda": LAM, "width_ratio": 1.0}}
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps(doc))
    beam = NeutronBeam(90.0)
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a))
                 for a in (8, 13, 18, 23, 28))
    bins = spectra.recoil_tof_window(beam, dets, spectra.sample_from_dict(doc),
                                     SIGMA_P, n_bins=512)
    inst_path = tmp_path / "instrument.json"
    spectra.save_instrument_json(spectra.InstrumentConfig(beam, dets, bins), inst_path)
    return tmp_path, str(inst_path), str(sample_path)


def run(argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


def test_full_chain(h2_inputs, capsys):
    tmp, inst, sample = h2_inputs
    sim, red = tmp / "sim", tmp / "red"
    cen = red / "centroids.csv"
    seed = ["--seed", RUN_SEED]
    run(["weakvalue", "--case", "A", *seed, "--out", tmp / "wv.json"])
    assert json.loads((tmp / "wv.json").read_text())["seed"] == RUN_SEED

    run(["simulate", "--instrument", inst, "--sample", sample,
         "--counts", 200000, *seed, "--out", sim])
    manifest = json.loads((sim / "manifest.json").read_text())
    assert manifest["seed"] == RUN_SEED
    for d, name in enumerate(manifest["files"]):
        meta = analysis.ingest_spectrum(sim / name).metadata
        assert meta["seed"] == cli._per_detector_seed(RUN_SEED, d)
        assert meta["run_seed"] == RUN_SEED

    # reduce is given a different --seed: the run seed recorded by simulate wins
    run(["reduce", "--input", sim, "--seed", 999, "--out", red])
    meta, recs = analysis.read_centroids_csv(cen)
    assert meta["seed"] == RUN_SEED
    assert [d for d, _ in recs] == list(range(5))

    run(["fit", "--centroids", cen, "--m-free", M_FREE, "--out", tmp / "fit.json"])
    fit = json.loads((tmp / "fit.json").read_text())
    assert fit["seed"] == RUN_SEED
    assert fit["n_points"] == 5
    assert 0.55 < fit["M_eff"] < 0.7
    # the simulate preview reduces and weights its centroids as reduce -> fit does
    assert manifest["preview_fit"]["M_eff"] == fit["M_eff"]

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


def test_cli_import_leaves_out_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wmscatter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
