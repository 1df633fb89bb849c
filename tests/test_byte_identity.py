"""The column-wise table writer and the vectorised ribbon produce the same
bytes as the row-by-row and point-by-point code they replaced, kept here as
references."""

import json
import math

import numpy as np
import pytest

from wmscatter import analysis, cli, spectra, svgplot
from wmscatter import constants as C
from wmscatter.kinematics import DetectorGeometry, NeutronBeam
from wmscatter.qstate import gaussian_state, grid_for_gaussians

BEAM = NeutronBeam(90.0)


def ref_write_spectrum_csv(spec, path):
    meta = dict(spec.metadata)
    meta.setdefault("detector_index", spec.detector_index)
    meta.setdefault("tof_bins", {
        "t_min": float(spec.bin_edges[0]),
        "t_max": float(spec.bin_edges[-1]),
        "n_bins": len(spec.counts),
    })
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("tof_us,counts\n")
        for t, c in zip(spec.bin_centers, spec.counts):
            fh.write(f"{float(t)!r},{float(c)!r}\n")


def ref_write_ke_csv(red, meta, path):
    keep = {k: meta[k] for k in ("schema", "seed", "run_seed", "detector_index",
                                 "beam", "detector", "tof_bins", "sample")
            if k in meta}
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(keep, sort_keys=True) + "\n")
        fh.write("tof_us,K,E,intensity\n")
        for t, k, e, i in zip(red.t, red.k, red.e, red.intensity):
            fh.write(f"{float(t)!r},{float(k)!r},{float(e)!r},{float(i)!r}\n")


def ref_circles(points):
    """Ribbon circles drawn one point at a time."""
    pts = [(k, e, i) for k, e, i in points if np.isfinite(e)]
    ks = [p[0] for p in pts]
    es = [p[1] for p in pts]
    imax = max(p[2] for p in pts) or 1.0
    kpad = 0.05 * (max(ks) - min(ks) or 1.0)
    epad = 0.05 * (max(es) - min(es) or 1.0)
    ax = svgplot._Axes((min(ks) - kpad, max(ks) + kpad),
                       (min(es) - epad, max(es) + epad))
    out = []
    for k, e, inten in pts:
        a = max(min(inten / imax, 1.0), 0.0)
        if a <= 0:
            continue
        out.append(f'<circle cx="{ax.x(k):.2f}" cy="{ax.y(e):.2f}" r="2.4" '
                   f'fill="steelblue" fill-opacity="{a:.3f}"/>')
    return out


def h2_config(t_min, t_max, n_bins):
    geom = DetectorGeometry(11.6, 4.0, math.radians(15.0))
    return spectra.InstrumentConfig(BEAM, (geom,), spectra.TofBinning(t_min, t_max, n_bins))


def h2_sample():
    grid = grid_for_gaussians([0.0], [0.3])
    return spectra.SampleModel(2.01, gaussian_state(grid, 0.0, 0.3), 14.7)


def peak_config(n_bins=2048, t_offset=0.0):
    """One detector whose TOF window brackets the H2 recoil peak, with edges
    shifted off round values so the bin centres print with 17 digits."""
    sample = h2_sample()
    geom = DetectorGeometry(11.6, 4.0, math.radians(15.0))
    bins = spectra.recoil_tof_window(BEAM, (geom,), sample, 0.3, n_bins=n_bins)
    return h2_config(bins.t_min + 0.1234567 + t_offset, bins.t_max + t_offset, n_bins)


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "noiseless"])
def test_spectrum_file_matches_row_writer(tmp_path, poisson):
    cfg = peak_config()
    spec = spectra.simulate_spectrum(cfg, h2_sample(), 0)
    if poisson:
        spec = spectra.poisson_sample(spec, 200000, seed=4)
    else:
        assert np.any(spec.counts != np.round(spec.counts))
    assert max(len(repr(t)) for t in spec.bin_centers.tolist()) >= 18
    spectra.write_spectrum_csv(spec, tmp_path / "new.csv")
    ref_write_spectrum_csv(spec, tmp_path / "ref.csv")
    assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    back = analysis.ingest_spectrum(tmp_path / "new.csv")
    assert np.array_equal(back.counts, spec.counts)


def test_alternating_binnings_keep_their_own_tof_column(tmp_path):
    sample = h2_sample()
    specs = [spectra.simulate_spectrum(peak_config(512, dt), sample, 0)
             for dt in (0.0, 0.5)]
    assert not np.array_equal(specs[0].bin_centers, specs[1].bin_centers)
    for n in range(4):
        spec = specs[n % 2]
        spectra.write_spectrum_csv(spec, tmp_path / f"new{n}.csv")
        ref_write_spectrum_csv(spec, tmp_path / f"ref{n}.csv")
        assert same_bytes(tmp_path / f"new{n}.csv", tmp_path / f"ref{n}.csv")


def test_ke_file_with_nan_rows_matches_row_writer(tmp_path):
    # the first bins arrive before the incident flight time: nan K and E
    t_in = 11.6 / BEAM.v0 / C.US_S
    cfg = h2_config(t_in - 40.0 + 0.1234567, t_in + 600.0, 64)
    spec = spectra.Spectrum(0, cfg.tof_bins.edges, np.linspace(0.0, 63.0, 64),
                            {"schema": 1, "seed": 3})
    red = analysis.reduce_spectrum(spec, cfg, 0, poisson_errors=True)
    assert np.isnan(red.e).any() and np.isfinite(red.e).any()
    cli._write_ke_csv(red, spec.metadata, tmp_path / "new.csv")
    ref_write_ke_csv(red, spec.metadata, tmp_path / "ref.csv")
    assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    back = cli._read_ke_csv(tmp_path / "new.csv")
    assert np.array_equal(back, np.column_stack([red.k, red.e, red.intensity]),
                          equal_nan=True)


@pytest.mark.parametrize("as_array", [False, True], ids=["triples", "array"])
def test_ribbon_circles_match_point_loop(as_array):
    cfg = peak_config(512)
    spec = spectra.poisson_sample(
        spectra.simulate_spectrum(cfg, h2_sample(), 0), 5000, seed=2)
    red = analysis.reduce_spectrum(spec, cfg, 0)
    points = list(zip(red.k, red.e, red.intensity))
    points += [(2.5, float("nan"), 1.0), (2.6, 30.0, 0.0), (2.7, 31.0, -1.0)]
    assert sum(p[2] == 0 for p in points) > 10
    svg = svgplot.ribbon_svg(np.array(points) if as_array else points,
                             m_conventional=2.01, m_fitted=0.64, e_rot_fitted=14.7,
                             centroids=[(3.0, 30.0)])
    drawn = [line for line in svg.splitlines() if 'r="2.4"' in line]
    assert drawn == ref_circles(points)
    assert 0 < len(drawn) < len(points) - 10


def test_ribbon_skips_non_finite_intensity():
    points = [(1.0, 10.0, 2.0), (1.5, 12.0, 4.0), (2.0, 14.0, 1.0)]
    bad = points + [(1.7, 13.0, float("nan")), (1.8, 13.5, float("inf"))]
    svg = svgplot.ribbon_svg(bad)
    assert "nan" not in svg and "inf" not in svg
    assert svg == svgplot.ribbon_svg(points)
