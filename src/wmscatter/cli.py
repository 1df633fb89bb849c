"""Batch command-line front end.

Subcommands (each also takes --seed, default 42, and --out):

    weakvalue --case {A,B,C} [--sigma-i --hbarK --lambda --width-ratio --sign]
    simulate  --instrument --sample [--counts, 0 = noiseless]
    reduce    --input FILES_OR_DIRS...
    fit       --centroids [--model {recoil,roto} --m-free --pin-erot]
    audit     --instrument --centroids --assumed-m [--free --masking-tol]
    plot      --input FILES_OR_DIRS... [--centroids --m-free --fit --title]

--out is the JSON file of weakvalue, fit and audit (stdout without it), the
directory of simulate and reduce (default '.') and the SVG of plot (default
ribbon.svg).  All numeric output is full-double-precision JSON (human tables
round to 4 significant digits); the seed is echoed in every product.

simulate writes the spectra and manifest.json, nothing more.  reduce takes
each spectrum's count model from its metadata: sigma_E is the Poisson
sandwich for a sampled spectrum and chi^2-scaled for a noiseless one (seed
null).  fit fits E = E_rot + C_A K^2 / M; --model recoil pins E_rot at 0
(and so takes no --pin-erot).  audit maps the peaks onto the same line with
E_rot profiled and refits it.  Both weight by sigma_E, leaving out (fit
lists in left_out) any detector without one, unless none has one.

Exit codes: 0 success; 2 invalid arguments (a repeated audit parameter, a
non-finite or non-positive weakvalue input and one that needs a grid of more
than qstate.MAX_POINTS nodes among them), a config parse failure (one
with a null, missing or wrongly shaped field among them, named in the
message), a NaN or infinite instrument or sample value (E0, L0, L1, t0, the
TOF bins' t_min and t_max, M, E_rot; json.load takes NaN and Infinity), a
sample momentum_dist without components, with a negative or non-finite
weight, weights not summing to 1 or a sigma not positive and finite, or a
centroid of a detector the instrument lacks;
3 orthogonal post-selection;
4 unphysical TOF range; 1 other library errors (for reduce, any input that
failed; centroids.csv lists them and the rest).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis, spectra, svgplot, tablefile, weakval
from .errors import (
    GridTooLarge,
    MissingMetadata,
    NonFiniteInput,
    NonPositiveInput,
    OrthogonalSelection,
    ParseError,
    UnknownDetector,
    UnphysicalTOF,
    WmScatterError,
)

DEFAULT_SEED = 42


def _emit_json(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wmscatter",
        description="weak-value momentum-transfer deficit toolkit")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("weakvalue", help="evaluate a pre/post-selection scenario")
    p.add_argument("--case", required=True, choices=["A", "B", "C"])
    p.add_argument("--sigma-i", type=float, default=1.0)
    p.add_argument("--hbarK", dest="hbark", type=float, default=4.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--width-ratio", type=float, default=0.5)
    p.add_argument("--sign", choices=["plus", "minus_mu"], default="plus")
    _add_common(p)

    p = sub.add_parser("simulate", help="forward-model TOF spectra")
    p.add_argument("--instrument", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--counts", type=int, default=10000,
                   help="Poisson counts per detector; 0 = noiseless")
    _add_common(p)

    p = sub.add_parser("reduce", help="convert spectra to the (K,E) plane")
    p.add_argument("--input", nargs="+", required=True,
                   help="spectrum CSV files or a directory of them")
    _add_common(p)

    p = sub.add_parser("fit", help="fit an effective mass to reduced centroids")
    p.add_argument("--centroids", required=True)
    p.add_argument("--model", choices=["recoil", "roto"], default="roto")
    p.add_argument("--m-free", type=float, default=None)
    p.add_argument("--pin-erot", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("audit", help="calibration-masking audit")
    p.add_argument("--instrument", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--assumed-m", type=float, required=True)
    p.add_argument("--free", default="",
                   help="comma-separated subset of L0,L1,t0,theta,E0")
    p.add_argument("--masking-tol", type=float, default=0.01)
    _add_common(p)

    p = sub.add_parser("plot", help="emit an SVG (K,E) ribbon figure")
    p.add_argument("--input", nargs="+", required=True,
                   help="reduced K-E CSV files (from `reduce`)")
    p.add_argument("--centroids", default=None)
    p.add_argument("--m-free", type=float, default=None)
    p.add_argument("--fit", default=None, help="MassFitResult JSON from `fit`")
    p.add_argument("--title", default="S(K,E) ribbon")
    _add_common(p)
    return ap


# --- subcommand bodies -------------------------------------------------------

def cmd_weakvalue(args):
    rec = weakval.scenario_record(args.case, args.sigma_i, args.hbark,
                                  width_ratio=args.width_ratio,
                                  lam=args.lam, sign=args.sign)
    rec["seed"] = args.seed
    rec["deficit_fraction_percent"] = 100.0 * rec["deficit_fraction"]
    _emit_json(rec, args.out)
    return 0


def _per_detector_seed(seed, det):
    return seed + 1000003 * det


def cmd_simulate(args):
    cfg = spectra.load_instrument_json(args.instrument)
    sample = spectra.load_sample_json(args.sample)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    files = []
    for d in range(len(cfg.detectors)):
        spec = spectra.simulate_spectrum(cfg, sample, d)
        if args.counts > 0:
            spec = spectra.poisson_sample(spec, args.counts,
                                          _per_detector_seed(args.seed, d))
        # "seed" stays the Poisson seed; reduce echoes "run_seed" downstream
        spec = replace(spec, metadata={**spec.metadata, "run_seed": args.seed})
        path = os.path.join(outdir, f"spectrum_det{d:03d}.csv")
        spectra.write_spectrum_csv(spec, path)
        files.append(os.path.basename(path))
    manifest = {
        "schema": 1,
        "seed": args.seed,
        "counts_per_detector": args.counts,
        "instrument": spectra.instrument_to_dict(cfg),
        "sample": spectra.sample_summary(sample),
        "files": files,
    }
    _emit_json(manifest, os.path.join(outdir, "manifest.json"))
    return 0


def _expand_inputs(paths, pattern):
    """Input files: each directory contributes its files matching pattern."""
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(glob.glob(os.path.join(p, pattern))))
        else:
            out.append(p)
    if not out:
        raise FileNotFoundError(f"no input files found (directories searched for {pattern})")
    return out


def cmd_reduce(args):
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    records = []
    seed = args.seed
    failures = []
    for path in _expand_inputs(args.input, "spectrum_det*.csv"):
        try:
            spec = analysis.ingest_spectrum(path)
            seed = spec.metadata.get("run_seed", seed)
            # a sampled spectrum records its Poisson seed, a noiseless one null
            red = analysis.reduce_spectrum(
                spec, poisson_errors=spec.metadata.get("seed") is not None)
            ke_path = os.path.join(
                outdir, f"ke_det{spec.detector_index:03d}.csv")
            _write_ke_csv(red, spec.metadata, ke_path)
            pt, _ = analysis.centroid_ke(red)
            records.append((spec.detector_index, pt))
        except WmScatterError as exc:
            failures.append({"path": str(path), "error": f"{type(exc).__name__}: {exc}"})
            print(f"reduce: {path}: {exc}", file=sys.stderr)
    if not records:
        raise WmScatterError(f"all {len(failures)} inputs failed to reduce")
    analysis.write_centroids_csv(
        records, os.path.join(outdir, "centroids.csv"),
        metadata={"seed": seed, "failures": failures})
    return 1 if failures else 0


KE_COLUMNS = ("tof_us", "K", "E", "intensity")


def _write_ke_csv(red, meta, path):
    keep = {k: meta[k] for k in ("schema", "seed", "run_seed", "detector_index",
                                 "beam", "detector", "tof_bins", "sample")
            if k in meta}
    tablefile.write_table(path, keep, KE_COLUMNS, (red.t, red.k, red.e, red.intensity))


def _read_ke_csv(path):
    """(K, E, intensity) rows of a K-E file; bins before the incident flight
    time hold nan K and E."""
    _, data, _ = tablefile.read_table(path, KE_COLUMNS, axis=spectra.table_axis)
    return data[:, 1:]


def cmd_fit(args):
    meta, recs = analysis.read_centroids_csv(args.centroids)
    pts = [pt for _, pt in recs]
    if args.model == "recoil" and args.pin_erot is not None:
        raise ValueError("--pin-erot cannot be combined with --model recoil, "
                         "which pins E_rot at 0")
    pin = 0.0 if args.model == "recoil" else args.pin_erot
    fit = analysis.fit_roto_recoil(pts, pin_e_rot=pin, m_free=args.m_free)
    doc = {
        "schema": 1,
        "seed": meta.get("seed", args.seed),
        "model": args.model,
        "n_points": len(pts) - len(fit.left_out),
        "M_eff": fit.m_eff,
        "stderr": fit.stderr,
        "E_rot_fit": fit.e_rot_fit,
        "E_rot_stderr": fit.e_rot_stderr,
    }
    if fit.left_out:   # only then, so a fit of every point keeps its layout
        doc["left_out"] = [recs[i][0] for i in fit.left_out]
    if args.m_free is not None:
        doc["deficit_report"] = analysis.deficit_report(fit, args.m_free)
    _emit_json(doc, args.out)
    return 0


def cmd_audit(args):
    cfg = spectra.load_instrument_json(args.instrument)
    meta, recs = analysis.read_centroids_csv(args.centroids)
    peaks = [(d, analysis.PeakFit(pt.e, 1.0, 1.0, 0.0,
                                  centroid_err=pt.sigma_e))
             for d, pt in recs]
    free = tuple(s.strip() for s in args.free.split(",") if s.strip())
    report = analysis.calibration_audit(cfg, peaks, args.assumed_m, free,
                                        masking_tol=args.masking_tol)
    doc = {
        "schema": 1,
        "seed": meta.get("seed", args.seed),
        "assumed_mass": report.assumed_mass,
        "free_params": list(free),
        "adjusted_params": report.adjusted_params,
        "delta_sigmas": report.delta_sigmas,
        "refit_mass": report.refit_mass,
        "refit_e_rot": report.refit_e_rot,
        "masking_flag": report.masking_flag,
        "residual_norm": report.residual_norm,
    }
    _emit_json(doc, args.out)
    sys.stdout.write(analysis.report_text(report))
    return 0


def cmd_plot(args):
    points = np.concatenate([_read_ke_csv(path)
                             for path in _expand_inputs(args.input, "ke_det*.csv")])
    centroids = None
    if args.centroids:
        _, recs = analysis.read_centroids_csv(args.centroids)
        centroids = [(pt.k, pt.e) for _, pt in recs]
    m_fit = None
    e_rot = 0.0
    if args.fit:
        with open(args.fit) as fh:
            doc = json.load(fh)
        m_fit = doc.get("M_eff")
        e_rot = doc.get("E_rot_fit", 0.0)
    svg = svgplot.ribbon_svg(points, m_conventional=args.m_free,
                             m_fitted=m_fit, e_rot_fitted=e_rot,
                             centroids=centroids, title=args.title)
    out = args.out or "ribbon.svg"
    with open(out, "w") as fh:
        fh.write(svg)
    return 0


HANDLERS = {
    "weakvalue": cmd_weakvalue,
    "simulate": cmd_simulate,
    "reduce": cmd_reduce,
    "fit": cmd_fit,
    "audit": cmd_audit,
    "plot": cmd_plot,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return HANDLERS[args.subcommand](args)
    except OrthogonalSelection as exc:
        print(f"error: orthogonal post-selection: {exc}", file=sys.stderr)
        return 3
    except UnphysicalTOF as exc:
        print(f"error: unphysical TOF range: {exc}", file=sys.stderr)
        return 4
    except (ParseError, MissingMetadata, UnknownDetector, NonFiniteInput, NonPositiveInput,
            GridTooLarge, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WmScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
