"""Command line front end.

Subcommands: psf, table, scan, noise, recover, two-point. Option precedence is
explicit flag > config file entry (--config, 'key = value' lines keyed by the
flag's dest name) > built-in default. Exit codes: 0 ok, 2 bad parameters,
3 file problems, 4 singular system, 5 nothing to localize, 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import fileio, frequency, pipeline, spatial
from .errors import (
    BoundsError,
    DegenerateInputError,
    FileFormatError,
    InconsistentInputError,
    NoSignalError,
    ParameterError,
    RoiSolveError,
    SelectionError,
    ShapeError,
    SingularSystemError,
)
from .forward import image_spectrum_block, observe_spatial
from .frequency import SpectrumSelection
from .grid import RoiSpec
from .optics import OtfSpec, PsfKernel, build_otf, build_psf, passband_mask
from .pipeline import (
    DEFAULT_CUTOFF,
    DEFAULT_FIELD,
    DEFAULT_PSF_CROP,
    DEFAULT_PSNR_GRID,
    DEFAULT_SEED,
)


# ---------------------------------------------------------------------------
# value parsers (shared by flags and config entries)

def parse_dims(text: str) -> tuple[int, int]:
    """'RxC' or 'R,C' -> (rows, cols)."""
    parts = text.replace("x", ",").replace("X", ",").split(",")
    if len(parts) != 2:
        raise ValueError(f"expected ROWSxCOLS, got {text!r}")
    return (int(parts[0]), int(parts[1]))


def parse_sizes(text: str) -> tuple[int, ...]:
    """'2-20' / '2,3,8' / '2-5,9' -> sorted unique sizes."""
    out: set[int] = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece:
            lo, _, hi = piece.partition("-")
            out.update(range(int(lo), int(hi) + 1))
        else:
            out.add(int(piece))
    if not out:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sorted(out))


def parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def parse_complex(text: str) -> complex:
    """Accepts both 6.7-4.7i and 6.7-4.7j spellings."""
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def parse_roi4(text: str) -> RoiSpec:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected top,left,rows,cols, got {text!r}")
    return RoiSpec(*parts)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "dims": parse_dims,
    "sizes": parse_sizes,
    "floats": parse_float_list,
    "flag": lambda s: str(s).lower() in ("1", "true", "yes", "on"),
}


def resolve_options(args: argparse.Namespace, schema: dict[str, tuple[str, object]]) -> dict:
    """Fold flag > config > default for every schema entry.

    schema maps dest name -> (parser key, default). Flags parse eagerly via
    argparse types; config entries are strings run through the same parsers.
    """
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = fileio.read_manifest(args.config)
    merged: dict[str, object] = {}
    for dest, (kind, default) in schema.items():
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            merged[dest] = flag_value
        elif dest in config:
            raw = config[dest]
            try:
                merged[dest] = _PARSERS[kind](raw)
            except ValueError as exc:
                raise ParameterError(f"config entry {dest} = {raw!r}: {exc}")
        else:
            merged[dest] = default
    return merged


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _auto_crop(rows: int, cols: int, requested: int | None) -> int:
    """Largest odd crop <= requested that fits the field."""
    limit = min(rows - 1 if rows % 2 == 0 else rows, cols - 1 if cols % 2 == 0 else cols)
    crop = min(requested if requested is not None else DEFAULT_PSF_CROP, limit)
    return crop if crop % 2 == 1 else crop - 1


def _info(message: str) -> None:
    print(message, file=sys.stderr)


_SOLVER_ALIASES = {
    "spatial": {"direct": "direct", "lsq": "least_squares", "truncated": "truncated"},
    "frequency": {
        "direct": "direct_complex",
        "lsq": "stacked_real_lsq",
        "truncated": "truncated",
    },
}


def resolve_solver(domain: str, name: str | None) -> str | None:
    """Map the generic solver spellings onto the domain's method names.

    Domain-specific names pass through untouched so scripts can be explicit.
    """
    if name is None:
        return None
    return _SOLVER_ALIASES.get(domain, {}).get(name, name)


# ---------------------------------------------------------------------------
# subcommands

_COMMON_SCHEMA: dict[str, tuple[str, object]] = {
    "field": ("dims", DEFAULT_FIELD),
    "cutoff": ("float", DEFAULT_CUTOFF),
    "psf_crop": ("int", None),
    "seed": ("int", DEFAULT_SEED),
    "out": ("str", "."),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="manifest-style config file (flags override it)")
    sub.add_argument("--field", type=parse_dims, help="field dims ROWSxCOLS (default 768x768)")
    sub.add_argument("--cutoff", type=float, help="passband cutoff radius (default 6)")
    sub.add_argument("--psf-crop", dest="psf_crop", type=int, help="odd kernel crop (default 501)")
    sub.add_argument("--seed", type=int, help=f"root seed (default {DEFAULT_SEED})")
    sub.add_argument("--out", help="output directory (default .)")


def cmd_psf(args: argparse.Namespace) -> int:
    opts = resolve_options(args, dict(_COMMON_SCHEMA, gain=("float", 1.0)))
    rows, cols = opts["field"]
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    spec = OtfSpec(rows, cols, opts["cutoff"], opts["gain"])
    psf = build_psf(spec, crop)
    otf = build_otf(spec)
    count = int(passband_mask(spec).sum())
    out = _ensure_outdir(opts["out"])
    fileio.write_raw_matrix(os.path.join(out, "psf.raw"), psf.grid)
    fileio.write_pgm16(os.path.join(out, "psf.pgm"), psf.grid)
    fileio.write_raw_matrix(os.path.join(out, "otf.raw"), otf)
    fileio.write_manifest(
        os.path.join(out, "psf_manifest.txt"),
        {
            "field": f"{rows}x{cols}",
            "cutoff": repr(opts["cutoff"]),
            "passband_gain": repr(opts["gain"]),
            "psf_crop": str(crop),
            "passband_count": str(count),
            "peak": fileio.format_float(psf.peak),
        },
    )
    print(f"kernel {crop}x{crop} on a {rows}x{cols} field, cutoff {opts['cutoff']:g}")
    print(f"passband entries: {count}")
    print(f"peak value: {psf.peak:.10g}")
    print(f"wrote psf.raw, psf.pgm, otf.raw, psf_manifest.txt in {out}")
    return 0


_TABLE_SCHEMA = dict(
    _COMMON_SCHEMA,
    sizes=("sizes", tuple(pipeline.SIZES_DEFAULT)),
    trials=("int", 20),
    ring=("int", 0),
    solver=("str", None),
    noise_psnr=("float", None),
)


def cmd_table(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _TABLE_SCHEMA)
    domain = args.domain
    rows, cols = opts["field"]
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    report = pipeline.run_table_experiment(
        domain,
        sizes=tuple(opts["sizes"]),
        trials_per_size=opts["trials"],
        root_seed=opts["seed"],
        field_shape=(rows, cols),
        cutoff_radius=opts["cutoff"],
        psf_crop=crop,
        solver=resolve_solver(domain, opts["solver"]),
        extra_ring=opts["ring"],
        noise_psnr_db=opts["noise_psnr"],
    )
    out = _ensure_outdir(opts["out"])
    trial_header = ["domain", "roi_size", "trial", "seed", "ae", "ad", "condition", "error"]
    trial_rows = [
        (t.domain, t.roi_size, t.trial, t.seed, t.ae, t.ad, t.condition, t.error or "")
        for t in report.trials
    ]
    fileio.write_table_csv(os.path.join(out, f"trials_{domain}.csv"), trial_header, trial_rows)
    summary = report.summary_rows()
    fileio.write_table_csv(
        os.path.join(out, f"ae_{domain}.csv"),
        ["roi_size", "mean_ae", "std_ae", "failed"],
        [(r["roi_size"], r["mean_ae"], r["std_ae"], r["failed"]) for r in summary],
    )
    fileio.write_table_csv(
        os.path.join(out, f"ad_{domain}.csv"),
        ["roi_size", "mean_ad", "std_ad", "max_ad"],
        [(r["roi_size"], r["mean_ad"], r["std_ad"], r["max_ad"]) for r in summary],
    )
    fileio.write_manifest(os.path.join(out, f"manifest_{domain}.txt"), report.manifest())
    print(f"{domain} recovery, {opts['trials']} trials per size, solver {report.solver}")
    print(f"{'size':>4}  {'mean AE':>12}  {'std AE':>12}  {'mean AD':>12}  {'max AD':>12}  failed")
    for row in summary:
        print(
            f"{row['roi_size']:>4}  {row['mean_ae']:>12.5g}  {row['std_ae']:>12.5g}  "
            f"{row['mean_ad']:>12.5g}  {row['max_ad']:>12.5g}  {row['failed']:>6}"
        )
    print(
        f"wrote trials_{domain}.csv, ae_{domain}.csv, ad_{domain}.csv, "
        f"manifest_{domain}.txt in {out}"
    )
    return 0


_SCAN_SCHEMA = dict(
    _COMMON_SCHEMA,
    sample=("dims", (300, 300)),
    tile=("dims", (3, 3)),
    domain=("str", "spatial"),
    solver=("str", None),
    sample_seed=("int", 0),
    input=("str", None),
)
# Scanning frames the sample itself, so the field tracks the sample unless
# the caller pins one explicitly.
_SCAN_SCHEMA["field"] = ("dims", None)


def cmd_scan(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _SCAN_SCHEMA)
    out = _ensure_outdir(opts["out"])
    if opts["input"]:
        sample = fileio.read_raster(opts["input"])
        source = opts["input"]
    else:
        sample = pipeline.make_test_sample(*opts["sample"], seed=opts["sample_seed"])
        source = f"synthetic {opts['sample'][0]}x{opts['sample'][1]} seed {opts['sample_seed']}"
        fileio.write_raw_matrix(os.path.join(out, "sample.raw"), sample)
        fileio.write_pgm16(os.path.join(out, "sample.pgm"), sample)
    field = opts["field"] if opts["field"] is not None else sample.shape
    rows, cols = int(field[0]), int(field[1])
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    psf = build_psf(OtfSpec(rows, cols, opts["cutoff"]), crop)
    recon = pipeline.scan_reconstruct(
        sample,
        opts["tile"],
        psf,
        domain=opts["domain"],
        solver=resolve_solver(opts["domain"], opts["solver"]),
    )
    rel_error = float(np.linalg.norm(recon - sample)) / sample.size / max(
        float(sample.mean()), 1e-300
    )
    fileio.write_raw_matrix(os.path.join(out, "recovered.raw"), recon)
    fileio.write_pgm16(os.path.join(out, "recovered.pgm"), recon)
    if psf.spec is not None and psf.spec.shape == sample.shape:
        blurred = observe_spatial(sample, psf)
        fileio.write_pgm16(os.path.join(out, "blurred.pgm"), blurred)
    fileio.write_manifest(
        os.path.join(out, "scan_manifest.txt"),
        {
            "source": source,
            "sample": f"{sample.shape[0]}x{sample.shape[1]}",
            "tile": f"{opts['tile'][0]}x{opts['tile'][1]}",
            "domain": opts["domain"],
            "field": f"{rows}x{cols}",
            "cutoff": repr(opts["cutoff"]),
            "psf_crop": str(crop),
            "solver": opts["solver"] or "default",
            "relative_error": fileio.format_float(rel_error),
        },
    )
    print(f"scanned {sample.shape[0]}x{sample.shape[1]} in {opts['tile'][0]}x{opts['tile'][1]} tiles ({opts['domain']})")
    print(f"relative averaged error vs ground truth: {rel_error:.6g}")
    print(f"wrote recovered.raw, recovered.pgm in {out}")
    return 0


_NOISE_SCHEMA = dict(
    _COMMON_SCHEMA,
    roi_size=("int", 3),
    psnr=("floats", tuple(DEFAULT_PSNR_GRID)),
    trials=("int", 20),
    ring=("int", 2),
    domains=("str", "spatial,frequency"),
)


def cmd_noise(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _NOISE_SCHEMA)
    rows, cols = opts["field"]
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    domains = tuple(d.strip() for d in opts["domains"].split(",") if d.strip())
    report = pipeline.noise_sweep(
        roi_size=opts["roi_size"],
        psnr_grid=tuple(opts["psnr"]),
        trials_per_level=opts["trials"],
        root_seed=opts["seed"],
        field_shape=(rows, cols),
        cutoff_radius=opts["cutoff"],
        psf_crop=crop,
        extra_ring=opts["ring"],
        domains=domains,
    )
    out = _ensure_outdir(opts["out"])
    header = ["domain", "psnr_db", "amplitude_ratio", "mean_ae", "std_ae", "failed"]
    rows_out = [
        (p.domain, p.psnr_db, p.amplitude_ratio, p.mean_ae, p.std_ae, p.failed)
        for p in report.points
    ]
    fileio.write_table_csv(os.path.join(out, "noise_sweep.csv"), header, rows_out)
    manifest = {
        "roi_size": str(report.roi_size),
        "trials_per_level": str(report.trials_per_level),
        "root_seed": str(report.root_seed),
        "field": f"{rows}x{cols}",
        "cutoff": repr(report.base_cutoff),
        "psf_crop": str(report.psf_crop),
        "extra_ring": str(report.extra_ring),
        "threshold_ae": fileio.format_float(report.threshold_ae),
    }
    for domain in domains:
        crossing = report.crossing_db(domain)
        manifest[f"crossing_db_{domain}"] = "" if crossing is None else fileio.format_float(crossing)
    fileio.write_manifest(os.path.join(out, "noise_manifest.txt"), manifest)
    print(f"noise sweep, {report.roi_size}x{report.roi_size} ROI, {report.trials_per_level} trials per level")
    print(f"{'domain':>10}  {'PSNR dB':>9}  {'ratio':>12}  {'mean AE':>12}  {'std AE':>12}")
    for p in report.points:
        db = "inf" if math.isinf(p.psnr_db) else f"{p.psnr_db:g}"
        ratio = "inf" if math.isinf(p.amplitude_ratio) else f"{p.amplitude_ratio:.4g}"
        print(f"{p.domain:>10}  {db:>9}  {ratio:>12}  {p.mean_ae:>12.5g}  {p.std_ae:>12.5g}")
    for line in report.interpretation_lines():
        print(line)
    print(f"wrote noise_sweep.csv, noise_manifest.txt in {out}")
    return 0


_RECOVER_SCHEMA = dict(
    _COMMON_SCHEMA,
    domain=("str", "spatial"),
    solver=("str", None),
    ring=("int", 0),
)


def cmd_recover(args: argparse.Namespace) -> int:
    opts = resolve_options(args, _RECOVER_SCHEMA)
    observed = fileio.read_raster(args.observed)
    rows, cols = observed.shape
    k_rows, l_cols = args.size
    if args.roi is not None:
        top, left = args.roi
        roi = RoiSpec(top, left, k_rows, l_cols)
        roi.require_inside(rows, cols)
    else:
        roi = pipeline.locate_roi(observed, k_rows, l_cols)
        _info(f"located ROI at ({roi.top}, {roi.left})")
    domain = opts["domain"]
    out = _ensure_outdir(opts["out"])

    if domain == "spatial":
        if args.psf is not None:
            grid = fileio.read_raw_matrix(args.psf)
            if np.iscomplexobj(grid):
                raise FileFormatError(f"{args.psf} holds complex data, expected a kernel")
            psf = PsfKernel(grid=grid, spec=None)
        else:
            crop = _auto_crop(rows, cols, opts["psf_crop"])
            psf = build_psf(OtfSpec(rows, cols, opts["cutoff"]), crop)
            _info(f"built kernel from cutoff {opts['cutoff']:g} on the observed field")
        extra = (
            spatial.ring_cells(roi, rows, cols, opts["ring"]) if opts["ring"] > 0 else None
        )
        system = spatial.build_system(psf, observed, roi, extra_obs=extra)
        method = resolve_solver(domain, opts["solver"])
        if method is None:
            method = "least_squares" if opts["ring"] > 0 else "direct"
            if system.condition_estimate > spatial.CONDITION_LIMIT:
                _info(
                    f"condition {system.condition_estimate:.3g} above "
                    f"{spatial.CONDITION_LIMIT:g}; switching to the truncated solver"
                )
                method = "truncated"
        sol = spatial.solve_system(system, method, clamp_negative=args.clamp)
        extra_manifest = {}
    elif domain == "frequency":
        block = image_spectrum_block(observed, 0, 0, k_rows + opts["ring"], l_cols + opts["ring"])
        selection = SpectrumSelection.from_block(block, 0, 0, observed.shape)
        system = frequency.build_system(
            (rows, cols), roi, selection, otf_spec=OtfSpec(rows, cols, opts["cutoff"])
        )
        method = resolve_solver(domain, opts["solver"])
        if method is None:
            method = "stacked_real_lsq" if opts["ring"] > 0 else "direct_complex"
            if system.condition_estimate > spatial.CONDITION_LIMIT:
                _info(
                    f"condition {system.condition_estimate:.3g} above "
                    f"{spatial.CONDITION_LIMIT:g}; switching to the truncated solver"
                )
                method = "truncated"
        sol = frequency.solve_system(system, method, clamp_negative=args.clamp)
        extra_manifest = {"imag_leakage": fileio.format_float(sol.imag_leakage)}
    else:
        raise ParameterError(f"unknown domain {domain!r}")

    recovered = sol.pixels.reshape(roi.shape)
    fileio.write_raw_matrix(os.path.join(out, "recovered.raw"), recovered)
    fileio.write_pgm16(os.path.join(out, "recovered.pgm"), recovered)
    manifest = {
        "observed": args.observed,
        "roi": f"{roi.top},{roi.left},{roi.k_rows},{roi.l_cols}",
        "domain": domain,
        "method": sol.method,
        "residual": fileio.format_float(sol.residual),
        "condition": fileio.format_float(sol.condition),
        "negative_count": str(sol.negative_count),
        "min_pixel": fileio.format_float(sol.min_pixel),
    }
    manifest.update(extra_manifest)
    fileio.write_manifest(os.path.join(out, "recover_manifest.txt"), manifest)
    print(f"recovered {roi.k_rows}x{roi.l_cols} ROI at ({roi.top}, {roi.left}) via {sol.method}")
    print(f"residual {sol.residual:.6g}, condition {sol.condition:.6g}")
    if sol.negative_count:
        print(f"note: {sol.negative_count} negative pixels, most negative {sol.min_pixel:.6g}")
    print(f"wrote recovered.raw, recovered.pgm in {out}")
    return 0


def cmd_two_point(args: argparse.Namespace) -> int:
    if args.domain == "spatial":
        x_a, x_b = spatial.solve_two_point_1d(args.p, args.qa, args.qb, args.ya, args.yb)
    else:
        kwargs = {}
        if args.imag_tol is not None:
            kwargs["imag_rtol"] = args.imag_tol
        x_a, x_b = frequency.solve_two_point_1d(
            args.length, args.pos_a, args.pos_b, args.freq_c, args.freq_d,
            parse_complex(args.xc), parse_complex(args.xd), **kwargs,
        )
    print(f"x_a = {x_a:.12g}")
    print(f"x_b = {x_b:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roisolve",
        description="Recover sub-diffraction detail in isolated regions from blurred images.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_psf = subs.add_parser("psf", help="build and export the low-pass kernel")
    _add_common(p_psf)
    p_psf.add_argument("--gain", type=float, help="passband gain (default 1)")
    p_psf.set_defaults(func=cmd_psf)

    p_table = subs.add_parser("table", help="randomized recovery trials over ROI sizes")
    _add_common(p_table)
    p_table.add_argument("--domain", choices=pipeline.DOMAINS, required=True)
    p_table.add_argument("--sizes", type=parse_sizes, help="e.g. 2-20 or 2,3,4")
    p_table.add_argument("--trials", type=int, help="trials per size (default 20)")
    p_table.add_argument("--ring", type=int, help="extra observation ring width (default 0)")
    p_table.add_argument("--solver", help="override the solver")
    p_table.add_argument("--noise-psnr", dest="noise_psnr", type=float, help="add noise at this PSNR (dB)")
    p_table.set_defaults(func=cmd_table)

    p_scan = subs.add_parser("scan", help="recover a whole sample tile by tile")
    _add_common(p_scan)
    p_scan.add_argument("--input", help="sample raster (raw or PGM); default: synthetic")
    p_scan.add_argument("--sample", type=parse_dims, help="synthetic sample dims (default 300x300)")
    p_scan.add_argument("--sample-seed", dest="sample_seed", type=int, help="synthetic texture seed")
    p_scan.add_argument("--tile", type=parse_dims, help="tile dims (default 3x3)")
    p_scan.add_argument("--domain", choices=pipeline.DOMAINS, help="default spatial")
    p_scan.add_argument("--solver", help="per-tile solver override")
    p_scan.set_defaults(func=cmd_scan)

    p_noise = subs.add_parser("noise", help="sweep noise levels and report degradation")
    _add_common(p_noise)
    p_noise.add_argument("--roi-size", dest="roi_size", type=int, help="square ROI size (default 3)")
    p_noise.add_argument("--psnr", type=parse_float_list, help="comma list of dB levels")
    p_noise.add_argument("--trials", type=int, help="trials per level (default 20)")
    p_noise.add_argument("--ring", type=int, help="extra observation ring width (default 2)")
    p_noise.add_argument("--domains", help="comma list (default spatial,frequency)")
    p_noise.set_defaults(func=cmd_noise)

    p_rec = subs.add_parser("recover", help="recover one ROI from an observed image")
    _add_common(p_rec)
    p_rec.add_argument("--observed", required=True, help="blurred image (raw or PGM)")
    p_rec.add_argument("--size", type=parse_dims, required=True, help="ROI dims KxL")
    p_rec.add_argument("--roi", type=parse_dims, help="ROI anchor top,left (default: locate)")
    p_rec.add_argument("--psf", help="kernel raw file (default: build from --cutoff)")
    p_rec.add_argument("--domain", choices=pipeline.DOMAINS, help="default spatial")
    p_rec.add_argument("--solver", help="override the solver")
    p_rec.add_argument("--ring", type=int, help="extra observation ring width (default 0)")
    p_rec.add_argument("--clamp", action="store_true", help="clamp negative pixels to zero")
    p_rec.set_defaults(func=cmd_recover)

    p_two = subs.add_parser("two-point", help="closed-form two-source recovery")
    p_two.add_argument("--domain", choices=pipeline.DOMAINS, required=True)
    p_two.add_argument("--p", type=float, help="kernel peak (spatial)")
    p_two.add_argument("--qa", type=float, help="coupling onto source a (spatial)")
    p_two.add_argument("--qb", type=float, help="coupling onto source b (spatial)")
    p_two.add_argument("--ya", type=float, help="observation at source a (spatial)")
    p_two.add_argument("--yb", type=float, help="observation at source b (spatial)")
    p_two.add_argument("--length", type=int, help="sequence length (frequency)")
    p_two.add_argument("--pos-a", dest="pos_a", type=int, help="source position a (frequency)")
    p_two.add_argument("--pos-b", dest="pos_b", type=int, help="source position b (frequency)")
    p_two.add_argument("--freq-c", dest="freq_c", type=int, help="spectrum index c (frequency)")
    p_two.add_argument("--freq-d", dest="freq_d", type=int, help="spectrum index d (frequency)")
    p_two.add_argument("--xc", help="spectrum value at c, e.g. 15.6 (frequency)")
    p_two.add_argument(
        "--xd",
        help="spectrum value at d; use the --xd=-13.6-4.7i form for a leading minus (frequency)",
    )
    p_two.add_argument(
        "--imag-tol",
        dest="imag_tol",
        type=float,
        help="allowed imaginary residue relative to magnitude (frequency; "
        "raise it for rounded inputs)",
    )
    p_two.set_defaults(func=cmd_two_point)

    return parser


def _check_two_point_args(args: argparse.Namespace) -> None:
    if args.command != "two-point":
        return
    needed = (
        ("p", "qa", "qb", "ya", "yb")
        if args.domain == "spatial"
        else ("length", "pos_a", "pos_b", "freq_c", "freq_d", "xc", "xd")
    )
    missing = [n for n in needed if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ParameterError(f"two-point {args.domain} needs {flags}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_two_point_args(args)
        return args.func(args)
    except (
        ParameterError,
        BoundsError,
        ShapeError,
        SelectionError,
        DegenerateInputError,
        InconsistentInputError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except SingularSystemError as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return 4
    except NoSignalError as exc:
        print(f"no signal: {exc}", file=sys.stderr)
        return 5
    except RoiSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
