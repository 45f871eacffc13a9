"""Command line front end.

Subcommands: psf, table, scan, noise, recover, two-point. Each declares its
flags once, in an option table (COMMANDS) that creates the argparse flags and
the defaults --help shows. Option precedence is explicit flag > config file
entry > built-in default. psf, table, scan, noise and recover take --config
FILE: 'key = value' lines keyed by a flag's dest name (--psf-crop is psf_crop).
Every flag of the subcommand can come from it, clamp, observed and size
included; values go through the flag's parser and choices, and a key that
names no flag is refused. The *_manifest.txt files the commands write are run
records, not configs. Exit codes: 0 ok, 2 bad parameters, 3 file problems,
4 singular system, 5 nothing to localize, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fileio, pipeline, spatial
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
from .forward import separable_blur
from .grid import RoiSpec
from .linear import CONDITION_LIMIT, residual
from .optics import OtfSpec, PsfKernel, build_otf, build_psf
from .pipeline import (
    DEFAULT_CUTOFF,
    DEFAULT_FIELD,
    DEFAULT_PSF_CROP,
    DEFAULT_PSNR_GRID,
    DEFAULT_SEED,
    DOMAINS,
)


# ---------------------------------------------------------------------------
# value parsers (shared by flags and config entries)

def parse_dims(text: str) -> tuple[int, int]:
    """'RxC' or 'R,C' -> (rows, cols)."""
    parts = text.replace("x", ",").replace("X", ",").split(",")
    if len(parts) != 2:
        raise ValueError(f"expected ROWSxCOLS, got {text!r}")
    return (int(parts[0]), int(parts[1]))


def parse_size_ranges(text: str) -> tuple[range, ...]:
    """'2-20' / '2,3,8' / '2-5,9' -> one range per piece, none expanded."""
    ranges = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece:
            lo, dash, hi = piece.partition("-")
            ranges.append(range(int(lo), int(hi if dash else lo) + 1))
            if not ranges[-1]:
                raise ValueError(f"size range {piece!r} is empty")
    if not ranges:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(ranges)


def expand_sizes(ranges: tuple[range, ...], limit: int) -> tuple[int, ...]:
    """Sorted unique sizes of parse_size_ranges' pieces.

    A size above limit is a BoundsError raised before any range is expanded,
    so a range however long costs nothing to refuse.
    """
    top = max(r[-1] for r in ranges)
    if top > limit:
        raise BoundsError(f"ROI size {top} does not fit the field (at most {limit})")
    return tuple(sorted(set().union(*ranges)))


def parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def parse_complex(text: str) -> complex:
    """Accepts both 6.7-4.7i and 6.7-4.7j spellings."""
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def parse_flag(text: str) -> bool:
    """A config entry for an on/off flag: true or false."""
    if text.strip().lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.strip().lower() == "true"


# kind -> (parser of flag and config text, how --help shows a default)
_KINDS = {
    "int": (int, str),
    "float": (float, "{:g}".format),
    "str": (str, str),
    "dims": (parse_dims, "{0[0]}x{0[1]}".format),
    "sizes": (parse_size_ranges,
              lambda v: ",".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else str(r[0]) for r in v)),
    "floats": (parse_float_list, lambda values: ",".join(f"{v:g}" for v in values)),
    "complex": (parse_complex, str),
    "flag": (parse_flag, str),
}


@dataclass(frozen=True)
class Option:
    """One flag of a subcommand, --dest with underscores as dashes. kind names
    its parser in _KINDS (a "flag" takes no value); --help shows a default
    that is not None; a required option must come from the flag or --config."""

    dest: str
    kind: str = "str"
    default: object = None
    help: str = ""
    choices: tuple[str, ...] | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


def resolve_options(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """Fold flag > config > default for every option of the subcommand.

    Flags parse eagerly via argparse; config entries are strings run through
    the same parser and checked against the same choices. A config key that
    names no option, or a required option given neither way, is a
    ParameterError.
    """
    config = fileio.read_manifest(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(config) - {opt.dest for opt in options})
    if unknown:
        raise ParameterError(f"{args.config}: no option named {', '.join(unknown)}")
    merged: dict[str, object] = {}
    for opt in options:
        value = getattr(args, opt.dest)
        if value is None and opt.dest in config:
            raw = config[opt.dest]
            try:
                value = _KINDS[opt.kind][0](raw)
            except ValueError as exc:
                raise ParameterError(f"config entry {opt.dest} = {raw!r}: {exc}")
            if opt.choices is not None and value not in opt.choices:
                raise ParameterError(
                    f"config entry {opt.dest} = {raw!r}: expected one of {opt.choices}"
                )
        if value is None and opt.required:
            raise ParameterError(f"{opt.flag} is required")
        merged[opt.dest] = opt.default if value is None else value
    return merged


def _write_files(out: str, files: list[tuple]) -> str:
    """Create out and write each (name, writer, *args) of files in order, as
    writer(out/name, *args); the names written, comma-separated. Commands
    look each writer up on fileio as they run, not in a table built at
    import, so wrappers installed on fileio see every write."""
    os.makedirs(out, exist_ok=True)
    for name, write, *args in files:
        write(os.path.join(out, name), *args)
    return ", ".join(name for name, *_ in files)


def _write_records(path: str, kind: type, records) -> None:
    """A CSV of dataclass records: one column per field of kind, in field
    order, a None written as an empty cell."""
    names = [f.name for f in fields(kind)]
    rows = ([getattr(r, name) for name in names] for r in records)
    fileio.write_table_csv(path, names, (["" if v is None else v for v in row] for row in rows))


def _auto_crop(rows: int, cols: int, requested: int) -> int:
    """Largest odd crop <= requested that fits the field; ParameterError for a
    requested crop below 1, in either domain."""
    if requested < 1:
        raise ParameterError(f"--psf-crop must be >= 1, got {requested}")
    limit = min(rows - 1 if rows % 2 == 0 else rows, cols - 1 if cols % 2 == 0 else cols)
    crop = min(requested, limit)
    return crop if crop % 2 == 1 else crop - 1


# ---------------------------------------------------------------------------
# options shared by several subcommands; replace() adapts one to a subcommand

_FIELD = Option("field", "dims", DEFAULT_FIELD, "field dims ROWSxCOLS")
# scan and recover read the field's shape from their input
_INPUT_FIELD = replace(_FIELD, default=None, help="field dims ROWSxCOLS; the input's when omitted")
_CUTOFF = Option("cutoff", "float", DEFAULT_CUTOFF, "passband cutoff radius")
_PSF_CROP = Option("psf_crop", "int", DEFAULT_PSF_CROP, "odd kernel crop")
_SEED = Option("seed", "int", DEFAULT_SEED, "root seed")
_UNREAD_SEED = replace(_SEED, default=None, help="not read by this command")
_OUT = Option("out", "str", ".", "output directory")
_DOMAIN = Option("domain", "str", "spatial", "image or transform domain", DOMAINS)
_SOLVER = Option("solver", help="override the solver: direct, lsq, truncated or a method name")
_RING = Option("ring", "int", 0, "extra observation ring width")
_TRIALS = Option("trials", "int", 20, "trials per size")


# ---------------------------------------------------------------------------
# subcommands

PSF_OPTIONS = (_FIELD, _CUTOFF, _PSF_CROP, _UNREAD_SEED, _OUT,
               Option("gain", "float", 1.0, "passband gain"))


def cmd_psf(opts: dict) -> int:
    rows, cols = opts["field"]
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    spec = OtfSpec(rows, cols, opts["cutoff"], opts["gain"])
    psf = build_psf(spec, crop)
    otf = build_otf(spec)
    count = int(np.count_nonzero(otf))
    manifest = {
        "field": f"{rows}x{cols}",
        "cutoff": repr(opts["cutoff"]),
        "passband_gain": repr(opts["gain"]),
        "psf_crop": str(crop),
        "passband_count": str(count),
        "peak": fileio.format_float(psf.peak),
    }
    wrote = _write_files(opts["out"], [
        ("psf.raw", fileio.write_raw_matrix, psf.grid),
        ("psf.pgm", fileio.write_pgm16, psf.grid),
        ("otf.raw", fileio.write_raw_matrix, otf),
        ("psf_manifest.txt", fileio.write_manifest, manifest),
    ])
    print(f"kernel {crop}x{crop} on a {rows}x{cols} field, cutoff {opts['cutoff']:g}")
    print(f"passband entries: {count}")
    print(f"peak value: {psf.peak:.10g}")
    print(f"wrote {wrote} in {opts['out']}")
    return 0


TABLE_OPTIONS = (
    _FIELD, _CUTOFF, _PSF_CROP, _SEED, _OUT,
    replace(_DOMAIN, default=None, required=True),
    Option("sizes", "sizes", (pipeline.SIZES_DEFAULT,), "ROI sizes, a range or comma list"),
    _TRIALS,
    _RING,
    _SOLVER,
    Option("noise_psnr", "float", help="add noise at this PSNR (dB)"),
)


def cmd_table(opts: dict) -> int:
    domain = opts["domain"]
    rows, cols = opts["field"]
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    sizes = expand_sizes(opts["sizes"], min(rows, cols))
    report = pipeline.run_table_experiment(
        domain,
        sizes=sizes,
        trials_per_size=opts["trials"],
        root_seed=opts["seed"],
        field_shape=(rows, cols),
        cutoff_radius=opts["cutoff"],
        psf_crop=crop,
        solver=opts["solver"],
        extra_ring=opts["ring"],
        noise_psnr_db=opts["noise_psnr"],
    )
    summaries = report.summaries().items()
    manifest = {
        "domain": domain,
        "field_rows": str(rows),
        "field_cols": str(cols),
        "base_cutoff": repr(opts["cutoff"]),
        "psf_crop": str(crop),
        "trials_per_size": str(opts["trials"]),
        "root_seed": str(opts["seed"]),
        "solver": report.solver,
        "extra_ring": str(opts["ring"]),
        "noise_psnr_db": "" if opts["noise_psnr"] is None else repr(opts["noise_psnr"]),
        "sizes": ",".join(map(str, sizes)),
    }
    wrote = _write_files(opts["out"], [
        (f"trials_{domain}.csv", _write_records, pipeline.TrialResult, report.trials),
        (f"ae_{domain}.csv", fileio.write_table_csv, ["roi_size", "mean_ae", "std_ae", "failed"],
         [(size, s.mean_ae, s.std_ae, s.failed) for size, s in summaries]),
        (f"ad_{domain}.csv", fileio.write_table_csv, ["roi_size", "mean_ad", "std_ad", "max_ad"],
         [(size, s.mean_ad, s.std_ad, s.max_ad) for size, s in summaries]),
        (f"manifest_{domain}.txt", fileio.write_manifest, manifest),
    ])
    print(f"{domain} recovery, {opts['trials']} trials per size, solver {report.solver}")
    print(f"{'size':>4}  {'mean AE':>12}  {'std AE':>12}  {'mean AD':>12}  {'max AD':>12}  failed")
    for size, s in summaries:
        print(
            f"{size:>4}  {s.mean_ae:>12.5g}  {s.std_ae:>12.5g}  "
            f"{s.mean_ad:>12.5g}  {s.max_ad:>12.5g}  {s.failed:>6}"
        )
    print(f"wrote {wrote} in {opts['out']}")
    return 0


SCAN_OPTIONS = (
    _INPUT_FIELD, _CUTOFF, _PSF_CROP, _UNREAD_SEED, _OUT,
    Option("input", help="sample raster (raw or PGM); synthetic when omitted"),
    Option("sample", "dims", (300, 300), "synthetic sample dims"),
    Option("sample_seed", "int", 0, "synthetic texture seed"),
    Option("tile", "dims", (3, 3), "tile dims"),
    _DOMAIN,
    _SOLVER,
)


def cmd_scan(opts: dict) -> int:
    if opts["input"]:
        sample = fileio.read_raster(opts["input"])
        source = opts["input"]
    else:
        sample = pipeline.make_test_sample(*opts["sample"], seed=opts["sample_seed"])
        source = f"synthetic {opts['sample'][0]}x{opts['sample'][1]} seed {opts['sample_seed']}"
    rows, cols = opts["field"] or sample.shape
    crop = _auto_crop(rows, cols, opts["psf_crop"])
    solver = pipeline.resolve_solver(opts["domain"], opts["solver"], 0)
    recon = pipeline.scan_reconstruct(
        sample,
        opts["tile"],
        (rows, cols),
        opts["cutoff"],
        crop,
        domain=opts["domain"],
        solver=solver,
    )
    rel_error = pipeline.averaged_error(recon, sample) / max(float(sample.mean()), 1e-300)
    files = [] if opts["input"] else [
        ("sample.raw", fileio.write_raw_matrix, sample), ("sample.pgm", fileio.write_pgm16, sample)]
    files += [("recovered.raw", fileio.write_raw_matrix, recon),
              ("recovered.pgm", fileio.write_pgm16, recon)]
    if (rows, cols) == sample.shape:
        blurred = separable_blur(sample, OtfSpec(rows, cols, opts["cutoff"]))
        files.append(("blurred.pgm", fileio.write_pgm16, blurred))
    files.append(("scan_manifest.txt", fileio.write_manifest, {
        "source": source,
        "sample": f"{sample.shape[0]}x{sample.shape[1]}",
        "tile": f"{opts['tile'][0]}x{opts['tile'][1]}",
        "domain": opts["domain"],
        "field": f"{rows}x{cols}",
        "cutoff": repr(opts["cutoff"]),
        "psf_crop": str(crop),
        "solver": solver,
        "relative_error": fileio.format_float(rel_error),
    }))
    wrote = _write_files(opts["out"], files)
    print(f"scanned {sample.shape[0]}x{sample.shape[1]} in {opts['tile'][0]}x{opts['tile'][1]} tiles ({opts['domain']})")
    print(f"relative averaged error vs ground truth: {rel_error:.6g}")
    print(f"wrote {wrote} in {opts['out']}")
    return 0


NOISE_OPTIONS = (
    _FIELD, _CUTOFF, _PSF_CROP, _SEED, _OUT,
    Option("roi_size", "int", 3, "square ROI size"),
    Option("psnr", "floats", DEFAULT_PSNR_GRID, "comma list of dB levels"),
    replace(_TRIALS, help="trials per level"),
    replace(_RING, default=2),
    Option("domains", "str", ",".join(DOMAINS), "comma list"),
)


def cmd_noise(opts: dict) -> int:
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
    size = opts["roi_size"]
    manifest = {
        "roi_size": str(size),
        "trials_per_level": str(opts["trials"]),
        "root_seed": str(opts["seed"]),
        "field": f"{rows}x{cols}",
        "cutoff": repr(opts["cutoff"]),
        "psf_crop": str(crop),
        "extra_ring": str(opts["ring"]),
        "threshold_ae": fileio.format_float(report.threshold_ae),
    }
    for domain in domains:
        crossing = report.crossing_db(domain)
        manifest[f"crossing_db_{domain}"] = "" if crossing is None else fileio.format_float(crossing)
    wrote = _write_files(opts["out"], [
        ("noise_sweep.csv", _write_records, pipeline.SweepPoint, report.points),
        ("noise_manifest.txt", fileio.write_manifest, manifest),
    ])
    print(f"noise sweep, {size}x{size} ROI, {opts['trials']} trials per level")
    print(f"{'domain':>10}  {'PSNR dB':>9}  {'ratio':>12}  {'mean AE':>12}  {'std AE':>12}"
          f"  {'failed':>6}")
    for p in report.points:
        db = "inf" if math.isinf(p.psnr_db) else f"{p.psnr_db:g}"
        ratio = "inf" if math.isinf(p.amplitude_ratio) else f"{p.amplitude_ratio:.4g}"
        print(f"{p.domain:>10}  {db:>9}  {ratio:>12}  {p.mean_ae:>12.5g}  {p.std_ae:>12.5g}"
              f"  {p.failed:>6}")
        if p.error is not None:
            print(f"{'':>10}  first failure: {p.error}")
    for line in report.interpretation_lines():
        print(line)
    print(f"wrote {wrote} in {opts['out']}")
    return 0


RECOVER_OPTIONS = (
    _INPUT_FIELD, _CUTOFF, _PSF_CROP, _UNREAD_SEED, _OUT,
    Option("observed", help="blurred image (raw or PGM)", required=True),
    Option("size", "dims", help="ROI dims KxL", required=True),
    Option("roi", "dims", help="ROI anchor top,left; located when omitted"),
    Option("psf", help="image-domain kernel raw file; built from --cutoff when omitted"),
    _DOMAIN,
    _SOLVER,
    _RING,
    Option("clamp", "flag", help="clamp negative pixels to zero"),
)


def cmd_recover(opts: dict) -> int:
    observed = fileio.read_raster(opts["observed"])
    rows, cols = observed.shape
    if opts["field"] not in (None, observed.shape):
        field = "x".join(map(str, opts["field"]))
        raise ParameterError(f"--field {field} is not the {rows}x{cols} frame read")
    k_rows, l_cols = opts["size"]
    if opts["roi"] is not None:
        roi = RoiSpec(*opts["roi"], k_rows, l_cols)
        roi.require_inside(rows, cols)
    else:
        roi = pipeline.locate_roi(observed, k_rows, l_cols)
        print(f"located ROI at ({roi.top}, {roi.left})", file=sys.stderr)
    domain = opts["domain"]
    if domain == "frequency" and opts["psf"] is not None:
        raise ParameterError("--psf sets the image-domain kernel; the frequency domain does not read it")

    blur = OtfSpec(rows, cols, opts["cutoff"])
    if domain == "spatial":
        if opts["psf"] is not None:
            grid = fileio.read_raw_matrix(opts["psf"])
            if np.iscomplexobj(grid):
                raise FileFormatError(f"{opts['psf']} holds complex data, expected a kernel")
            blur = PsfKernel(grid=grid, spec=None)
        else:
            crop = _auto_crop(rows, cols, opts["psf_crop"])
            blur = spatial.simulated_blur(blur, k_rows, l_cols, opts["ring"], crop)
            print(f"built kernel from cutoff {opts['cutoff']:g} on the observed field",
                  file=sys.stderr)
    system = pipeline.roi_problem(domain, roi, (rows, cols), blur, opts["ring"])
    module = pipeline.DOMAIN_MODULES[domain]
    method = pipeline.resolve_solver(domain, opts["solver"], opts["ring"])
    if opts["solver"] is None and system.condition_estimate > CONDITION_LIMIT:
        print(
            f"condition {system.condition_estimate:.3g} above "
            f"{CONDITION_LIMIT:g}; switching to the truncated solver",
            file=sys.stderr,
        )
        method = module.METHODS[2]
    rhs = module.frame_rhs(system, observed)
    sol = module.solve_system(system, rhs, method)
    pixels = np.maximum(sol.pixels, 0.0) if opts["clamp"] else sol.pixels
    fit = residual(system, pixels, rhs)  # of the written pixels, clamped or not

    recovered = pixels.reshape(roi.shape)
    manifest = {
        "observed": opts["observed"],
        "roi": f"{roi.top},{roi.left},{roi.k_rows},{roi.l_cols}",
        "domain": domain,
        "method": method,
        "residual": fileio.format_float(fit),
        "condition": fileio.format_float(system.condition_estimate),
        "negative_count": str(sol.negative_count),
        "min_pixel": fileio.format_float(sol.min_pixel),
    }
    if domain == "frequency":
        manifest["imag_leakage"] = fileio.format_float(sol.imag_leakage)
    wrote = _write_files(opts["out"], [
        ("recovered.raw", fileio.write_raw_matrix, recovered),
        ("recovered.pgm", fileio.write_pgm16, recovered),
        ("recover_manifest.txt", fileio.write_manifest, manifest),
    ])
    print(f"recovered {roi.k_rows}x{roi.l_cols} ROI at ({roi.top}, {roi.left}) via {method}")
    print(f"residual {fit:.6g}, condition {system.condition_estimate:.6g}")
    if sol.negative_count:
        print(f"note: {sol.negative_count} negative pixels, most negative {sol.min_pixel:.6g}")
    print(f"wrote {wrote} in {opts['out']}")
    return 0


TWO_POINT_OPTIONS = (
    replace(_DOMAIN, default=None, required=True),
    Option("p", "float", help="kernel peak (spatial)"),
    Option("qa", "float", help="coupling onto source a (spatial)"),
    Option("qb", "float", help="coupling onto source b (spatial)"),
    Option("ya", "float", help="observation at source a (spatial)"),
    Option("yb", "float", help="observation at source b (spatial)"),
    Option("length", "int", help="sequence length (frequency)"),
    Option("pos_a", "int", help="source position a (frequency)"),
    Option("pos_b", "int", help="source position b (frequency)"),
    Option("freq_c", "int", help="spectrum index c (frequency)"),
    Option("freq_d", "int", help="spectrum index d (frequency)"),
    Option("xc", "complex", help="spectrum value at c, e.g. 15.6 (frequency)"),
    Option("xd", "complex", help="spectrum value at d; use the --xd=-13.6-4.7i form for a "
           "leading minus (frequency)"),
    Option("imag_tol", "float", help="allowed imaginary residue relative to magnitude "
           "(frequency; raise it for rounded inputs)"),
)
# the arguments of each domain's solve_two_point_1d, in order; every one but
# the trailing imag_tol (its imag_rtol) is required
_TWO_POINT_ARGS = {
    "spatial": ("p", "qa", "qb", "ya", "yb"),
    "frequency": ("length", "pos_a", "pos_b", "freq_c", "freq_d", "xc", "xd", "imag_tol"),
}


def _flags(names) -> str:
    return ", ".join("--" + n.replace("_", "-") for n in names)


def cmd_two_point(opts: dict) -> int:
    domain = opts["domain"]
    names = _TWO_POINT_ARGS[domain]
    foreign = [n for d, other in _TWO_POINT_ARGS.items() if d != domain
               for n in other if opts[n] is not None]
    if foreign:
        raise ParameterError(f"two-point {domain} does not read {_flags(foreign)}")
    missing = [n for n in names if opts[n] is None and n != "imag_tol"]
    if missing:
        raise ParameterError(f"two-point {domain} needs {_flags(missing)}")
    values = [opts[n] for n in names if opts[n] is not None]
    x_a, x_b = pipeline.domain_module(domain).solve_two_point_1d(*values)
    print(f"x_a = {x_a:.12g}")
    print(f"x_b = {x_b:.12g}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

# name -> (help, command, option table); two-point takes no --config
COMMANDS = {
    "psf": ("build and export the low-pass kernel", cmd_psf, PSF_OPTIONS),
    "table": ("randomized recovery trials over ROI sizes", cmd_table, TABLE_OPTIONS),
    "scan": ("recover a whole sample tile by tile", cmd_scan, SCAN_OPTIONS),
    "noise": ("sweep noise levels and report degradation", cmd_noise, NOISE_OPTIONS),
    "recover": ("recover one ROI from an observed image", cmd_recover, RECOVER_OPTIONS),
    "two-point": ("closed-form two-source recovery", cmd_two_point, TWO_POINT_OPTIONS),
}


def _flag_type(parse):
    """parse as an argparse type: a refused value's ValueError keeps its reason
    in the usage error, as a --config entry's does."""

    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process. It depends
    only on the option tables (argparse reads the terminal width when it
    prints), so every main() call shares it; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="roisolve",
        description="Recover sub-diffraction detail in isolated regions from blurred images.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        if name != "two-point":
            sub.add_argument("--config", help="file of 'key = value' lines by dest name (flags win)")
        for opt in options:
            parse, show = _KINDS[opt.kind]
            kwargs = {"type": _flag_type(parse), "choices": opt.choices}
            if opt.kind == "flag":
                kwargs = {"action": "store_const", "const": True}
            shown = opt.help
            if opt.default is not None:
                shown += f" (default {show(opt.default)})"
            elif opt.required:
                shown += " (required)"
            sub.add_argument(opt.flag, dest=opt.dest, help=shown, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, command, options = COMMANDS[args.command]
    try:
        return command(resolve_options(args, options))
    except (ParameterError, BoundsError, ShapeError, SelectionError, DegenerateInputError,
            InconsistentInputError) as exc:
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
