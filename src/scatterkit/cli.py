"""Command-line front end and bit-stable data export.

Subcommands: wavefield, xsection, phaseshifts, asympt-compare, sweep.
All CSV output uses '.' decimals, ',' separators, LF line endings, a
mandatory header row, and fixed 17-significant-digit float formatting, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ScatteringError
from .partialwave import (
    PhaseShiftSet,
    ScatterConfig,
    evaluate_grid,
    phase_shifts_from_json,
    phase_shifts_to_json,
)
from .phasesolve import potential_from_json, solve_potential_shifts
from .specfun import SeriesControl
from .xsection import (
    cross_section_grid,
    f_theta_grid,
    one_d_summary,
    sigma_total_asymptotic,
    sigma_total_mode_terms,
)

DEFAULT_RTOL = 1e-12
DEFAULT_SOLVE_LMAX = 8

WAVEFIELD_HEADER = "r,theta,re_psi,im_psi,re_psi_in,im_psi_in,re_psi_sc,im_psi_sc"
XSECTION_HEADER = "r,theta,dsigma,jr,jtheta,gamma"
ASYMPT_HEADER = "r,theta,dsigma,f2_asympt,ratio"


def _fmt(x: float) -> str:
    # fixed 17-significant-digit formatting; never shortest-round-trip
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path: Path, header: str, table: np.ndarray) -> None:
    lines = [header]
    for row in table:
        lines.append(",".join(map(_fmt, row.tolist())))
    _write_text(path, "\n".join(lines) + "\n")


def _grid_table(r: np.ndarray, theta: np.ndarray, *columns) -> np.ndarray:
    """CSV table (r, theta, *columns), one row per point, r-major, theta-minor.

    Each column broadcasts to the (len(r), len(theta)) grid.
    """
    shape = (r.size, theta.size)
    flat = [np.repeat(r, theta.size), np.tile(theta, r.size)]
    flat += [np.broadcast_to(c, shape).ravel() for c in columns]
    return np.column_stack(flat)


def _write_summary(path: Path, config: ScatterConfig, shifts: PhaseShiftSet) -> Path:
    """Cross-section summary JSON: the 1D closed forms, or the asymptotic totals."""
    if config.n == 1:
        summary = one_d_summary(shifts)
    else:
        summary = {
            "sigma_total": sigma_total_asymptotic(config, shifts),
            "per_l": list(sigma_total_mode_terms(config, shifts)),
        }
    _write_text(path, json.dumps(summary, indent=2) + "\n")
    return path


def _resolve_rtol(args) -> float:
    if getattr(args, "rtol", None) is not None:
        return args.rtol
    env = os.environ.get("SCATTERKIT_RTOL")
    if not env:
        return DEFAULT_RTOL
    try:
        return float(env)
    except ValueError as exc:
        raise DomainError(f"SCATTERKIT_RTOL must be a number: {exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """Batch description: dimensions, wavenumber, grids, shift source, outputs."""

    n_list: tuple[int, ...]
    k: float
    r_min: float
    r_max: float
    r_count: int
    r_scale: str
    theta_count: int
    shifts_source: dict
    out_dir: str | None

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            raw = json.loads(text)
            rg = raw["r_grid"]
            tg = raw["theta_grid"]
            spec = cls(
                n_list=tuple(int(n) for n in raw["n_list"]),
                k=float(raw["k"]),
                r_min=float(rg["min"]),
                r_max=float(rg["max"]),
                r_count=int(rg["count"]),
                r_scale=str(rg.get("scale", "linear")),
                theta_count=int(tg["count"]),
                shifts_source=dict(raw["shifts_source"]),
                out_dir=raw.get("outputs", {}).get("dir"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed sweep spec: {exc}") from exc
        spec.validate()
        return spec

    def validate(self) -> None:
        if not self.n_list:
            raise DomainError("n_list must be nonempty")
        if self.r_count < 1 or self.theta_count < 1:
            raise DomainError("grids must be nonempty")
        if not self.r_min > 0:
            raise DomainError("r_min must be > 0")
        if self.r_scale not in ("linear", "log"):
            raise DomainError(f"unknown r scale {self.r_scale!r}")
        src = self.shifts_source
        for key in ("file", "potential"):
            if key in src and not isinstance(src[key], str):
                raise DomainError(f"shifts_source {key} must be a file name, got {src[key]!r}")
        inline = src.get("inline", [])
        if not (isinstance(inline, list) and all(type(d) in (int, float) for d in inline)):
            raise DomainError(f"shifts_source inline must be a list of numbers, got {inline!r}")


def _r_grid(r_min: float, r_max: float, count: int, scale: str) -> np.ndarray:
    if not r_min > 0:
        raise DomainError("r_min must be > 0")
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise DomainError("r grid bounds must be finite")
    if count < 1:
        raise DomainError("r grid must be nonempty")
    if count == 1:
        return np.array([r_min])
    if scale == "log":
        return np.geomspace(r_min, r_max, count)
    return np.linspace(r_min, r_max, count)


def _theta_grid(n: int, count: int, interior: bool) -> np.ndarray:
    if n == 1:
        return np.array([0.0, math.pi])
    if count < 1:
        raise DomainError("theta grid must be nonempty")
    if interior:
        # midpoint rule keeps away from the axis where the tilt is undefined
        return (np.arange(count) + 0.5) * math.pi / count
    return np.linspace(0.0, math.pi, count)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _solve_shifts(config: ScatterConfig, potential_path: str, lsolve: int) -> PhaseShiftSet:
    """delta_l for l = 0..lsolve of the potential in a JSON file."""
    potential = potential_from_json(_read_input(potential_path))
    results = solve_potential_shifts(config, potential, lsolve)
    return PhaseShiftSet.from_deltas(m.delta for m in results)


def _load_shift_source(args, rtol: float) -> tuple[ScatterConfig, PhaseShiftSet]:
    """Resolve --shifts / --delta / --potential into a config and shift set."""
    series = SeriesControl(rel_tol=rtol)
    n, k = args.n, args.k
    if args.shifts is not None:
        file_n, file_k, shifts = phase_shifts_from_json(_read_input(args.shifts))
        n = n if n is not None else file_n
        k = k if k is not None else file_k
    elif args.delta is not None:
        if n is None or k is None:
            raise DomainError("--delta needs explicit --n and --k")
        try:
            deltas = [float(tok) for tok in args.delta.split(",") if tok.strip()]
        except ValueError as exc:
            raise DomainError(f"--delta must be comma-separated numbers: {exc}") from exc
        shifts = PhaseShiftSet.from_deltas(deltas)
    elif args.potential is not None:
        if n is None or k is None:
            raise DomainError("--potential needs explicit --n and --k")
        # --lmax names the solve range here; field truncation stays on the
        # auto policy so the solved shifts can be evaluated at any radius
        config = ScatterConfig(n=n, k=k, series=series)
        lsolve = args.lmax if args.lmax is not None else DEFAULT_SOLVE_LMAX
        return config, _solve_shifts(config, args.potential, lsolve)
    else:
        raise DomainError("one of --shifts, --delta, --potential is required")
    if n is None or k is None:
        raise DomainError("--n and --k are required (or implied by --shifts)")
    return ScatterConfig(n=n, k=k, lmax=args.lmax, series=series), shifts


def _write_wavefield(path: Path, config, shifts, r, theta_count: int, jobs) -> Path:
    theta = _theta_grid(config.n, theta_count, interior=False)
    psi, psi_in, psi_sc = evaluate_grid(config, shifts, r, theta, jobs=jobs)
    parts = [g for f in (psi, psi_in, psi_sc) for g in (f.real, f.imag)]
    _write_csv(path, WAVEFIELD_HEADER, _grid_table(r, theta, *parts))
    return path


def _asympt_columns(config, shifts, theta, dsigma) -> tuple[np.ndarray, np.ndarray]:
    """|f(theta)|^2 on the angle grid, and dsigma / |f|^2 (nan where f = 0)."""
    f2 = np.abs(f_theta_grid(config, shifts, theta)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(f2 > 0, dsigma / f2, float("nan"))
    return f2, ratio


def _write_xsection(path: Path, config, shifts, r, theta_count: int, asympt: bool) -> Path:
    theta = _theta_grid(config.n, theta_count, interior=True)
    grid = cross_section_grid(config, shifts, r, theta)
    header = XSECTION_HEADER
    columns = [grid.dsigma_domega, grid.jr_sc, grid.jtheta_sc, grid.gamma]
    if asympt:
        header += ",f2_asympt,ratio"
        columns += _asympt_columns(config, shifts, theta, grid.dsigma_domega)
    _write_csv(path, header, _grid_table(r, theta, *columns))
    return path


def cmd_wavefield(args) -> int:
    config, shifts = _load_shift_source(args, _resolve_rtol(args))
    r = _r_grid(args.r_min, args.r_max, args.r_count, args.r_scale)
    out = Path(args.out) / "wavefield.csv"
    print(_write_wavefield(out, config, shifts, r, args.theta_count, args.jobs))
    return 0


def cmd_xsection(args) -> int:
    config, shifts = _load_shift_source(args, _resolve_rtol(args))
    out_dir = Path(args.out)
    if config.n > 1:
        r = _r_grid(args.r_min, args.r_max, args.r_count, args.r_scale)
        out = out_dir / "xsection.csv"
        print(_write_xsection(out, config, shifts, r, args.theta_count, args.asympt))
    print(_write_summary(out_dir / "summary.json", config, shifts))
    return 0


def cmd_phaseshifts(args) -> int:
    rtol = _resolve_rtol(args)
    if args.n is None or args.k is None:
        raise DomainError("--n and --k are required")
    config = ScatterConfig(n=args.n, k=args.k, series=SeriesControl(rel_tol=rtol))
    lsolve = args.lmax if args.lmax is not None else DEFAULT_SOLVE_LMAX
    shifts = _solve_shifts(config, args.potential, lsolve)
    out = Path(args.out) / "shifts.json"
    _write_text(out, phase_shifts_to_json(args.n, args.k, shifts))
    print(out)
    return 0


def cmd_asympt_compare(args) -> int:
    config, shifts = _load_shift_source(args, _resolve_rtol(args))
    r = _r_grid(args.r_min, args.r_max, args.r_count, args.r_scale)
    theta = _theta_grid(config.n, args.theta_count, interior=True)
    ds = cross_section_grid(config, shifts, r, theta).dsigma_leading
    rows = _grid_table(r, theta, ds, *_asympt_columns(config, shifts, theta, ds))
    out = Path(args.out) / "asympt_compare.csv"
    _write_csv(out, ASYMPT_HEADER, rows)
    print(out)
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_json(_read_input(args.spec))
    # explicit --out wins; a directory named in the spec is the fallback
    out_dir = Path(spec.out_dir) if args.out == "." and spec.out_dir else Path(args.out)
    rtol = _resolve_rtol(args)
    series = SeriesControl(rel_tol=rtol)

    src = spec.shifts_source
    if "inline" in src:
        base_shifts = PhaseShiftSet.from_deltas(float(d) for d in src["inline"])
    elif "file" in src:
        _, _, base_shifts = phase_shifts_from_json(_read_input(src["file"]))
    elif "potential" in src:
        base_shifts = None  # solved per dimension below
    else:
        raise DomainError("shifts_source must name inline, file, or potential")

    r = _r_grid(spec.r_min, spec.r_max, spec.r_count, spec.r_scale)
    written = []
    for n in spec.n_list:
        config = ScatterConfig(n=n, k=spec.k, series=series)
        if base_shifts is None:
            shifts = _solve_shifts(config, src["potential"], DEFAULT_SOLVE_LMAX)
        else:
            shifts = base_shifts
        written.append(_write_wavefield(
            out_dir / f"wavefield_n{n}.csv", config, shifts, r, spec.theta_count, args.jobs))
        if n > 1:
            written.append(_write_xsection(
                out_dir / f"xsection_n{n}.csv", config, shifts, r, spec.theta_count, False))
        written.append(_write_summary(out_dir / f"summary_n{n}.json", config, shifts))
    for p in written:
        print(p)
    return 0


def _add_common(p: argparse.ArgumentParser, grids: bool = True) -> None:
    p.add_argument("--n", type=int, default=None, help="spatial dimension (>= 1)")
    p.add_argument("--k", type=float, default=None, help="wavenumber (> 0)")
    p.add_argument("--lmax", type=int, default=None,
                   help="incident truncation / highest solved l (default: auto)")
    p.add_argument("--rtol", type=float, default=None,
                   help="series tolerance (env SCATTERKIT_RTOL overrides default)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--jobs", type=int, default=os.cpu_count(),
                   help="threads for the per-radius Bessel evaluation of a wavefield "
                        "(no faster than 1: the Bessel recurrences hold the GIL)")
    if grids:
        p.add_argument("--shifts", default=None, help="phase-shift JSON file")
        p.add_argument("--delta", default=None,
                       help="inline comma-separated shifts, e.g. '0.5,-0.2'")
        p.add_argument("--potential", default=None, help="potential JSON file")
        p.add_argument("--r-min", type=float, default=1.0)
        p.add_argument("--r-max", type=float, default=10.0)
        p.add_argument("--r-count", type=int, default=10)
        p.add_argument("--r-scale", choices=("linear", "log"), default="linear")
        p.add_argument("--theta-count", type=int, default=9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterkit",
        description="Finite-distance scattering fields, cross sections, and "
                    "phase-shift solvers in arbitrary dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wavefield", help="tabulate psi, psi_in, psi_sc on an (r, theta) grid")
    _add_common(p)
    p.set_defaults(func=cmd_wavefield)

    p = sub.add_parser("xsection", help="current-resolved differential cross sections")
    _add_common(p)
    p.add_argument("--asympt", action="store_true",
                   help="append |f(theta)|^2 and finite/asymptotic ratio columns")
    p.set_defaults(func=cmd_xsection)

    p = sub.add_parser("phaseshifts", help="solve a model potential for delta_l")
    _add_common(p, grids=False)
    p.add_argument("--potential", required=True, help="potential JSON file")
    p.set_defaults(func=cmd_phaseshifts)

    p = sub.add_parser("asympt-compare",
                       help="finite-distance dsigma against the asymptotic |f|^2")
    _add_common(p)
    p.set_defaults(func=cmd_asympt_compare)

    p = sub.add_parser("sweep", help="batch run over a dimension list from a spec file")
    _add_common(p, grids=False)
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScatteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
