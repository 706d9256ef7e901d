"""Command-line interface: solvers and sweeps with machine-readable output.

Every subcommand emits either JSON lines (one object per line) or CSV with a
fixed header, all floating-point values rendered with 17 significant digits
so output is byte-deterministic and round-trips exactly.  Each record shape
(a spectrum level, a trace point, ...) has one JSON line template and one CSV
row template, built once from its fields; a command passes plain tuples, and
the lines are written one by one as they are rendered.

Exit codes: 0 for success, 2 for invalid parameters (including config/flag
parse problems), 3 for solver failures, 4 for an unexpected internal error
(one line on stderr, no traceback), 141 when the reader of stdout closed it
early; oracle-compare exits 1 when all solvers ran but a deviation exceeded
its tolerance.

Boundary-condition input is either the four angles (--xi/--rho/--mu/--nu),
the eigenphase pair (--theta-plus/--theta-minus), or the raw matrix entries
(--matrix).  A key=value config file (--config) supplies the subcommand's
long flags: each entry is parsed, typed and checked as its flag would be,
before the command line, whose flags win.  A key that is no long flag of the
subcommand exits 2.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import math
import os
import sys
from typing import IO, Iterable, Sequence

import numpy as np

from .anholonomy import PathSpec, trace_path, trajectory_shifts
from .boundary import (
    BoundaryCondition,
    boundary_residual,
    build_eigenfunction,
    current_mismatch,
    sample_eigenfunction,
)
from .errors import SolverError, ValidationError
from .isospectral import (
    SOLVER_CHANNEL,
    SOLVER_DETERMINANT,
    SOLVER_FD,
    SphereGrid,
    check_isospectral,
)
from .oracles import det_spectrum, fd_spectrum
from .spectrum import solve_spectrum
from .unitary import TWO_PI, UnitaryParams, matrix_to_params, params_to_matrix

__all__ = ["main"]

_SOLVER_ALIASES = {
    "channel": SOLVER_CHANNEL,
    "det": SOLVER_DETERMINANT,
    "determinant": SOLVER_DETERMINANT,
    "fd": SOLVER_FD,
}


class _Shape:
    """One record shape: a JSON line template and a CSV row template.

    ``fields`` maps each key the shape fills, in output order, to its JSON
    text: ``%d`` an int, ``%.17g`` a float, ``"%s"`` a name that needs no
    escaping (a channel, a kind, a solver), ``%s`` text spelled as output
    (a word ``true``/``false``, or a number formatted once for many rows),
    or a constant such as ``"point"`` or ``null``.
    The CSV row puts each field under its column of ``columns`` (the keys
    themselves by default) unquoted, with a blank for ``null`` and for the
    columns the shape leaves out.  Both templates take one tuple of the
    non-constant field values, in order.
    """

    def __init__(self, fields: dict[str, str], columns: Sequence[str] | None = None):
        columns = tuple(fields) if columns is None else columns
        self.fields = fields
        self.header = ",".join(columns) + "\n"
        self.json = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        cells = (fields.get(c, "null") for c in columns)
        self.csv = ",".join("" if v == "null" else v.strip('"') for v in cells) + "\n"


_D, _G, _S, _W = "%d", "%.17g", '"%s"', "%s"
_WORD = ("false", "true")  # _WORD[flag] spells a bool for a _W field

_LEVEL = _Shape(
    {"index": _D, "channel": _S, "kind": _S, "k_or_kappa": _G, "E": _G, "degenerate": _W}
)
# The det and fd solvers' levels belong to no channel.
_UNCHANNELED_LEVEL = _Shape({**_LEVEL.fields, "channel": "null"})
_EIGEN_META = _Shape(
    {"record": '"level"', **_LEVEL.fields, "residual": _G, "current_mismatch": _G}
)
_SAMPLE = _Shape({"x": _G, "re": _G, "im": _G})
_ISO = _Shape({
    "xi": _G, "rho": _G, "n_levels_checked": _D, "solver_used": _S, "grid_points": _D,
    "max_level_deviation": _G, "worst_mu": _G, "worst_nu": _G,
})
_TRACE_COLUMNS = (
    "record", "trajectory", "channel", "start_index", "end_index",
    "floored_out", "t", "E", "s_plus", "s_minus",
)
_TRAJECTORY = _Shape({
    "record": '"trajectory"', "trajectory": _D, "channel": _S, "start_index": _D,
    "end_index": _D, "floored_out": _W,
}, _TRACE_COLUMNS)
# A point's t comes as text, formatted once per op by _cmd_trace, and so
# does the one E of a stationary trajectory.
_POINT = _Shape({"record": '"point"', "trajectory": _D, "t": _W, "E": _G}, _TRACE_COLUMNS)
_STATIONARY_POINT = _Shape({**_POINT.fields, "E": _W}, _TRACE_COLUMNS)
_SUMMARY = _Shape({"record": '"summary"', "s_plus": _D, "s_minus": _D}, _TRACE_COLUMNS)
_COMPARE = _Shape(
    {"level": _D, "E_channel": _G, "E_det": _G, "E_fd": _G, "delta_det": _G, "delta_fd": _G}
)


def _write(out: IO[str], fmt: str, *parts: tuple[_Shape, Iterable[tuple]]) -> None:
    """Write (shape, rows) parts as one table; in CSV the first shape's header leads.

    The lines go out one by one through ``writelines``, so a reader that
    closes the pipe fails the next write.  One large write can instead end
    in a partial count that drops the error.
    """
    if fmt == "csv":
        out.write(parts[0][0].header)
    for shape, rows in parts:
        template = shape.csv if fmt == "csv" else shape.json
        out.writelines(template % row for row in rows)


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"config line is not key=value: {line!r}")
                key, _, value = line.partition("=")
                entries[key.strip().replace("_", "-")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    return entries


def _with_config(
    parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    """argv parsed again with the --config entries as flags before the command line's own.

    An entry is one ``--key=value`` token, so that a value such as -0.5 is
    not read as a flag, and the command line, parsed later, wins.  A key
    must be a dest of args with - for _: argparse alone would take a prefix,
    such as ``n`` for ``--n-interior``.
    """
    entries = _load_config(args.config)
    for key in entries:
        if key.replace("-", "_") not in vars(args):
            raise ValueError(f"config key {key!r}: {args.command} has no flag --{key}")
    at = argv.index(args.command) + 1
    flags = [f"--{key}={value}" for key, value in entries.items()]
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _parse_matrix(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 8:
        raise ValueError(
            "--matrix takes 8 comma-separated reals: "
            "u11re,u11im,u12re,u12im,u21re,u21im,u22re,u22im"
        )
    vals = [float(p) for p in parts]
    entries = [vals[i] + 1j * vals[i + 1] for i in range(0, 8, 2)]
    return np.array([entries[:2], entries[2:]])


def _defect_input(args: argparse.Namespace) -> tuple[UnitaryParams | None, np.ndarray]:
    """Resolve the three mutually exclusive ways of naming the defect matrix.

    Returns the angles as given, None for --matrix, and the matrix.  An
    angle not given is 0; absence is read from None, so a given -0.0 stays
    -0.0.
    """
    angles, thetas = (args.xi, args.rho), (args.theta_plus, args.theta_minus)
    angle_flags = angles != (None, None)
    theta_flags = thetas != (None, None)
    if args.matrix is not None:
        if angle_flags or theta_flags:
            raise ValueError("--matrix conflicts with angle flags")
        return None, _parse_matrix(args.matrix)
    if theta_flags:
        if angle_flags:
            raise ValueError("--theta-plus/--theta-minus conflict with --xi/--rho")
        tp, tm = (0.0 if t is None else t for t in thetas)
        xi = (0.5 * (tp + tm)) % TWO_PI
        rho = (0.5 * (tp - tm)) % TWO_PI
    else:
        xi, rho = (0.0 if a is None else a for a in angles)
    params = UnitaryParams(xi=xi, rho=rho, mu=args.mu, nu=args.nu)
    return params, params_to_matrix(params)


def _boundary_condition(args: argparse.Namespace) -> BoundaryCondition:
    _, u = _defect_input(args)
    return BoundaryCondition(u, l=args.l, L0=args.L0)


def _solver_name(args: argparse.Namespace) -> str:
    # Checked here, not by argparse choices, so that main returns 2 with one
    # line on stderr instead of raising SystemExit after argparse's usage.
    if args.solver not in _SOLVER_ALIASES:
        raise ValueError(f"unknown solver {args.solver!r} (choices: channel, det, fd)")
    return _SOLVER_ALIASES[args.solver]


def _cmd_spectrum(args: argparse.Namespace, out: IO[str]) -> int:
    bc, n = _boundary_condition(args), args.levels
    solver = _solver_name(args)
    if solver == SOLVER_CHANNEL:
        spec = solve_spectrum(bc, n)
    elif solver == SOLVER_DETERMINANT:
        spec = det_spectrum(bc, n, k_max=args.k_max)
    else:
        spec = fd_spectrum(bc, n, n_interior=args.n_interior)
    channel = () if spec.channel is None else (spec.channel.tolist(),)
    shape = _LEVEL if channel else _UNCHANNELED_LEVEL
    rows = zip(
        spec.index.tolist(), *channel, spec.kind.tolist(), spec.k_or_kappa.tolist(),
        spec.E.tolist(), [_WORD[p >= 0] for p in spec.partner.tolist()],
    )
    _write(out, args.format, (shape, rows))
    return 0


def _cmd_eigenfunction(args: argparse.Namespace, out: IO[str]) -> int:
    bc = _boundary_condition(args)
    index, samples = args.index, args.samples
    if index < 0:
        raise ValueError("--index must be nonnegative")
    if samples < 4:
        raise ValueError("--samples must be at least 4")
    if samples % 2:
        raise ValueError("--samples must be even: the points are split evenly over the two sides")
    level = solve_spectrum(bc, index + 1).levels[index]
    f = build_eigenfunction(bc, level)

    m = samples // 2
    left = np.linspace(-bc.l, 0.0, m, endpoint=False)
    right = np.linspace(bc.l, 0.0, m, endpoint=False)[::-1]
    grid = np.concatenate([left, right])
    values = sample_eigenfunction(f, grid)

    rows = zip(grid.tolist(), values.real.tolist(), values.imag.tolist())
    if args.format == "csv":
        _write(out, args.format, (_SAMPLE, rows))
        return 0
    v = f.boundary_vectors()
    meta = (
        level.index, level.channel, level.kind, level.k_or_kappa, level.E,
        _WORD[f.degenerate], boundary_residual(bc, v), current_mismatch(v),
    )
    _write(out, args.format, (_EIGEN_META, [meta]), (_SAMPLE, rows))
    return 0


def _cmd_isospectral(args: argparse.Namespace, out: IO[str]) -> int:
    # The sweep sets the frame (mu, nu) itself, so the defect is diagonal.
    params, _ = _defect_input(args)
    if params is None or params.mu or params.nu:
        raise ValueError("isospectral sweeps the frame (mu, nu) of a diagonal defect: "
                         "give no --mu, --nu or --matrix")
    grid = SphereGrid.default(n_mu_interior=args.grid_mu, n_nu=args.grid_nu)
    report = check_isospectral(
        (params.xi, params.rho),
        grid,
        n_levels=args.levels,
        solver=_solver_name(args),
        l=args.l,
        L0=args.L0,
        n_interior=args.n_interior,
    )
    record = (
        report.base_params.xi, report.base_params.rho, report.n_levels_checked,
        report.solver_used, len(grid), report.max_level_deviation, *report.worst_point,
    )
    _write(out, args.format, (_ISO, [record]))
    return 0


def _cmd_trace(args: argparse.Namespace, out: IO[str]) -> int:
    params, u = _defect_input(args)
    if params is None:
        params = matrix_to_params(u)
    winding = (args.w_plus, args.w_minus)
    path = PathSpec(
        winding=winding,
        base=params,
        n_steps=args.steps,
        levels_tracked=args.tracked,
        l=args.l,
        L0=args.L0,
    )
    trajectories = trace_path(path)
    s_plus, s_minus = trajectory_shifts(trajectories, winding)

    # The t values of every trajectory are a prefix of the longest one's; a
    # trajectory that floored out stops early, and it may come first.
    longest = max(trajectories, key=lambda tr: tr.t_values.size)
    t_text = [_G % t for t in longest.t_values.tolist()]
    parts = []
    for i, tr in enumerate(trajectories):
        header = (i, tr.channel, tr.start_index, tr.end_index, _WORD[tr.floored_out])
        parts.append((_TRAJECTORY, [header]))
        bits = tr.E_values.view(np.int64)  # bit for bit, so -0.0 is not 0.0
        if (bits == bits[0]).all():
            text = itertools.repeat(_G % tr.E_values[0].item(), bits.size)
            parts.append((_STATIONARY_POINT, zip(itertools.repeat(i), t_text, text)))
        else:
            parts.append((_POINT, zip(itertools.repeat(i), t_text, tr.E_values.tolist())))
    parts.append((_SUMMARY, [(s_plus, s_minus)]))
    _write(out, args.format, *parts)
    return 0


def _cmd_oracle_compare(args: argparse.Namespace, out: IO[str]) -> int:
    bc, n = _boundary_condition(args), args.levels
    tol_det, tol_fd = args.tol_det, args.tol_fd
    for flag, tol in (("--tol-det", tol_det), ("--tol-fd", tol_fd)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{flag} must be finite and nonnegative, got {tol!r}")
    e_channel = solve_spectrum(bc, n).E.tolist()
    e_det = det_spectrum(bc, n).E.tolist()
    e_fd = fd_spectrum(bc, n, n_interior=args.n_interior).E.tolist()

    ok = True
    rows = []
    for i in range(n):
        delta_det = abs(e_channel[i] - e_det[i])
        delta_fd = abs(e_channel[i] - e_fd[i]) / (1.0 + abs(e_channel[i]))
        ok = ok and delta_det <= tol_det and delta_fd <= tol_fd
        rows.append((i, e_channel[i], e_det[i], e_fd[i], delta_det, delta_fd))
    _write(out, args.format, (_COMPARE, rows))
    return 0 if ok else 1


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "eigenfunction": _cmd_eigenfunction,
    "isospectral": _cmd_isospectral,
    "trace": _cmd_trace,
    "oracle-compare": _cmd_oracle_compare,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser as it was, and
    # building it costs more than most subcommands.  Each default is written
    # once, here, and every help text reads it back.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--xi", type=float, help="overall phase angle (radians; 0 if not given)")
    common.add_argument("--rho", type=float,
                        help="eigenphase half-difference (radians; 0 if not given)")
    common.add_argument("--mu", type=float, default=0.0,
                        help="frame polar angle (radians, default %(default)s)")
    common.add_argument("--nu", type=float, default=0.0,
                        help="frame azimuthal angle (radians, default %(default)s)")
    common.add_argument("--theta-plus", type=float,
                        help="plus-channel eigenphase; sets xi/rho together with --theta-minus")
    common.add_argument("--theta-minus", type=float, help="minus-channel eigenphase")
    common.add_argument("--matrix",
                        help="defect matrix as 8 comma-separated reals (row-major re,im)")
    common.add_argument("--l", type=float, default=1.0,
                        help="half-width of the box (default %(default)s)")
    common.add_argument("--L0", type=float, default=1.0,
                        help="boundary length constant (default %(default)s)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default %(default)s)")
    common.add_argument("--output", help="write to this path instead of stdout")
    common.add_argument("--config", help="key=value file; each entry is parsed as its long flag, "
                                         "and the command line wins")
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("-n", "--levels", type=int, default=8,
                       help="level count (default %(default)s)")
    sizes.add_argument("--n-interior", type=int, default=256,
                       help="fd grid cells per side (default %(default)s)")
    solver_help = "channel | det | fd (default %(default)s)"

    parser = argparse.ArgumentParser(
        prog="defectline",
        description="Spectra of a particle in a box with one point defect labeled by U(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common, sizes],
                        help="lowest levels of one boundary condition")
    sp.add_argument("--solver", default="channel", help=solver_help)
    sp.add_argument("--k-max", type=float, help="ceiling on the det search")

    sp = sub.add_parser("eigenfunction", parents=[common],
                        help="sample one eigenfunction on a grid")
    sp.add_argument("--index", type=int, default=0,
                    help="level index in the merged spectrum (default %(default)s)")
    sp.add_argument("--samples", type=int, default=200,
                    help="total sample count, split over the two sides (default %(default)s)")

    sp = sub.add_parser("isospectral", parents=[common, sizes],
                        help="sweep the conjugation-frame sphere")
    sp.add_argument("--solver", default="det", help=solver_help)
    sp.add_argument("--grid-mu", type=int, default=8,
                    help="interior polar points between the poles (default %(default)s)")
    sp.add_argument("--grid-nu", type=int, default=8, help="azimuthal points (default %(default)s)")

    sp = sub.add_parser("trace", parents=[common],
                        help="continue levels around a closed eigenphase loop")
    sp.add_argument("--w-plus", type=int, default=0,
                    help="winding of theta_plus (default %(default)s)")
    sp.add_argument("--w-minus", type=int, default=0,
                    help="winding of theta_minus (default %(default)s)")
    sp.add_argument("--steps", type=int, default=256,
                    help="samples per loop: t runs 0..1 in steps of 1/steps; at least 64 "
                         "(default %(default)s)")
    sp.add_argument("--tracked", type=int, default=8, help="levels to track (default %(default)s)")

    sp = sub.add_parser("oracle-compare", parents=[common, sizes],
                        help="channel vs determinant vs fd on one system")
    sp.add_argument("--tol-det", type=float, default=1e-9,
                    help="absolute channel/det tolerance (default %(default)s)")
    sp.add_argument("--tol-fd", type=float, default=5e-3,
                    help="relative channel/fd tolerance (default %(default)s)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _with_config(parser, argv, args)
        handler = _HANDLERS[args.command]
        if args.output is None:
            code = handler(args, sys.stdout)
            sys.stdout.flush()
            return code
        # Render first, so a run that fails leaves an existing file untouched.
        rendered = io.StringIO()
        code = handler(args, rendered)
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                out.write(rendered.getvalue())
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output!r}: {exc}") from exc
        return code
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early, as `defectline trace ... | head -1`
        # does.  Point stdout at devnull so the flush at exit cannot raise
        # again, and exit as a process ended by SIGPIPE would: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except Exception as exc:
        # A defect, not a bad input or a solver that gave up: keep it apart
        # from exit 1 ("a deviation exceeded its tolerance").
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
