"""End-to-end tests of the command-line interface.

Everything goes through main(argv) so the tests cover flag parsing, config
handling, output formatting, and exit codes exactly as a shell user sees
them.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import defectline
from defectline import boundary, cli, isospectral, spectrum
from defectline import (
    BoundaryCondition,
    EigenLevel,
    UnitaryParams,
    level_eigenbasis,
    params_to_matrix,
    solve_spectrum,
)
from defectline.anholonomy import LevelTrajectory
from defectline.cli import main
from defectline.levels import Spectrum

PI = math.pi

README_ARGV = ("spectrum", "--xi", "2.0", "--rho", "0.9", "-n", "2")
README_STDOUT = (
    '{"index": 0, "channel": "minus", "kind": "positive", "k_or_kappa": 1.8852237200532831, '
    '"E": 3.5540684746515394, "degenerate": false}\n'
    '{"index": 0, "channel": "plus", "kind": "positive", "k_or_kappa": 2.8125884873330338, '
    '"E": 7.9106539990783231, "degenerate": false}\n'
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python_env():
    # The environment of a fresh interpreter that imports this checkout.
    src = str(Path(defectline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_python_env(), timeout=120
    )


def _json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# ------------------------------------------------------------------ spectrum


def test_spectrum_csv_anchor(capsys):
    code, out, _ = _run(
        capsys, "spectrum", "--theta-plus", repr(PI), "--theta-minus", repr(PI),
        "-n", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,channel,kind,k_or_kappa,E,degenerate"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[1] in ("plus", "minus") and first[2] == "positive"
    assert abs(float(first[4]) - PI**2) <= 1e-9
    assert first[5] == "true"  # Dirichlet levels come in degenerate pairs


def test_readme_spectrum_example_byte_identical(capsys):
    code, out, _ = _run(capsys, *README_ARGV)
    assert code == 0
    assert out == README_STDOUT


def test_every_python_block_of_the_readme_runs():
    # Each ```python block of README.md runs to its end in a fresh
    # interpreter that imports this checkout, with RuntimeWarning an error.
    readme = Path(defectline.__file__).resolve().parents[2] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        proc = _python("-W", "error::RuntimeWarning", "-c", block)
        assert (proc.returncode, proc.stderr) == (0, "")


def test_spectrum_theta_flags_match_angle_flags(capsys):
    code, out_theta, _ = _run(
        capsys, "spectrum", "--theta-plus", "3.0", "--theta-minus", "1.4", "-n", "5"
    )
    assert code == 0
    code, out_angle, _ = _run(capsys, "spectrum", "--xi", "2.2", "--rho", "0.8", "-n", "5")
    assert code == 0
    e_theta = [r["E"] for r in _json_lines(out_theta)]
    e_angle = [r["E"] for r in _json_lines(out_angle)]
    assert np.max(np.abs(np.array(e_theta) - e_angle)) <= 1e-12


def test_spectrum_det_solver_agrees_with_channel(capsys):
    args = ("--xi", "2.0", "--rho", "0.9", "--mu", "0.7", "--nu", "1.3", "-n", "6")
    code, out_ch, _ = _run(capsys, "spectrum", *args)
    assert code == 0
    code, out_det, _ = _run(capsys, "spectrum", *args, "--solver", "det")
    assert code == 0
    e_ch = np.array([r["E"] for r in _json_lines(out_ch)])
    e_det = np.array([r["E"] for r in _json_lines(out_det)])
    assert np.max(np.abs(e_ch - e_det)) <= 1e-9


def test_spectrum_fd_solver_output_shape(capsys):
    code, out, _ = _run(
        capsys, "spectrum", "--theta-plus", repr(PI), "--theta-minus", repr(PI),
        "-n", "2", "--solver", "fd", "--n-interior", "128",
    )
    assert code == 0
    recs = _json_lines(out)
    assert len(recs) == 2
    for rec in recs:
        assert rec["channel"] is None
        assert rec["kind"] == "positive"
        assert rec["degenerate"] is False
        assert abs(rec["E"] - PI**2) <= 0.05
        assert abs(rec["k_or_kappa"] - math.sqrt(rec["E"])) <= 1e-12


_BOTH_AT_THRESHOLD = ("--matrix=0,-1,0,0,0,0,0,-1",)
_PLUS_AT_THRESHOLD = ("--theta-plus=4.71238898038469", "--theta-minus=1.0")


@pytest.mark.parametrize(
    "solver, defect, zeros",
    [(s, _BOTH_AT_THRESHOLD, 2) for s in ("channel", "det", "fd")]
    + [(s, _PLUS_AT_THRESHOLD, 1) for s in ("channel", "det", "fd")],
    ids=["channel", "det", "fd", "channel-plus", "det-plus", "fd-plus"],
)
def test_every_solver_names_an_exact_zero_level_zero(capsys, solver, defect, zeros):
    # U = -i I on l = L0 = 1 puts both channels at the threshold T = 0, and
    # theta+ = 3 pi / 2 to 15 digits the plus channel alone: each solver
    # finds E = 0 exactly, and one rule names such a level "zero".
    code, out, _ = _run(capsys, "spectrum", "--solver", solver, *defect, "-n", "2")
    assert code == 0
    recs = _json_lines(out)
    assert [(r["kind"], r["E"], r["k_or_kappa"]) for r in recs[:zeros]] == [("zero", 0, 0)] * zeros
    assert all(r["kind"] == "positive" for r in recs[zeros:])


def test_spectrum_json_round_trips_library_floats(capsys):
    code, out, _ = _run(capsys, "spectrum", "--xi", "2.2", "--rho", "0.8", "-n", "5")
    assert code == 0
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.2, 0.8)))
    expected = solve_spectrum(bc, 5).levels
    for rec, lev in zip(_json_lines(out), expected):
        assert rec["E"] == lev.E  # 17 significant digits reproduce the double
        assert rec["k_or_kappa"] == lev.k_or_kappa
        assert rec["channel"] == lev.channel and rec["index"] == lev.index


def test_spectrum_command_solves_one_batch_and_builds_no_level(capsys, monkeypatch):
    # Both channels go through one solve_channels call, and the rows come
    # from the spectrum's columns, not from EigenLevel objects.
    real = spectrum.solve_channels
    depths, built = [], []

    def counted(thetas, n, l, L0):
        depths.append(n)
        return real(thetas, n, l, L0)

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    real_init = EigenLevel.__init__
    monkeypatch.setattr(spectrum, "solve_channels", counted)
    monkeypatch.setattr(EigenLevel, "__init__", init)
    argv = ("--xi", "2.0", "--rho", "0.9", "--mu", "0.7", "--nu", "1.3", "-n", "2000")
    code, out, _ = _run(capsys, "spectrum", *argv)
    assert code == 0 and out.count("\n") == 2000
    assert depths == [1002]
    assert built == []
    # The counter sees the levels a library caller asks for.
    solve_spectrum(BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.9))), 3).levels
    assert len(built) == 3


@st.composite
def spectrum_defects(draw):
    """(xi, rho, mu, nu, l, L0, region): the plus channel generic, on the
    threshold T = 0 or with its bound level within 20 % of the kappa l = 50
    floor, or rho = 0 or pi, where the two channels coincide."""
    lengths = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    l, L0 = draw(lengths), draw(lengths)
    mu, nu = draw(st.floats(0.0, PI)), draw(st.floats(0.0, 2.0 * PI))
    region = draw(st.sampled_from(["degenerate", "threshold", "floor", "generic"]))
    if region == "degenerate":
        return draw(st.floats(0.0, 2.0 * PI)), draw(st.sampled_from([0.0, PI])), mu, nu, l, L0, region
    rho = draw(st.floats(0.0, PI))
    if region == "threshold":
        theta = 2.0 * math.atan2(L0, -l)  # l sin(theta/2) = -L0 cos(theta/2)
    elif region == "floor":
        theta = 2.0 * (PI - math.atan(50.0 * L0 / (l * draw(st.floats(0.8, 1.2)))))
    else:
        theta = draw(st.floats(0.0, 2.0 * PI))
    return theta - rho, rho, mu, nu, l, L0, region


def _reference_level_lines(levels, fmt):
    # Each level's row tuple read from its EigenLevel, rendered without the
    # CLI's templates.
    rows = [
        (lv.index, lv.channel, lv.kind, format(lv.k_or_kappa, ".17g"), format(lv.E, ".17g"),
         "false" if lv.degenerate_with is None else "true")
        for lv in levels
    ]
    if fmt == "csv":
        lines = [",".join(str(v) for v in row) for row in rows]
        return "index,channel,kind,k_or_kappa,E,degenerate\n" + "".join(f"{x}\n" for x in lines)
    return "".join(
        '{"index": %d, "channel": "%s", "kind": "%s", "k_or_kappa": %s, "E": %s, '
        '"degenerate": %s}\n' % row
        for row in rows
    )


@given(spectrum_defects(), st.one_of(st.integers(1, 80), st.integers(80, 600)))
def test_spectrum_rows_from_columns_equal_the_per_level_rendering(defect, n):
    xi, rho, mu, nu, l, L0, region = defect
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, mu, nu)), l=l, L0=L0)
    levels = solve_spectrum(bc, n).levels
    # --flag=value: argparse takes a lone "-1.2e-07" for an option.
    flags = [f"--{k}={v!r}" for k, v in zip(("xi", "rho", "mu", "nu", "l", "L0"), defect)]
    argv = ["spectrum", *flags, "-n", str(n)]
    for fmt in ("json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--format", fmt]) == 0
        assert out.getvalue() == _reference_level_lines(levels, fmt)
    if region == "degenerate":
        # Every level pairs with its twin in the other channel, the n-th
        # level too, whose twin may lie past the cut.
        assert all(lv.degenerate_with is not None for lv in levels)


@given(spectrum_defects(), st.integers(1, 40))
def test_degenerate_is_decided_once_by_the_solver(defect, n):
    # An eigenfunction pair exactly where the solver named a partner, and
    # the flags of the lowest n levels do not depend on where the list is cut.
    xi, rho, mu, nu, l, L0, _ = defect
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, mu, nu)), l=l, L0=L0)
    levels = solve_spectrum(bc, n).levels
    for lv in levels:
        assert (len(level_eigenbasis(bc, lv)) == 2) == (lv.degenerate_with is not None)
    deeper = solve_spectrum(bc, n + 5).levels[:n]
    assert [lv.degenerate_with for lv in levels] == [lv.degenerate_with for lv in deeper]


@pytest.mark.parametrize("rho", ["1e-7", "1e-9"])
def test_spectrum_and_eigenfunction_print_the_same_flag(capsys, rho):
    _, out, _ = _run(capsys, "spectrum", "--xi", "2.0", "--rho", rho, "-n", "2")
    flags = [line["degenerate"] for line in _json_lines(out)]
    for index, flag in enumerate(flags):
        _, out, _ = _run(
            capsys, "eigenfunction", "--xi", "2.0", "--rho", rho, "--index", str(index),
            "--samples", "4",
        )
        assert _json_lines(out)[0]["degenerate"] == flag


@pytest.mark.parametrize("solver", ["channel", "det"])
def test_flags_do_not_depend_on_the_level_count(capsys, solver):
    # At rho = 0 every level pairs; the third is the first of its pair, and
    # its twin lies past a cut at -n 3.
    flags = []
    for n in ("3", "4"):
        _, out, _ = _run(capsys, "spectrum", "--solver", solver, "--xi", "2.0", "--rho", "0",
                         "-n", n)
        flags.append([line["degenerate"] for line in _json_lines(out)])
    assert flags[0] == flags[1][:3] == [True, True, True]


# -------------------------------------------------------------- eigenfunction


def test_eigenfunction_json_meta_and_walls(capsys):
    code, out, _ = _run(
        capsys, "eigenfunction", "--xi", "2.0", "--rho", "0.9", "--index", "1",
        "--samples", "40",
    )
    assert code == 0
    recs = _json_lines(out)
    meta, rows = recs[0], recs[1:]
    # "index" is the level's rung on its own channel ladder, so resolve the
    # merged position through the library to compare
    lev = solve_spectrum(BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.9))), 2).levels[1]
    assert meta["record"] == "level"
    assert meta["index"] == lev.index and meta["channel"] == lev.channel
    assert meta["E"] == lev.E
    assert meta["residual"] <= 1e-8
    assert meta["current_mismatch"] <= 1e-10
    assert len(rows) == 40
    xs = [r["x"] for r in rows]
    assert xs == sorted(xs)
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert rows[0]["re"] == 0.0 and rows[0]["im"] == 0.0  # hard wall
    assert rows[-1]["re"] == 0.0 and rows[-1]["im"] == 0.0
    assert 0.0 not in xs  # the defect point itself is never sampled


def test_eigenfunction_csv_header_and_count(capsys):
    code, out, _ = _run(
        capsys, "eigenfunction", "--theta-plus", "1.0", "--theta-minus", "4.0",
        "--format", "csv", "--samples", "12",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 13


def test_eigenfunction_validation_exit_codes(capsys):
    code, _, err = _run(capsys, "eigenfunction", "--xi", "1.0", "--index", "-1")
    assert code == 2 and "index" in err
    code, _, err = _run(capsys, "eigenfunction", "--xi", "1.0", "--samples", "3")
    assert code == 2 and "samples" in err


def test_eigenfunction_rejects_odd_samples(capsys):
    # The points are split evenly over the two sides, so an odd count has no
    # honest meaning; it used to be rounded down silently.
    code, out, err = _run(capsys, "eigenfunction", "--xi", "1.0", "--samples", "41")
    assert code == 2 and "even" in err and out == ""
    code, out, _ = _run(capsys, "eigenfunction", "--xi", "1.0", "--samples", "42")
    assert code == 0 and len(_json_lines(out)) == 43


def test_eigenfunction_of_a_near_degenerate_minus_level_gets_its_own_channel(capsys):
    # M(k) has collapsed at this pair (rho ~ 7e-8), so the eigenfunction comes
    # from the frame of U; the minus level got the plus direction, and its
    # junction residual was 1.3e-6.
    matrix = (
        "0.60675095821510128,-0.79489198933254679,5.3944551062223844e-08,"
        "1.0076122436419865e-08,2.3944993987612406e-08,4.9377931243821394e-08,"
        "0.60675087614826029,-0.79489205197518209"
    )
    code, out, _ = _run(
        capsys, "eigenfunction", f"--matrix={matrix}", "--l=0.033398175489239387",
        "--L0=7.9043639411621909", "--index=7", "--samples=64",
    )
    assert code == 0
    meta = _json_lines(out)[0]
    assert meta["channel"] == "minus" and meta["degenerate"]
    assert meta["residual"] <= 1e-8


def test_eigenfunction_accepts_a_level_whose_k_rounds_near_kl_pi_half(capsys):
    # At L0 = 1e12 the level sits at kl ~ pi/2, where der = k cos(kl) is near
    # 0 and the rounding of k moves L0 der by about eps L0 k^2 l = 5e-4,
    # which the acceptance scale of level_eigenbasis now holds.
    box = ("--l", "1", "--L0", "1e12", "--xi", "2", "--rho", "0.9")
    code, out, err = _run(capsys, "eigenfunction", "--samples", "8", *box, "--index", "0")
    assert (code, err) == (0, "")
    meta = _json_lines(out)[0]
    _, spectrum_out, _ = _run(capsys, "spectrum", *box, "-n", "1")
    level = _json_lines(spectrum_out)[0]
    assert {key: meta[key] for key in level} == level
    assert level["k_or_kappa"] == 1.5707963267952871


def test_eigenfunction_of_a_level_that_fails_its_check_is_a_solver_failure(capsys, monkeypatch):
    # The level is the channel solver's own, so a rejected one exits 3, not 2.
    monkeypatch.setattr(boundary, "EIGEN_TOL", 0.0)
    monkeypatch.setattr(boundary, "_EPS", 0.0)
    code, out, err = _run(capsys, "eigenfunction", "--xi", "2", "--rho", "0.9", "--samples", "4")
    assert (code, out) == (3, "")
    assert err.startswith("solver failure: k=") and "is not an eigenvalue" in err


# ---------------------------------------------------------------- isospectral


def test_isospectral_scalar_family_collapses(capsys):
    code, out, _ = _run(
        capsys, "isospectral", "--xi", "1.3", "--rho", "0.0",
        "--grid-mu", "2", "--grid-nu", "2", "-n", "3", "--solver", "det",
    )
    assert code == 0
    (rec,) = _json_lines(out)
    assert rec["solver_used"] == "determinant"
    assert rec["grid_points"] == 6
    assert rec["n_levels_checked"] == 3
    assert rec["max_level_deviation"] <= 1e-10
    assert rec["xi"] == 1.3 and rec["rho"] == 0.0


def test_isospectral_channel_sweep(capsys):
    code, out, _ = _run(
        capsys, "isospectral", "--xi", "2.6", "--rho", "1.1",
        "--grid-mu", "3", "--grid-nu", "4", "-n", "4", "--solver", "channel",
    )
    assert code == 0
    (rec,) = _json_lines(out)
    assert rec["max_level_deviation"] <= 1e-12
    assert rec["grid_points"] == 14


@pytest.mark.parametrize(
    "flags, n",
    [
        (("--xi=2.139977602927126", "--rho=3.0776938775289864e-08", "--l=3.8595456420966068",
          "--L0=0.40248693474074443", "--grid-mu=1", "--grid-nu=3"), 5),
        (("--xi=2.576902186560857", "--rho=3.1425511526350647e-08", "--l=0.57308882351229795",
          "--L0=0.13722143798420053", "--grid-mu=2", "--grid-nu=2"), 7),
    ],
)
def test_isospectral_near_degenerate_frames_agree(capsys, flags, n):
    # rho ~ 3e-8 leaves pairs that det cannot split within the rounding of
    # g; every frame must still report them alike, within the isospectral
    # gate 1e-8 max(1, 1/l^2).
    code, out, _ = _run(capsys, "isospectral", *flags, "-n", str(n))
    assert code == 0
    (rec,) = _json_lines(out)
    assert rec["solver_used"] == "determinant"
    l = float(flags[2].split("=")[1])
    assert rec["max_level_deviation"] <= 1e-8 * max(1.0, 1.0 / (l * l))


def test_isospectral_reads_the_eigenphase_flags(capsys):
    # --theta-plus/--theta-minus name the diagonal defect (xi, rho) they name
    # for every other subcommand, not xi = rho = 0.
    sweep = ("-n", "2", "--grid-mu", "1", "--grid-nu", "1")
    code, out, err = _run(capsys, "isospectral", "--theta-plus", "3.0", "--theta-minus", "1.4", *sweep)
    assert (code, err) == (0, "")
    xi, rho = 0.5 * (3.0 + 1.4), 0.5 * (3.0 - 1.4)
    (rec,) = _json_lines(out)
    assert (rec["xi"], rec["rho"]) == (xi, rho)
    assert _run(capsys, "isospectral", "--xi", repr(xi), "--rho", repr(rho), *sweep) == (0, out, "")


@pytest.mark.parametrize(
    "flags", [("--xi", "2.0", "--mu", "0.3"), ("--xi", "2.0", "--nu", "1.0"),
              ("--matrix", "1,0,0,0,0,0,1,0"), ("--config", "matrix.cfg")],
)
def test_isospectral_rejects_a_frame_or_a_matrix(capsys, tmp_path, monkeypatch, flags):
    # The sweep sets the frame itself; a frame or a matrix given with the
    # defect would be dropped without a word.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "matrix.cfg").write_text("matrix = 1,0,0,0,0,0,1,0\n")
    code, out, err = _run(capsys, "isospectral", *flags, "-n", "2", "--grid-mu", "1", "--grid-nu", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--matrix" in err


# ---------------------------------------------------------------------- trace


def test_trace_trivial_loop_summary(capsys):
    code, out, _ = _run(
        capsys, "trace", "--xi", "2.2", "--rho", "0.8",
        "--steps", "128", "--tracked", "4",
    )
    assert code == 0
    recs = _json_lines(out)
    summary = recs[-1]
    assert summary["record"] == "summary"
    assert summary["s_plus"] == 0 and summary["s_minus"] == 0
    headers = [r for r in recs if r["record"] == "trajectory"]
    points = [r for r in recs if r["record"] == "point"]
    assert len(headers) == 4
    assert all(h["end_index"] == h["start_index"] for h in headers)
    assert len(points) >= 4 * 129
    assert all(0.0 <= p["t"] <= 1.0 for p in points)


def test_trace_winding_shifts_csv(capsys):
    code, out, _ = _run(
        capsys, "trace", "--xi", "2.2", "--rho", "0.8",
        "--steps", "128", "--tracked", "4", "--w-plus", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("record,trajectory,channel")
    last = lines[-1].split(",")
    assert last[0] == "summary"
    assert last[-2:] == ["1", "0"]  # s_plus, s_minus


def test_trace_accepts_a_scalar_defect(capsys):
    # rho = 0 gives both channels one ladder, so every tracked level ties
    # with one of the other channel; the split follows the spectrum's merge.
    code, out, err = _run(capsys, "trace", "--w-plus", "1", "--xi", "1", "--rho", "0",
                          "--tracked", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == '{"record": "summary", "s_plus": 1, "s_minus": 0}'


# The sha256 of stdout, recorded before the loop and det root refiners moved
# to scalar residuals and stationary channels stopped being re-solved; every
# change there must leave these bytes as they are.  iso-bound was recorded
# again when det's bound roots came to be bracketed by Q's ends and vertex
# instead of a kappa grid, which moves their last bits: its
# max_level_deviation went from 7.1e-15 to 1.4e-14.  iso and iso-bound were
# recorded again when det M came to be evaluated in centred form and its
# positive roots bracketed by knots instead of a k grid: max_level_deviation
# went from 7.1e-15 to 8.9e-16 (iso) and from 1.4e-14 to 7.1e-15 (iso-bound).
# iso-bound was recorded again when det's bound roots came to be refined on
# brackets of one walk in the signed wavenumber, cut at E = 0: its
# max_level_deviation went from 7.1e-15 to 3.6e-15, and det's largest error
# against the 50-digit referee over its 14 frames from 5.0e-14 to 1.8e-13.
# trace-1-0-bound was recorded again when the bound level and label 0 came
# to be solved by Newton's method in x = kappa l or kl: its points of E < 0
# and of label 0 moved by up to 5e-14 (relative), and no other value.
# iso-bound was recorded again when det's knots below E = 0 and on branch 0
# came to be placed by the walk's one Brent solve on c sigma - s tau, as
# FD's are: its max_level_deviation went from 3.6e-15 to 7.1e-15, its worst
# point from (pi/4, 0) to (pi/2, 3 pi/2), and det's largest error against
# the 50-digit referee over its 14 frames from 1.79e-13 to 1.78e-13.
# iso and iso-bound were recorded again when det came to refine every root
# beside a turn's vertex in t = ((y - v) / (far - v))^2, to a few ulps of y:
# iso's max_level_deviation went from 8.9e-16 to 0, and iso-bound's stayed
# 7.1e-15 with its worst point moved from (pi/2, 3 pi/2) to (pi/4, pi).
PINNED_STDOUT_SHA256 = [
    (
        ("trace", "--theta-plus", "3.5", "--theta-minus", "1.0", "--w-plus", "1",
         "--steps", "64", "--tracked", "4"),
        "dac847f41aad01b871453444afaa6f1511acbb776087676d7039776ed3e3ae40",
    ),
    (
        ("trace", "--xi", "2.2", "--rho", "0.8", "--L0", "0.3", "--steps", "64", "--tracked", "4"),
        "b00004651fc45e8acae01fd1e122ec9e5a0b8097c26b056f629cfcd9562d91f2",
    ),
    (
        ("isospectral", "--xi", "2.0", "--rho", "0.9", "-n", "4", "--grid-mu", "2",
         "--grid-nu", "3"),
        "9fa88cc1bb0c8609e328d4af893fe087a5832743ecc8388d8e7ee811f0860d92",
    ),
    (
        ("isospectral", "--xi", "3.6", "--rho", "0.5", "-n", "6", "--l", "2.0", "--L0", "0.5",
         "--grid-mu", "3", "--grid-nu", "4"),
        "8a8da07529f764665981400922632d924b900b65d894bf3e9ea647cbb9aeb785",
    ),
]


def _at_block_sizes(cases, ids):
    # Each case at the writer's own block size, under its own id, and at
    # blocks of 1 and 7 lines: the bytes must not depend on where blocks end.
    return [
        pytest.param(*case, block, id=name if block == cli._BLOCK else f"{name}-block-{block}")
        for case, name in zip(cases, ids) for block in (cli._BLOCK, 1, 7)
    ]


@pytest.mark.parametrize(
    "argv, digest, block",
    _at_block_sizes(PINNED_STDOUT_SHA256, ["trace-1-0-bound", "trace-0-0", "iso", "iso-bound"]),
)
def test_geometry_stdout_is_pinned(capsys, monkeypatch, argv, digest, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The sha256 of stdout, recorded before long ladders moved to lock-step Brent
# and channels to the verified merge depth: a generic defect with a bound
# state, an exact threshold (T = 0 in the plus channel) and rho = 0, where
# every level is a degenerate pair.
PINNED_LADDER_SHA256 = [
    (
        ("spectrum", "--xi", "2.7", "--rho", "1.3", "--l", "1.5", "--L0", "0.4", "-n", "2000"),
        "815d4ed4ba8b1cd845a57ff4c6cd5a6f74eb0a621c92a35ecbeb29ab0cc73561",
    ),
    (
        ("spectrum", "--theta-plus", "4.71238898038469", "--theta-minus", "1.0", "-n", "512"),
        "9cc649a979516d1585b735e8178ab72f7bf90d736a52ba27ba12407c5b25ad67",
    ),
    (
        ("spectrum", "--xi", "2.0", "--rho", "0.0", "-n", "64"),
        "4a81e6d2a655e56be6a1af0fdc86e3057091ea8a72c6d3574d6180638a6106cd",
    ),
]


@pytest.mark.parametrize(
    "argv, digest, block",
    _at_block_sizes(PINNED_LADDER_SHA256, ["generic-2000", "threshold-512", "rho0-64"]),
)
def test_ladder_stdout_is_pinned(capsys, monkeypatch, argv, digest, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The sha256 of stdout and the exit code, recorded before the writer moved
# from per-field converters to one line template per record shape: every
# shape in both formats, the channel-less det and fd levels, degenerate
# pairs, a trajectory that leaves through the floor, and both exit codes of
# oracle-compare.  iso-csv and the three oracle-compare pins were recorded
# again when det M came to be evaluated in centred form and its positive
# roots bracketed by knots: E_det moved in its last bits (delta_det of
# level 0 went from 2.9e-14 to 5.0e-14), and every gate and exit code held.
# The two fd pins and the three oracle-compare pins were recorded again when
# FD came to solve its own secular equation in place of LAPACK bisection:
# E_fd moved by up to 3.0e-13 relative, to within rounding of the 50-digit
# roots, and every exit code held.  The two fd pins were recorded again when
# FD came to place its knots above E = 0 by Newton's method and at piece
# ends: E_fd of level 5 moved by 1.6e-14 in E l^2, within Brent's tolerance.
# The trace-floored, trace-floored-first and trace-two-moving pins were
# recorded again when the bound level and label 0 came to be solved by
# Newton's method: only their points of E < 0 and of label 0 moved.  The
# two fd pins, iso-csv and the three oracle-compare pins were recorded again
# when det and FD came to refine every root beside a turn's vertex in
# t = ((y - v) / (far - v))^2, to a few ulps of y: E_fd moved by at most
# 6.2e-16 relative (2.7258826913456273 -> ...256 against the referee's
# ...264), E_det of level 0 by 11 ulps, onto the 50-digit root's double,
# and of level 1 by 3 ulps, iso-csv as iso did, and every exit code held.
PINNED_OUTPUT_SHA256 = [
    (
        ("spectrum", "--xi", "2.7", "--rho", "1.3", "--l", "1.5", "--L0", "0.4", "-n", "64",
         "--format", "csv"),
        0, "1cc337af4514f6dca02ab627616b5f9af6a3cd7ae5a381854293fdc6bfbed916",
    ),
    (
        ("spectrum", "--xi", "2.0", "--rho", "0.0", "-n", "16", "--format", "csv"),
        0, "b6d89d5f452583e90cb3baa3c5ab9f5bd766cce15edcf6b9cfae9d0dad0bdf96",
    ),
    (
        ("spectrum", "--solver", "det", "--xi", "2.0", "--rho", "0.0", "-n", "8"),
        0, "29e54118d891f0a386625b3647cc389d7b94e8c06d498b808549d0486f9c7768",
    ),
    (
        ("spectrum", "--xi", "2.7", "--rho", "1.3", "--l", "1.5", "--L0", "0.4", "-n", "6",
         "--solver", "fd", "--n-interior", "128"),
        0, "e8a9c291c23c96ca063e0713363e77a562467657e5ab649ff0b6232690e29415",
    ),
    (
        ("spectrum", "--xi", "2.7", "--rho", "1.3", "--l", "1.5", "--L0", "0.4", "-n", "6",
         "--solver", "fd", "--n-interior", "128", "--format", "csv"),
        0, "e4b2147565c565009b3cee5dd708fcffea2e0a0aca18a2d66ef2d0261e956fbf",
    ),
    (
        ("eigenfunction", "--xi", "2.0", "--rho", "0.9", "--index", "1", "--samples", "40"),
        0, "7e1b46ee362b5678f8db5bbe472f2aa2a437c943cf326c29d82435f58e05e6ad",
    ),
    (
        ("eigenfunction", "--xi", "2.0", "--rho", "0.0", "--index", "1", "--samples", "16"),
        0, "0d7fc656c359680f56e2fabd98b284bc3738da6aa12fc3961c8462e008d7284e",
    ),
    (
        ("eigenfunction", "--theta-plus", "1.0", "--theta-minus", "4.0", "--samples", "12",
         "--format", "csv"),
        # The amplitude pair is the frame column of U, whose rot_y(pi) carries
        # cos(pi/2) ~ 6.1e-17: the dead side reads up to 9.2e-17, not 0.
        0, "4220b853f1d4a328c24fc9895e456b0fb516bbb7ea32d6c139997046b58ccf63",
    ),
    (
        ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "1", "--steps", "64",
         "--tracked", "4", "--format", "csv"),
        0, "91ef1c7552bd5624c317f89f725a63d27bbb337bdfa2fa6bd7d5d15868f1dd0c",
    ),
    (
        ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "-1", "--steps", "128",
         "--tracked", "6"),
        0, "dce1bf5cb8a0de37264732cc35e91a455ae1d5b09b88aaf225a476eca37865e8",
    ),
    (
        ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "-1", "--steps", "128",
         "--tracked", "6", "--format", "csv"),
        0, "d6443485d8621bd934d2a7bf95b7c7ab5c978580349e12106611f5f485b28609",
    ),
    # The first trajectory leaves through the floor, so it is the shortest:
    # the points of the others need the t values it never reaches.
    (
        ("trace", "--xi", "0.5", "--rho", "0.4", "--w-minus", "-1", "--steps", "64",
         "--tracked", "4"),
        0, "b4e11349b3902f4e73fb07580b71ba4519dad1a1436999eadf63d9d3ae7e37c5",
    ),
    (
        ("trace", "--xi", "0.5", "--rho", "0.4", "--w-minus", "-1", "--steps", "64",
         "--tracked", "4", "--format", "csv"),
        0, "b9218a7abcd7e3eb5100a78d65992e529490f03e89a6af8abb51152b4ec2deda",
    ),
    # Both channels move and |w| = 2: two plus levels leave through the
    # floor and E reaches -304.
    (
        ("trace", "--xi", "0.5", "--rho", "0.4", "--w-plus", "-2", "--w-minus", "1",
         "--steps", "64", "--tracked", "6"),
        0, "6a21d5229f2d7b6f8dc7cd4a47d9dd361f5141e404996a0f897690721ba7c3ee",
    ),
    (
        ("trace", "--xi", "0.5", "--rho", "0.4", "--w-plus", "-2", "--w-minus", "1",
         "--steps", "64", "--tracked", "6", "--format", "csv"),
        0, "f2fff4dd45309c215fa565f653f282b3ae853a0d48cee9b656d3db54d2e17bb0",
    ),
    (
        ("trace", "--xi", "0.5", "--rho", "0.4", "--w-plus", "2", "--w-minus", "-1",
         "--steps", "64", "--tracked", "6"),
        0, "9516dcdd61c6728b4fe63077e32b3b0f35e21dbe0835978ee5664bb913e52f2a",
    ),
    (
        ("isospectral", "--xi", "2.0", "--rho", "0.9", "-n", "4", "--grid-mu", "2",
         "--grid-nu", "3", "--format", "csv"),
        0, "ada71150ab3723a11d4bb4d05b0b80e2de39cf20c5bb8ace8bc1357e79e176be",
    ),
    (
        ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "4", "--n-interior", "128"),
        0, "7204da104a5e817cb2fb26d923d77cdd5ffd20e6098e2aebd0ca3801fa29941e",
    ),
    (
        ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "3", "--n-interior", "128",
         "--tol-fd", "1e-18"),
        1, "a4b2a98f0b3f20da786e1530abb331743c33fea44e19ee35e7e5aa53a961b58a",
    ),
    (
        ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "3", "--n-interior", "128",
         "--tol-fd", "1e-18", "--format", "csv"),
        1, "0ca1b1756399b23ecd31265b0ddcee10fe2991b8734b511b422a1ee45d1e8959",
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest, block",
    _at_block_sizes(PINNED_OUTPUT_SHA256, [
        "spectrum-csv", "spectrum-csv-degenerate", "spectrum-det-degenerate", "spectrum-fd",
        "spectrum-fd-csv", "eigenfunction", "eigenfunction-degenerate", "eigenfunction-csv",
        "trace-csv", "trace-floored", "trace-floored-csv", "trace-floored-first",
        "trace-floored-first-csv", "trace-two-moving", "trace-two-moving-csv",
        "trace-two-moving-reversed", "iso-csv", "compare-pass",
        "compare-fail", "compare-fail-csv",
    ]),
)
def test_output_is_pinned(capsys, monkeypatch, argv, code, digest, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    got, out, _ = _run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_trace_has_a_trajectory_that_leaves_through_the_floor(capsys):
    argv = next(argv for argv, _, _ in PINNED_OUTPUT_SHA256 if "-1" in argv)
    _, out, _ = _run(capsys, *argv)
    floored = [r for r in _json_lines(out) if r.get("floored_out")]
    assert [(r["channel"], r["end_index"]) for r in floored] == [("plus", -1)]


def test_trace_reports_the_winding_where_a_level_jumps_a_rung_at_the_floor(capsys):
    # The step tracker printed s_plus 0 here at the default 256 steps.
    code, out, _ = _run(capsys, "trace", "--xi", "1", "--rho", "0.4", "--w-plus", "1",
                        "--l", "0.1", "--L0", "10")
    assert code == 0
    assert out.splitlines()[-1] == '{"record": "summary", "s_plus": 1, "s_minus": 0}'


def test_trace_pinned_loop_passes_a_bound_state(capsys):
    _, out, _ = _run(capsys, *PINNED_STDOUT_SHA256[0][0])
    assert min(r["E"] for r in _json_lines(out) if r["record"] == "point") < 0.0


# ------------------------------------------------------------- oracle-compare


def test_oracle_compare_pass(capsys):
    code, out, _ = _run(
        capsys, "oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "4",
        "--n-interior", "256",
    )
    assert code == 0
    recs = _json_lines(out)
    assert len(recs) == 4
    for rec in recs:
        assert rec["delta_det"] <= 1e-9
        assert rec["delta_fd"] <= 5e-3
        assert set(rec) == {"level", "E_channel", "E_det", "E_fd", "delta_det", "delta_fd"}


def test_oracle_compare_drops_fd_levels_below_the_floor(capsys):
    # theta_plus = 3.1716 binds a level near kappa l = 67, past the kappa l = 50
    # floor that the channel and det solvers apply; FD must drop it too.
    code, out, _ = _run(
        capsys, "oracle-compare", "--theta-plus", "3.1716", "--theta-minus", "1.0", "-n", "3"
    )
    assert code == 0
    recs = _json_lines(out)
    assert abs(recs[0]["E_fd"] - 3.448) <= 1e-3
    assert all(rec["E_fd"] > 0.0 for rec in recs)


def test_spectrum_fd_keeps_a_deep_bound_level_above_the_floor(capsys):
    # The channel solver puts level 0 at E = -2400082.34, above the floor at
    # -3.75e6.  ARPACK returned its FD level with Im E = -1.8e-6, and an
    # absolute cut on Im E dropped it, so the listing began at E = 3692.86.
    code, out, _ = _run(
        capsys, "spectrum", "--solver", "fd", "--xi=1.009284142267851",
        "--rho=2.132410029070367", "--mu=0.6575223573499008", "--nu=4.097164349480726",
        "--l=0.02583525537182708", "--L0=12.716715271389214", "-n", "3",
    )
    assert code == 0
    recs = _json_lines(out)
    assert recs[0]["kind"] == "bound"
    assert abs(recs[0]["E"] + 2440847.04) <= 1e-6 * 2440847.04
    assert abs(recs[1]["E"] - 3692.858) <= 1e-3


def test_oracle_compare_splits_a_pair_an_svd_called_double(capsys):
    # theta_plus - theta_minus = 2 pi - 1.6e-5: a pair 1.4e-5 apart at
    # E = 27.61, which det reported as one double level.
    code, out, _ = _run(
        capsys, "oracle-compare", "--theta-plus=7.7412989671557257",
        "--theta-minus=1.4581292193409974", "--mu=3.086216477455463",
        "--nu=4.0371059576406383", "--l=0.30384016468050612", "--L0=6.6044822340053457",
        "-n", "5", "--n-interior=64",
    )
    assert code == 0
    assert max(rec["delta_det"] for rec in _json_lines(out)) <= 1e-9


def test_oracle_compare_fails_on_unreachable_tolerance(capsys):
    code, out, _ = _run(
        capsys, "oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "3",
        "--n-interior", "128", "--tol-fd", "1e-18",
    )
    assert code == 1
    assert len(_json_lines(out)) == 3  # the table is still written in full


def test_oracle_compare_fd_level_does_not_depend_on_the_level_count(capsys):
    # Level 0 is refined on its own bracket of the FD secular equation, so
    # its doubles cannot depend on how many levels are asked for.
    argv = ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "--n-interior", "128")
    first = [_run(capsys, *argv, "-n", n)[1].splitlines()[0] for n in ("3", "4")]
    assert first[0] == first[1]


def test_oracle_compare_past_the_band_edge_is_a_solver_failure(capsys):
    # 64 cells per side hold 126 levels, and the last piece below the band
    # edge is not searched.
    code, out, err = _run(capsys, "oracle-compare", "-n", "200", "--n-interior", "64")
    assert code == 3 and out == ""
    assert "solver failure" in err and "Traceback" not in err


# ------------------------------------------------------------ record shapes


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-float.fromhex("0x0.fffffffffffffp-1022"))  # the largest subnormal
@example(1e16)
@example(0.1)
def test_printf_17g_renders_every_double_as_format_does(x):
    # The templates render floats with "%.17g", the README promises
    # format(x, ".17g"), and numpy doubles reach the templates as well.
    assert "%.17g" % x == format(x, ".17g") == "%.17g" % np.float64(x)


def _shapes():
    # Every shape of the module, every variant of a module-level table of
    # them, and a trace point variant of each kind: one with its trajectory
    # written in, and one with its E written in too.
    shapes = {}
    for name, v in vars(cli).items():
        if isinstance(v, cli._Shape):
            shapes[name] = v
        elif isinstance(v, tuple) and v and all(isinstance(s, cli._Shape) for s in v):
            shapes.update({f"{name}[{i}]": s for i, s in enumerate(v)})
    shapes["point of trajectory 3"] = cli._trajectory_points(3, np.array([1.0, 2.0]), ["0", "1"])[0]
    shapes["stationary point of trajectory 3"] = cli._trajectory_points(
        3, np.full(2, -1234.5678901234567), ["0", "1"])[0]
    return shapes


SHAPES = _shapes()
FIELD_VALUES = {
    cli._D: st.integers(-(2**53), 2**53),
    cli._G: st.floats(allow_nan=False, allow_infinity=False),
    cli._S: st.sampled_from(["plus", "minus", "bound", "positive", "zero", "determinant"]),
    cli._W: st.booleans(),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
def test_every_shape_renders_lines_that_read_back(name, data):
    shape = SHAPES[name]
    values = {
        k: data.draw(FIELD_VALUES[spec], label=k)
        for k, spec in shape.fields.items() if spec in FIELD_VALUES
    }
    # A bool goes in spelled: "%d" % True would print 1.
    row = tuple(cli._WORD[v] if shape.fields[k] == cli._W else v for k, v in values.items())
    constants = {k: json.loads(v) for k, v in shape.fields.items() if k not in values}

    line = shape.json % row
    assert line.endswith("}\n") and line.count("\n") == 1
    assert json.loads(line) == {**values, **constants}
    assert list(json.loads(line)) == list(shape.fields)

    columns = shape.header.rstrip("\n").split(",")
    (cells,) = csv.reader([shape.csv % row])
    assert len(cells) == len(columns)
    for column, cell in zip(columns, cells):
        value = values.get(column, constants.get(column))
        if isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif isinstance(value, (int, float)):
            assert type(value)(cell) == value
        else:
            assert cell == ("" if value is None else value)


def test_every_level_variant_is_in_the_shape_test():
    # 3 channels (plus, minus, none) x 3 kinds x 2 degenerate words.
    assert len(cli._LEVELS) == 18 and sum(name.startswith("_LEVELS[") for name in SHAPES) == 18
    assert "_LEVEL" in SHAPES and "_POINT" in SHAPES


def _old_kind(E):
    # The kind rule as Spectrum.kind spelled it before the codes.
    return np.where(E < 0.0, "bound", np.where(E == 0.0, "zero", "positive"))


_LEVEL_NULL_CHANNEL = cli._Shape({**cli._LEVEL.fields, "channel": "null"})


def _old_level_lines(spec, fmt):
    # Each level rendered field by field through _LEVEL, or _LEVEL with a
    # null channel where the solver knows none.
    shape = _LEVEL_NULL_CHANNEL if spec.channel is None else cli._LEVEL
    channel = [] if spec.channel is None else [spec.channel.tolist()]
    rows = zip(spec.index.tolist(), *channel, _old_kind(spec.E).tolist(), spec.k_or_kappa.tolist(),
               spec.E.tolist(), [cli._WORD[p >= 0] for p in spec.partner.tolist()])
    template = shape.csv if fmt == "csv" else shape.json
    return (shape.header if fmt == "csv" else "") + "".join(template % row for row in rows)


def _old_trace_lines(trajectories, shifts, fmt):
    # Every point rendered field by field through _POINT: its trajectory,
    # t as 17-digit text, and its own E.
    pick = (lambda shape: shape.csv) if fmt == "csv" else (lambda shape: shape.json)
    lines = [cli._TRAJECTORY.header] if fmt == "csv" else []
    for i, tr in enumerate(trajectories):
        lines.append(pick(cli._TRAJECTORY) % (i, tr.channel, tr.start_index, tr.end_index,
                                              cli._WORD[tr.floored_out]))
        lines += [pick(cli._POINT) % (i, "%.17g" % t, e)
                  for t, e in zip(tr.t_values.tolist(), tr.E_values.tolist())]
    lines.append(pick(cli._SUMMARY) % shifts)
    return "".join(lines)


_ENERGIES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.0, 1.0]),
)


@st.composite
def _spectra(draw):
    n = draw(st.integers(0, 12))
    E = np.array(draw(st.lists(_ENERGIES, min_size=n, max_size=n)), dtype=float)
    k = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float)
    channel = draw(st.one_of(st.none(), st.lists(st.sampled_from(["plus", "minus"]),
                                                 min_size=n, max_size=n).map(np.array)))
    if channel is not None and n == 0:
        channel = np.array([], dtype="<U5")
    index = np.array(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)), dtype=int)
    partner = np.array(draw(st.lists(st.one_of(st.just(-1), st.integers(0, 10**6)),
                                     min_size=n, max_size=n)), dtype=int)
    return Spectrum(E, k, channel, index, partner)


@st.composite
def _trajectories(draw):
    n_t = draw(st.integers(1, 9))
    t = np.array(sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n_t, max_size=n_t))))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        floored = draw(st.booleans())
        size = draw(st.integers(1, n_t)) if floored else n_t
        if draw(st.booleans()):
            E = np.full(size, draw(_ENERGIES))
        else:
            E = np.array(draw(st.lists(_ENERGIES, min_size=size, max_size=size)), dtype=float)
        out.append(LevelTrajectory(t[:size], E, draw(st.integers(0, 20)), -1 if floored else
                                   draw(st.integers(0, 20)), draw(st.sampled_from(["plus", "minus"])),
                                   floored))
    if all(tr.E_values.size < n_t for tr in out):
        # The longest trajectory carries the whole t grid.
        tr = out[0]
        out[0] = LevelTrajectory(t, np.resize(tr.E_values, n_t), tr.start_index, tr.end_index,
                                 tr.channel, tr.floored_out)
    return out


@given(
    _spectra(), _trajectories(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(1, 5),
)
@example(
    Spectrum(np.array([-0.0, 0.0, 5e-324, -5e-324, math.nan, -math.inf]), np.zeros(6), None,
             np.arange(6), np.array([1, 0, -1, -1, 7, -1])),
    [LevelTrajectory(np.array([0.0, 0.5, 1.0]), np.full(3, -0.0), 0, 0, "plus"),
     LevelTrajectory(np.array([0.0]), np.array([-2.5e3]), 1, -1, "minus", True),
     LevelTrajectory(np.array([0.0, 0.5]), np.array([0.0, -0.0]), 1, -1, "plus", True)],
    (0, 0),
    2,
)
def test_rows_render_as_field_by_field_through_the_base_shapes(spec, trajectories, shifts, block):
    # The variants write in what rows share; the lines are those of the
    # base shapes _LEVEL and _POINT filled in field by field, whatever the
    # block size, so blocks end inside a table and variants change inside
    # a block and at its edge.
    assert _old_kind(spec.E).tolist() == spec.kind.tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK", block)
        mp.setattr(cli, "_solve", lambda *args: spec)
        mp.setattr(cli, "trace_path", lambda path: trajectories)
        mp.setattr(cli, "trajectory_shifts", lambda trs, winding: shifts)
        for fmt in ("json", "csv"):
            for argv, expected in (
                (["spectrum"], _old_level_lines(spec, fmt)),
                (["trace"], _old_trace_lines(trajectories, shifts, fmt)),
            ):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main([*argv, "--format", fmt]) == 0
                assert out.getvalue() == expected


# ------------------------------------------------------- errors and plumbing


def test_invalid_inputs_exit_2(capsys):
    code, _, err = _run(capsys, "spectrum", "--matrix", "1,0,0,0,0,0,2,0")
    assert code == 2 and "unitary" in err.lower()
    code, _, err = _run(capsys, "spectrum", "--matrix", "1,0,0,0,0,0,1,0", "--xi", "1.0")
    assert code == 2 and "conflict" in err
    code, _, err = _run(capsys, "spectrum", "--matrix", "1,0,0")
    assert code == 2
    code, _, err = _run(capsys, "spectrum", "--xi", "1.0", "--solver", "shooting")
    assert code == 2 and "solver" in err
    code, _, err = _run(capsys, "spectrum", "--xi", "1.0", "--theta-plus", "2.0")
    assert code == 2


@pytest.mark.parametrize("flag, tol", [("--tol-det", "nan"), ("--tol-det", "-1"), ("--tol-fd", "inf")])
def test_oracle_compare_tolerances_must_be_finite_and_nonnegative(capsys, flag, tol):
    code, out, err = _run(capsys, "oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "2", flag, tol)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and flag in err


def test_solver_failure_exits_3(capsys):
    code, _, err = _run(
        capsys, "spectrum", "--xi", "2.0", "--rho", "0.9",
        "--solver", "det", "-n", "12", "--k-max", "3.0",
    )
    assert code == 3
    assert "solver failure" in err


def test_det_k_max_is_a_ceiling_not_a_scan_length(capsys):
    # A ceiling past the scan's own reach changes no byte; as a scan length
    # it would ask for a grid of about 1e16 points.
    argv = ("spectrum", "--solver", "det", "-n", "2")
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert _run(capsys, *argv, "--k-max", "1e15") == (0, out, "")


@pytest.mark.parametrize("k_max", ["-1", "0", "nan", "inf"])
def test_det_k_max_must_be_finite_and_positive(capsys, k_max):
    code, out, err = _run(capsys, "spectrum", "--solver", "det", "--k-max", k_max, "-n", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "k_max" in err


@pytest.mark.parametrize("k_max", ["-1", "0", "nan", "inf", "3.0"])
@pytest.mark.parametrize("solver", ["channel", "fd"])
def test_k_max_is_checked_for_every_solver_and_taken_by_det_alone(tmp_path, capsys, solver, k_max):
    # The channel and fd solvers have no search to cap, so no --k-max is
    # theirs to take: a value det would reject is rejected all the same.
    target = tmp_path / "levels.json"
    target.write_text("previous results\n")
    argv = ("spectrum", "--xi", "2", "--rho", "0.9", "-n", "3", "--solver", solver, "--k-max", k_max)
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    if k_max == "3.0":
        assert err.startswith("error: --k-max is a ceiling on the det search")
    else:
        assert err.startswith("error: k_max must be finite and positive")
    assert _run(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert target.read_text() == "previous results\n"


def _valued_flags():
    # (command, long flag, dest) for every flag of every subcommand that takes a value.
    return [
        (command, max(action.option_strings, key=len), action.dest)
        for command, parser in cli._build_parser().subcommands.items()
        for action in parser._actions
        if action.option_strings and action.nargs is None and not isinstance(action, argparse._HelpAction)
    ]


@pytest.mark.parametrize("command, flag, dest", _valued_flags(), ids=lambda v: str(v))
def test_a_flag_given_a_double_dash_exits_2_on_the_command_line_and_in_a_config(
        tmp_path, capsys, command, flag, dest):
    # Python 3.11's argparse stores [] for the value of --flag=--, which no
    # command can use: the call exits 2 with one error line, before any
    # command runs, and --output keeps what it held.  A config entry is
    # parsed as its flag; a config key of its own is overridden by the
    # --config that names the file.
    target = tmp_path / "out.txt"
    target.write_text("previous results\n")
    want = f"error: argument --{dest.replace('_', '-')}: expected one argument, got '--'\n"
    assert _run(capsys, command, "--output", str(target), f"{flag}=--") == (2, "", want)
    if dest == "config":
        return
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = --\n")
    output = () if dest == "output" else ("--output", str(target))
    assert _run(capsys, command, "--config", str(cfg), *output) == (2, "", want)
    assert target.read_text() == "previous results\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--l", "1e-300", "-n", "2"),
        ("spectrum", "--solver", "fd", "--n-interior", "64", "--l", "1e-300", "-n", "2"),
        ("eigenfunction", "--l", "1e300", "--samples", "4"),
        ("spectrum", "--solver", "det", "--xi", "2", "--rho", "0.9", "-n", "2", "--l", "1e-160"),
        ("isospectral", "--xi", "2", "--rho", "0.9", "--l", "1e-160", "-n", "2",
         "--grid-mu", "1", "--grid-nu", "1"),
        # Brent's extrapolation step underflows to 0 / 0 on these.
        ("spectrum", "--l", "1e-300", "--L0", "1e-300", "--xi", "2", "--rho", "0.9", "-n", "2"),
        ("oracle-compare", "--l", "1e-300", "--L0", "1e-300", "--xi", "2", "--rho", "0.9",
         "-n", "2"),
        ("eigenfunction", "--l", "1e-300", "--L0", "1e-300", "--xi", "2", "--rho", "0.9"),
        # c l of a det knot direction underflows to 0.
        ("spectrum", "--solver", "det", "--l", "1e-154", "--L0", "1e-300", "--xi", "4",
         "--rho", "0.3", "-n", "2"),
        # The level fits a double, but L0 (U + I) dphi in its residual does not.
        ("eigenfunction", "--samples", "8", "--l", "1e-150", "--L0", "1e300", "--xi", "2",
         "--rho", "0.9", "--index", "1"),
        # E = k^2 of every level rounds to 0, where they would all tie.
        ("spectrum", "--l=1e+200", "--L0=1.0", "--xi=6.013126317700641", "--rho=1.2", "-n", "6",
         "--format", "csv"),
        ("spectrum", "--solver", "fd", "--l=1e+200", "--L0=1.0", "--xi=6.013126317700641",
         "--rho=1.2", "-n", "6", "--format", "csv"),
        # Brent's lock-step interpolation overflows on the way to these levels.
        ("spectrum", "--l=1e-300", "--L0=1e30", "--xi=0.389", "--rho=0.2", "-n", "160"),
        # k = j pi / 2l of det's walk, and the channel solver's probes,
        # overflow a double.
        ("spectrum", "--solver", "det", "--xi", "2.0", "--rho", "0.9", "--l", "2e-308", "-n", "2"),
        ("isospectral", "--xi", "2.0", "--rho", "0.9", "--l", "2e-308", "-n", "2",
         "--grid-mu", "1", "--grid-nu", "1"),
        ("spectrum", "--xi", "2.0", "--rho", "0.9", "--l", "2e-308", "-n", "2"),
        ("trace", "--xi", "2.0", "--rho", "0.9", "--l", "5e-324", "--w-plus", "1"),
        ("eigenfunction", "--xi", "2.0", "--rho", "0.9", "--l", "2e-308"),
        ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "--l", "1e-310", "-n", "2"),
    ],
    ids=["channel-tiny-box", "fd-tiny-box", "eigenfunction-huge-box", "det-tiny-box",
         "isospectral-tiny-box", "channel-tiny-l-and-L0", "compare-tiny-l-and-L0",
         "eigenfunction-tiny-l-and-L0", "det-tiny-knot", "eigenfunction-huge-residual",
         "channel-huge-box-underflow", "fd-huge-box-underflow", "channel-lock-step-tiny-box",
         "det-subnormal-box", "isospectral-subnormal-box", "channel-subnormal-box",
         "trace-subnormal-box", "eigenfunction-subnormal-box", "compare-subnormal-box"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_box_whose_values_overflow_is_a_typed_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert "inf" not in out and "nan" not in out
    assert err.count("\n") == 1 and err.startswith("solver failure: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_det_on_a_box_whose_knot_direction_underflows_prints_the_channel_levels(capsys):
    # At l = 1e-150, L0 = 1e-300, c l of a knot direction underflows to 0
    # while the levels, E = (pi / l)^2, still fit a double.
    box = ("--l", "1e-150", "--L0", "1e-300", "--xi", "4", "--rho", "0.3", "-n", "2")
    code, out, err = _run(capsys, "spectrum", "--solver", "det", *box)
    assert (code, err) == (0, "")
    _, channel_out, _ = _run(capsys, "spectrum", *box)
    assert [r["E"] for r in _json_lines(out)] == [r["E"] for r in _json_lines(channel_out)]
    assert _json_lines(out)[0]["E"] == 9.8696044010893569e300


@pytest.mark.parametrize(
    "box",
    [
        ("--solver", "det", "--l=1.0", "--L0=1e+156", "--xi=0.9331198144607",
         "--rho=1.0715679564299465", "-n", "1"),
        ("--solver", "det", "--l=1e+156", "--L0=1.0", "--xi=2.845636856729417",
         "--rho=1.3989274242793985", "-n", "2"),
        ("--solver", "fd", "--l=1.0", "--L0=1e+168", "--xi=3.4853671589748108",
         "--rho=2.0641083717463418", "-n", "2"),
        ("--solver", "fd", "--l=1.0", "--L0=1e+156", "--xi", "2", "--rho", "0.9", "-n", "2"),
    ],
    ids=["det-huge-L0", "det-huge-l", "fd-huge-L0", "fd-large-L0"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_box_whose_phased_determinant_overflows_exits_3(capsys, box):
    # det's a0 grows as L0^2 and its sigma as l, FD's a0 as (L0 / l)^2.
    code, out, err = _run(capsys, "spectrum", *box)
    assert (code, out) == (3, "")
    assert err == ("solver failure: the phased determinant of the connection condition "
                   "overflows a double on this box\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--solver", "det", "--l=1", "--L0=1e-162", "--xi=0", "--rho=0", "-n", "1"),
        ("spectrum", "--solver", "fd", "--l=1", "--L0=1e-170", "--xi=0", "--rho=0", "-n", "3"),
        ("oracle-compare", "--l=1", "--L0=1e-170", "--xi=0", "--rho=0", "-n", "1"),
        ("isospectral", "--l=1", "--L0=1e-170", "--xi=0", "--rho=0"),
    ],
    ids=["det", "fd", "compare", "isospectral"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_box_whose_phased_determinant_underflows_exits_3(capsys, argv):
    # At U = I the form's a2 and a1 are 0 and a0 is -4 L0^2, or -4 (L0 / l)^2
    # for FD, which underflows: the form has no direction left to walk by.
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("solver failure: the phased determinant of the connection condition "
                   "underflows a double on this box\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_det_takes_a_bracket_end_that_reads_zero_as_the_root(capsys):
    # The first turn's end knot, at kl = pi / 2, reads 0, while its raw g
    # carries the floor's sign; that end is the level, as the channel
    # solver has it.
    box = ("--l=1e-20", "--L0=1.0", "--xi=2.1850708837878754", "--rho=1.2724348610862513",
           "-n", "1")
    code, out, err = _run(capsys, "spectrum", "--solver", "det", *box)
    assert (code, err) == (0, "")
    _, channel_out, _ = _run(capsys, "spectrum", *box)
    assert [r["E"] for r in _json_lines(out)] == [r["E"] for r in _json_lines(channel_out)]
    assert _json_lines(out)[0]["E"] == 2.4674011002723397e40


@given(
    st.sampled_from(["det", "fd"]),
    st.floats(-300.0, 300.0),
    st.floats(-300.0, 300.0),
    st.one_of(st.floats(0.0, 2.0 * PI), st.sampled_from([0.0, PI])),
    st.one_of(st.floats(0.0, PI), st.sampled_from([0.0, PI])),
    st.integers(1, 3),
)
@settings(max_examples=240)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_det_and_fd_on_any_box_exit_0_or_3_and_print_finite_numbers(solver, le, L0e, xi, rho, n):
    # l and L0 anywhere in 10^+-300: det and FD answer, or fail with one
    # line.  json.loads rejects a bare inf, and isfinite a NaN.
    argv = ["spectrum", "--solver", solver, f"--l={10.0 ** le!r}", f"--L0={10.0 ** L0e!r}",
            f"--xi={xi!r}", f"--rho={rho!r}", "-n", str(n)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        rows = _json_lines(out.getvalue())
        assert len(rows) == n
        assert all(math.isfinite(v) for row in rows for v in row.values() if type(v) in (int, float))


def _finite_numbers(out: str) -> bool:
    # Every number of every JSON line is finite; json.loads would take NaN
    # and Infinity as numbers, so those constants fail the parse here.
    def bad(token):
        raise ValueError(f"non-finite number {token}")

    def numbers(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in numbers(v)]
        if isinstance(value, list):
            return [x for v in value for x in numbers(v)]
        return [value] if type(value) in (int, float) else []

    rows = [json.loads(line, parse_constant=bad) for line in out.splitlines()]
    return all(math.isfinite(x) for row in rows for x in numbers(row))


@st.composite
def _any_command(draw):
    # One valid argv of any subcommand but the det/FD spectrum, on a box in
    # 10^+-300 or in 10^+-2 for a third of the draws each, and with l or L0
    # at the bottom of the double range, subnormals included, for the rest,
    # with the defect as angles, as eigenphases (near the threshold T = 0 of
    # the plus channel for some) or as a matrix.
    span = draw(st.sampled_from([300.0, 2.0, None]))
    l, L0 = (10.0 ** draw(st.floats(-(span or 300.0), span or 300.0)) for _ in range(2))
    if span is None:
        bottom = draw(st.one_of(st.sampled_from([5e-324, 2e-308]),
                                st.floats(-323.3, -300.0).map(lambda e: 10.0**e)))
        l, L0 = (bottom, L0) if draw(st.booleans()) else (l, bottom)
    command = draw(st.sampled_from(["spectrum", "eigenfunction", "oracle-compare", "trace", "isospectral"]))
    angle = st.one_of(st.floats(0.0, 2.0 * PI), st.sampled_from([0.0, PI]))
    form = draw(st.sampled_from(["angles", "eigenphases", "matrix"]))
    if command == "isospectral" and form == "matrix":
        form = "angles"
    if form == "eigenphases":
        plus = draw(st.one_of(angle, st.floats(-1e-6, 1e-6).map(
            lambda d: 2.0 * PI - 2.0 * math.atan(L0 / l) + d)))
        defect = [f"--theta-plus={plus!r}", f"--theta-minus={draw(angle)!r}"]
    else:
        xi, rho = draw(angle), draw(angle)
        mu, nu = (0.0, 0.0) if command == "isospectral" else (draw(angle), draw(angle))
        if form == "angles":
            defect = [f"--xi={xi!r}", f"--rho={rho!r}", f"--mu={mu!r}", f"--nu={nu!r}"]
        else:
            u = params_to_matrix(UnitaryParams(xi, rho, mu, nu)).ravel()
            defect = ["--matrix=" + ",".join(repr(float(x)) for z in u for x in (z.real, z.imag))]
    argv = [command, f"--l={l!r}", f"--L0={L0!r}", *defect]
    if command == "spectrum":
        argv += ["-n", str(draw(st.integers(1, 6)))]
    elif command == "eigenfunction":
        argv += ["--index", str(draw(st.integers(0, 3))), "--samples", str(draw(st.sampled_from([4, 8])))]
    elif command == "oracle-compare":
        argv += ["-n", str(draw(st.integers(1, 3))), "--n-interior=64"]
    elif command == "trace":
        w = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (1, -1), (2, 0)]))
        argv += [f"--w-plus={w[0]}", f"--w-minus={w[1]}", f"--steps={draw(st.integers(64, 96))}",
                 f"--tracked={draw(st.integers(2, 5))}"]
    else:
        argv += ["-n", str(draw(st.integers(1, 3))), f"--grid-mu={draw(st.integers(1, 2))}",
                 f"--grid-nu={draw(st.integers(1, 2))}", "--n-interior=64"]
    return argv


@given(_any_command(), st.booleans())
@settings(max_examples=240)
def test_every_subcommand_on_any_box_exits_0_1_or_3_and_prints_finite_numbers(argv, to_file):
    # The exit-code contract over the whole CLI: a valid argv answers (0),
    # fails a tolerance (1, oracle-compare only) or is a solver failure of
    # one stderr line (3), with no warning, and every number it prints is
    # finite.  A run that fails leaves --output as it was.
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.json"
        target.write_text("previous results\n")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--output", str(target)] if to_file else argv)
        written = target.read_text() if to_file else out.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in ((0, 1, 3) if argv[0] == "oracle-compare" else (0, 3)), err.getvalue()
    if code == 3:
        assert err.getvalue().count("\n") == 1
        assert written == ("previous results\n" if to_file else "")
    else:
        assert err.getvalue() == ""
        assert written and _finite_numbers(written)


def test_a_level_below_one_that_overflows_is_not_degenerate(capsys):
    # det solves one level past the cut, and here its E overflows to inf,
    # which lies within 1e-10 (1 + inf) of the lone level below it.
    code, out, err = _run(capsys, "spectrum", "--solver", "det", "--xi", "2", "--rho", "0.9",
                          "--l", "3e-154", "-n", "1")
    assert (code, err) == (0, "")
    assert _json_lines(out)[0]["degenerate"] is False
    E = np.array([2.7415567780803763e307, math.inf])
    assert spectrum.degenerate_partners(E, np.arange(2)).tolist() == [-1, -1]


def test_python_dash_m_runs_main(capsys):
    proc = _python("-m", "defectline", *README_ARGV)
    code, out, _ = _run(capsys, *README_ARGV)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert _python("-m", "defectline", "spectrum", "-n", "0").returncode == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--xi", "2", "--rho", "0.9", "-n", "2000"),
     ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "1", "--steps", "512")],
    ids=["spectrum-2000", "trace-512"],
)
def test_every_write_is_a_block_of_whole_lines(argv, fmt):
    # A reader of the pipe never sees part of a line, and no write holds
    # more than one block however long the table.
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Recorder()) as out:
        assert main([*argv, "--format", fmt]) == 0
    assert "".join(writes) == out.getvalue()
    if fmt == "csv":
        assert writes.pop(0).count("\n") == 1
    lines = [text.count("\n") for text in writes]
    assert all(text.endswith("\n") for text in writes)
    assert max(lines) == cli._BLOCK and sum(lines) > 4 * cli._BLOCK
    assert len(writes) < sum(lines) / 16


def test_closed_stdout_exits_141_without_a_traceback():
    # `defectline trace ... | head -1`: the reader leaves after one line of
    # about 200 kB, so a later write meets a closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "defectline", "trace", "--xi", "2.2", "--rho", "0.8",
         "--w-plus", "1", "--steps", "512"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env(),
    )
    assert proc.stdout.readline().startswith(b'{"record": "trajectory"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [README_ARGV, ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "1", "--steps", "512")],
    ids=["flush", "writelines"],
)
def test_stdout_closed_before_the_first_write_exits_141(argv):
    # The read end is gone before the child starts, so the first write that
    # reaches the pipe fails whatever the timing: the flush at the end for a
    # short table, a write inside the table for a long one.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "defectline", *argv], stdout=write,
            stderr=subprocess.PIPE, env=_python_env(), timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_unexpected_exception_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(settings, out):
        out.write("partial\n")
        raise RuntimeError("lost a level")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", broken)
    code, _, err = _run(capsys, *README_ARGV)
    assert code == 4
    assert err == "internal error: RuntimeError: lost a level\n"
    target = tmp_path / "levels.json"
    target.write_text("previous results\n")
    code, _, err = _run(capsys, *README_ARGV, "--output", str(target))
    assert code == 4 and err.startswith("internal error: RuntimeError")
    assert target.read_text() == "previous results\n"


def test_a_request_too_large_for_memory_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # `spectrum -n 100000000000` asks numpy for 745 GiB.  Here the solver
    # raises numpy's MemoryError itself, so no test allocates that much:
    # one solver-failure line, exit 3, and --output left as it was.
    message = ("Unable to allocate 745. GiB for an array with shape (2, 50000000002) "
               "and data type float64")

    raised = [MemoryError(message)]

    def too_large(bc, n):
        raise raised[0]

    monkeypatch.setattr(isospectral, "solve_spectrum", too_large)
    code, out, err = _run(capsys, "spectrum", "-n", "100000000000")
    assert (code, out, err) == (3, "", f"solver failure: {message}\n")
    target = tmp_path / "levels.json"
    target.write_text("previous results\n")
    code, out, err = _run(capsys, "spectrum", "-n", "100000000000", "--output", str(target))
    assert (code, out, err) == (3, "", f"solver failure: {message}\n")
    assert target.read_text() == "previous results\n"
    # A MemoryError without a message still names its cause.
    raised[0] = MemoryError()
    assert _run(capsys, "spectrum", "-n", "2") == (3, "", "solver failure: out of memory\n")


# One valid call of every subcommand.
EVERY_SUBCOMMAND = [
    ("spectrum", "--xi", "2.0", "--rho", "0.9", "-n", "3"),
    ("eigenfunction", "--xi", "2.0", "--rho", "0.9", "--index", "1", "--samples", "8"),
    ("isospectral", "--xi", "2.0", "--rho", "0.9", "-n", "2", "--grid-mu", "1", "--grid-nu", "1"),
    ("trace", "--xi", "2.2", "--rho", "0.8", "--w-plus", "1", "--steps", "64", "--tracked", "3"),
    ("oracle-compare", "--xi", "2.0", "--rho", "0.9", "-n", "2", "--n-interior", "64"),
]


def test_parser_built_once_parses_like_a_fresh_one(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    cached = [_run(capsys, *argv) for argv in EVERY_SUBCOMMAND]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_run(capsys, *argv) for argv in EVERY_SUBCOMMAND]
    assert cached == fresh
    assert all(code == 0 for code, _, _ in cached)


def _parse_outcome(parse, argv):
    """What parse(argv) gives: its namespace as reprs, or its exit code; and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("parsed", {key: repr(value) for key, value in vars(parse(list(argv))).items()})
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_parses_as_nested(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(cli._build_parser().parse_args, argv), argv


def _long_form(argv):
    """argv with every flag and its value joined as one --flag=value token."""
    names = {"-n": "--levels"}
    return (argv[0], *(f"{names.get(f, f)}={v}" for f, v in zip(argv[1::2], argv[2::2])))


SINGLE_PARSE_ARGVS = [
    *EVERY_SUBCOMMAND,
    *map(_long_form, EVERY_SUBCOMMAND),
    ("spectrum", "--xi", "-1e-09"),
    ("spectrum", "--xi=-1e-09"),
    ("spectrum", "--rh", "0.9", "--lev", "3", "--n-int=64", "--sol", "fd"),
    ("spectrum", "--theta", "1.0"),
    ("spectrum", "--he"),
    ("oracle-compare", "--tol", "1e-3"),
    ("trace", "--w", "1"),
    ("spectrum", "--no-such-flag"),
    ("spectrum", "--xi", "2", "extra"),
    ("spectrum", "extra", "more", "--xi", "2"),
    ("spectrum", "--matrix", "spectrum"),
    ("--matrix", "spectrum"),
    ("spectrum", "--", "-n", "3"),
    ("spectrum", "-n", "3", "--"),
    ("spectrum", "-n2"),
    ("spectrum", "-n", "2", "-n", "3"),
    ("spectrum", "-n", "two"),
    ("trace", "--steps", "1.5"),
    ("spectrum", "--format", "xml"),
    ("spectrum", "--xi"),
    ("spectrum", "--k-max=-1", "--solver", "fd"),
    *((command, "-h") for command, *_ in EVERY_SUBCOMMAND),
    ("eigenfunction", "--index", "1", "--help"),
    (),
    ("nosuch",),
    ("-h",),
    ("--help", "spectrum"),
    ("--xi", "2", "spectrum"),
]


@pytest.mark.parametrize("argv", SINGLE_PARSE_ARGVS, ids=" ".join)
def test_a_call_parsed_once_gives_what_the_nested_parse_gives(argv):
    _assert_parses_as_nested(argv)


_FLAGS_OF = {
    name: sorted(flag for action in parser._actions for flag in action.option_strings)
    for name, parser in cli._build_parser().subcommands.items()
}
_ABBREVIATIONS = ["--th", "--theta", "--he", "--tol", "--n", "--lev", "--grid", "--w", "--form"]
_VALUES = [
    "2.0", "-1e-09", "0.9", "3", "nan", "two", "csv", "xml", "det", "--", "-n2", "-x",
    "spectrum", "1,0,0,0,0,0,1,0",
]


def _pieces(head):
    """Token groups after head: mostly one of its own flags with a value most flags take."""
    own = [f for f in _FLAGS_OF.get(head, ["--xi"]) if f not in ("-h", "--help")]
    flag = st.sampled_from(sorted(set().union(*_FLAGS_OF.values())) + _ABBREVIATIONS)
    value = st.sampled_from(_VALUES)
    return st.one_of(
        st.tuples(st.sampled_from(own), st.sampled_from(["3", "0.9", "-1e-09"])),
        st.tuples(flag, value),
        st.tuples(st.one_of(flag, value)),
        st.tuples(st.builds("{}={}".format, flag, value)),
    )


@given(
    st.sampled_from([*_FLAGS_OF, "nosuch", "-h", "--xi"]).flatmap(
        lambda head: st.tuples(st.just(head), st.lists(_pieces(head), max_size=5))
    )
)
def test_any_token_list_parsed_once_gives_what_the_nested_parse_gives(drawn):
    head, pieces = drawn
    _assert_parses_as_nested((head, *itertools.chain.from_iterable(pieces)))


def _count_parses(monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return calls


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=[argv[0] for argv in EVERY_SUBCOMMAND])
def test_a_call_is_parsed_once_and_twice_with_a_config(tmp_path, capsys, monkeypatch, argv):
    cli._build_parser()
    calls = _count_parses(monkeypatch)
    assert _run(capsys, *argv)[0] == 0
    assert calls == [f"defectline {argv[0]}"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = 2.0\n")
    calls.clear()
    assert _run(capsys, *argv, "--config", str(cfg))[0] == 0
    assert calls == [f"defectline {argv[0]}"] * 2


def test_cli_import_leaves_scipy_unloaded():
    proc = _python("-c", "import sys, defectline.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
    # Every solver runs on numpy alone, the finite-difference one included.
    script = (
        "import sys, contextlib, io\n"
        "from defectline.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['isospectral', '--xi', '2.0', '--rho', '0.9']),\n"
        "             main(['spectrum', '--solver', 'det', '--xi', '2.0', '--rho', '0.9']),\n"
        "             main(['spectrum', '--solver', 'fd', '--xi', '2.0', '--rho', '0.9']),\n"
        "             main(['oracle-compare', '--xi', '2.0', '--rho', '0.9'])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[0, 0, 0, 0] False"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [argv[0] for argv in EVERY_SUBCOMMAND])
def test_help_renders_and_names_every_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).partition(" options: ")[2]
    defaults = vars(cli._build_parser().parse_args([command]))
    for dest, value in defaults.items():
        if dest == "command" or value is None:
            continue
        # The option's entry runs from its flag to the next option's.
        flag = "--" + dest.replace("_", "-")
        entry = re.search(rf"{flag} \S+ (.*?)(?= -{{1,2}}[A-Za-z]|$)", options)
        assert entry is not None and f"default {value})" in entry.group(1), (flag, value)


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the sweep\n"
        "\n"
        "xi = 2.0\n"
        "rho=0.9\n"
        "levels = 4\n"
        "format=json\n"
    )
    code, out_cfg, _ = _run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    recs = _json_lines(out_cfg)
    assert len(recs) == 4
    code, out_direct, _ = _run(capsys, "spectrum", "--xi", "2.0", "--rho", "0.9", "-n", "4")
    assert out_cfg == out_direct
    # a flag on the command line wins over the config value
    code, out_override, _ = _run(capsys, "spectrum", "--config", str(cfg), "--rho", "1.1")
    assert code == 0
    code, out_expect, _ = _run(capsys, "spectrum", "--xi", "2.0", "--rho", "1.1", "-n", "4")
    assert out_override == out_expect


def test_config_underscore_keys_and_bad_lines(tmp_path, capsys):
    cfg = tmp_path / "fd.cfg"
    cfg.write_text("theta_plus=3.0\ntheta_minus=1.4\nn_interior=128\n")
    code, out, _ = _run(capsys, "spectrum", "--config", str(cfg), "--solver", "fd", "-n", "2")
    assert code == 0
    assert len(_json_lines(out)) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no assignment\n")
    code, _, err = _run(capsys, "spectrum", "--config", str(bad))
    assert code == 2 and "key=value" in err
    code, _, err = _run(capsys, "spectrum", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=[argv[0] for argv in EVERY_SUBCOMMAND])
def test_a_config_of_every_flag_prints_what_the_flags_print(tmp_path, capsys, argv):
    command, flags = argv[0], argv[1:]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(
        f"{'levels' if flag == '-n' else flag[2:]} = {value}\n"
        for flag, value in zip(flags[::2], flags[1::2])
    ))
    code, out, err = _run(capsys, command, "--config", str(cfg))
    assert (code, out, err) == _run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("text", ["lvels = 4\n", "n = 4\n", "tol_det = 1e-3\n", "help = 1\n"],
                         ids=["typo", "short-flag", "other-subcommand", "help"])
def test_a_config_key_that_names_no_flag_exits_2(tmp_path, capsys, text):
    # `n` is no long flag, though argparse would take it as a prefix of
    # --n-interior; tol_det is a flag of oracle-compare only.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = 2.0\n" + text)
    code, out, err = _run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2 and out == ""
    flag = "--" + text.partition(" =")[0].replace("_", "-")
    assert err.count("\n") == 1 and f"has no flag {flag}\n" in err


@pytest.mark.parametrize(
    "text, bad", [("format = xml", "xml"), ("l = abc", "abc"), ("levels = 2.5", "2.5")]
)
def test_a_config_value_its_flag_rejects_exits_2(tmp_path, text, bad):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    proc = _python("-m", "defectline", "spectrum", "--config", str(cfg))
    assert proc.returncode == 2 and proc.stdout == ""
    assert bad in proc.stderr and "Traceback" not in proc.stderr


def test_a_config_entry_is_parsed_as_its_flag(tmp_path, capsys):
    # A negative value is a value, not a flag, and an unknown solver is an
    # error with one line, as on the command line.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = -0.5\nlevels = 3\n")
    expected = _run(capsys, "spectrum", "--rho=-0.5", "-n", "3")
    assert _run(capsys, "spectrum", "--config", str(cfg)) == expected
    cfg.write_text("solver = shooting\n")
    code, out, err = _run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: unknown solver 'shooting' (choices: channel, det, fd)\n"


def test_output_file_matches_stdout_and_is_deterministic(tmp_path, capsys):
    args = ("spectrum", "--xi", "2.0", "--rho", "0.9", "-n", "5", "--format", "csv")
    code, out, _ = _run(capsys, *args)
    assert code == 0
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--output", str(p1)]) == 0
    assert main([*args, "--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == out


def test_failed_run_leaves_output_file_untouched(tmp_path, capsys):
    target = tmp_path / "levels.json"
    target.write_text("previous results\n")
    base = ("spectrum", "--xi", "2", "--rho", "0.9")
    assert main([*base, "--l=-1", "--output", str(target)]) == 2
    assert target.read_text() == "previous results\n"
    exhausted = ("--solver", "det", "-n", "12", "--k-max", "3.0")
    assert main([*base, *exhausted, "--output", str(target)]) == 3
    assert target.read_text() == "previous results\n"
    # a run that succeeds does replace the file
    code, out, _ = _run(capsys, *base)
    assert main([*base, "--output", str(target)]) == code == 0
    assert target.read_text() == out


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, _, err = _run(
        capsys, "spectrum", "--xi", "2.0", "--output", str(tmp_path / "absent" / "out.json")
    )
    assert code == 2 and "--output" in err
