import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec import cli
from cylspec.cli import main
from cylspec.errors import ConfigError, InputError

SQ = "6.283185307179586,0,0,6.283185307179586"


def test_spectrum_torus(tmp_path, capsys):
    rc = main(["spectrum", "--torus", SQ, "--cutoff", "2.5", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    assert rows[0] == "index,eigenvalue,cluster_id,cluster_lambda,d_lambda"
    summary = json.loads((tmp_path / "spectrum.json").read_text())
    clusters = [(round(c["lambda"], 6), c["d"]) for c in summary["clusters"]]
    assert clusters == [(-1.414214, 8), (-1.0, 8), (0.0, 4), (1.0, 8), (1.414214, 8)]


def test_spectrum_missing_mesh(capsys):
    rc = main(["spectrum", "--model", "sl", "--mesh", "no_such_file.off"])
    assert rc == 2
    assert "ERR CONFIG" in capsys.readouterr().err


def test_spectrum_sl_mesh(tmp_path, capsys):
    path = tmp_path / "torus_g1.off"
    cs.write_off(path, cs.parametric_torus_mesh(10, 8))
    rc = main(["spectrum", "--model", "sl", "--mesh", str(path), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum.json").read_text())
    zero = [c for c in summary["clusters"] if abs(c["lambda"]) < 1e-8]
    assert zero and zero[0]["d"] == 4


def test_disconnected_mesh_is_config_error(tmp_path, capsys):
    # two disjoint tori pass the Euler check (chi = 0) but are no surface of genus 1
    one = cs.parametric_torus_mesh(12, 8)
    pos = one.vertex_positions
    path = tmp_path / "two_tori.off"
    cs.write_off(path, cs.surface_from_triangles(
        np.vstack([pos, pos + 10.0]), np.vstack([one.triangles, one.triangles + len(pos)])))
    rc = main(["spectrum", "--model", "sl", "--mesh", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "ERR CONFIG: complex is not connected (multi-dimensional constants)\n")


def test_index_command(tmp_path, capsys):
    rc = main(["index", "--ends", "torus", "--rates=-0.5", "--torus", SQ,
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "index = -2" in out
    assert "fixed-cross-section virtual dimension:   -2" in out
    assert "varying-cross-section virtual dimension: +2" in out
    report = json.loads((tmp_path / "index.json").read_text())
    assert report["index"] == -2


def test_index_two_ends(capsys):
    rc = main(["index", "--ends", "torus,torus", "--rates=-0.5,-1.2", "--torus", SQ])
    assert rc == 0
    assert "index = -12" in capsys.readouterr().out


def test_repeated_end_solved_once(monkeypatch, capsys):
    calls = []
    solve = cs.spectral.eigendecompose
    monkeypatch.setattr(cs.spectral, "eigendecompose",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    rc = main(["index", "--ends", "torus,torus", "--rates=-0.5,-1.2", "--torus", SQ])
    assert rc == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "index = -12   [weighted-end-sum]\n"
        "  end 0: rate -0.5  contribution -2  interior roots: -\n"
        "  end 1: rate -1.2  contribution -10  interior roots: -1 (d=8)\n"
        "fixed-cross-section virtual dimension:   -12  [fixed-cross-section-index]\n"
        "varying-cross-section virtual dimension: +4  [varying-cross-section-index]\n")


def test_index_critical_rate(capsys):
    rc = main(["index", "--ends", "torus", "--rates", "0", "--torus", SQ])
    assert rc == 4
    err = capsys.readouterr().err
    assert "ERR CRITICAL_RATE" in err
    assert "root" in err     # offending end and nearest root are reported


def test_wallcross_command(capsys):
    rc = main(["wallcross", "--ends", "torus", "--rate1=-0.5", "--rate2", "0.5",
               "--torus", SQ])
    assert rc == 0
    assert "+4" in capsys.readouterr().out


def test_indicial_command(capsys):
    rc = main(["indicial", "--torus", SQ, "--cutoff", "2.5", "--window=-1.2,1.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("lambda =") == 3


def test_cylinder_solve_command(tmp_path, capsys):
    rc = main(["cylinder-solve", "--torus", SQ, "--cutoff", "1.5", "--weight=-0.5",
               "--T", "45", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "cylinder_solve.json").read_text())
    assert summary["manufactured_relative_error"] <= 1e-8
    assert (tmp_path / "cylinder_modes.csv").exists()


def test_cylinder_solve_command_memory(tmp_path, capsys):
    # besides the solve's own 3.24 grid arrays of dim 148 x 3001, the command
    # holds only the right-hand side: the manufactured profile is one row and
    # the CSV is written in pieces (it held 6.3 arrays with both as full grids)
    main(["cylinder-solve", "--cutoff", "1.5", "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        rc = main(["cylinder-solve", "--cutoff", "10", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 4.75 * 148 * 3001 * 8


# values a CSV column may hold: signed zeros, subnormals, the ends of the
# float range and the non-finite ones
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                           np.nan, np.inf, -np.inf, 1.0, -1.0 / 3.0])
COLUMN_KINDS = ["+0", "-0", "+-0", "one-nonzero", "special", "normal"]


def reference_csv_rows(block):
    """The rows of block as np.savetxt writes them."""
    fh = io.StringIO()
    np.savetxt(fh, block, delimiter=",", fmt="%.17g")
    return fh.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 255, 256, 257]),
       st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=24),
       st.integers(0, 2**32 - 1))
def test_csv_rows_match_savetxt(rows, kinds, seed):
    rng = np.random.default_rng(seed)
    cols = {"+0": lambda: np.zeros(rows), "-0": lambda: np.full(rows, -0.0),
            "+-0": lambda: rng.choice([0.0, -0.0], rows),
            "one-nonzero": lambda: np.where(np.arange(rows) == rng.integers(rows),
                                            rng.choice(SPECIAL_VALUES[2:]), 0.0),
            "special": lambda: rng.choice(SPECIAL_VALUES, rows),
            "normal": lambda: rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)}
    block = np.column_stack([cols[kind]() for kind in kinds])
    assert cli._csv_rows(block) == reference_csv_rows(block)


def test_kernel_count_command(tmp_path, capsys):
    rc = main(["kernel-count", "--torus", SQ, "--cutoff", "1.5", "--weight", "0.5",
               "--eps", "0.001", "--mu-pert", "-1", "--seed", "11",
               "--boundary", "negative", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel dimension 4" in out
    assert "boundary set S = " in out
    rec = json.loads((tmp_path / "kernel_count.json").read_text())
    assert rec["dimension"] == 4 and rec["seed"] == 11


def test_kernel_count_unsettled_frame_is_numeric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cs.cylinder, "_FRAME_TOL", 0.0)
    rc = main(["kernel-count", "--torus", SQ, "--cutoff", "1.5", "--weight", "0.5",
               "--eps", "1e-3", "--T", "5", "--out", str(tmp_path)])
    assert rc == 3
    assert "ERR NUMERIC" in capsys.readouterr().err
    assert not (tmp_path / "kernel_count.json").exists()


def test_kernel_count_near_a_root_reaches_its_level(tmp_path, capsys):
    # eps a fifth of the weight gap at cutoff 10: the march needs 2048 steps,
    # where a finest level of 640 or 1280 steps exited 3
    argv = ["kernel-count", "--cutoff", "10", "--weight", "3.04", "--seed", "1"]
    assert main(argv + ["--eps", "8e-3", "--mu-pert=-2", "--out", str(tmp_path / "pert")]) == 0
    assert main(argv + ["--out", str(tmp_path / "free")]) == 0
    rec, free = (json.loads((tmp_path / d / "kernel_count.json").read_text())
                 for d in ("pert", "free"))
    assert rec["dimension"] == free["dimension"] == 60


@pytest.fixture
def recorded_counts(monkeypatch):
    """The KernelCount of every perturbed_kernel_count call that main makes."""
    counts = []

    def recording(*args):
        counts.append(perturbed_kernel_count(*args))
        return counts[-1]

    perturbed_kernel_count = cli.perturbed_kernel_count
    monkeypatch.setattr(cli, "perturbed_kernel_count", recording)
    return counts


@pytest.mark.parametrize("s", [1e-7, 1.0])
def test_kernel_count_near_a_root_in_another_unit(tmp_path, recorded_counts, capsys, s):
    # the near-root command with every length, rate and time in the unit s:
    # the finest level is bounded relative to |mu_pert|, as the first is, so
    # s = 1e-7 marches the levels of s = 1 (an absolute finest level of 512
    # steps exited 3 there)
    side = repr(2 * np.pi * s)
    rc = main(["kernel-count", "--torus", f"{side},0,0,{side}", "--cutoff", repr(10 / s**2),
               "--weight", repr(3.04 / s), "--eps", repr(8e-3 / s), f"--mu-pert={-2 / s!r}",
               "--T", repr(30 * s), "--h", repr(0.01 * s), "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    [count] = recorded_counts
    assert count.dimension == 60
    assert count.march.levels == (16, 32, 128, 512, 2048)


def test_kernel_count_in_another_unit(tmp_path, recorded_counts, capsys):
    # the square torus with side 2 pi s and every rate, time and step in the
    # same unit: the frame's first level is bounded relative to |mu_pert|, so
    # the levels are those of s = 1 (at s = 1e6 an absolute bound on the first
    # step asked for a grid of 9975214 points and exited 2)
    counts = recorded_counts
    for s in (1e-7, 1.0, 1e6):
        side = repr(2 * np.pi * s)
        rc = main(["kernel-count", "--torus", f"{side},0,0,{side}", "--cutoff", repr(1.5 / s**2),
                   "--weight", repr(0.5 / s), "--eps", repr(1e-3 / s), f"--mu-pert={-1 / s!r}",
                   "--T", repr(30 * s), "--h", repr(0.01 * s), "--seed", "11",
                   "--boundary", "negative", "--out", str(tmp_path / repr(s))])
        assert rc == 0, capsys.readouterr().err
    assert [c.dimension for c in counts] == [4, 4, 4]
    assert counts[0].march.levels == counts[1].march.levels == counts[2].march.levels
    for c in counts:
        assert np.abs(c.singular_values - counts[1].singular_values).max() <= 1e-12


def test_kernel_count_critical_weight(capsys):
    rc = main(["kernel-count", "--torus", SQ, "--cutoff", "1.5", "--weight", "1.0"])
    assert rc == 4


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ends": "torus", "rates": "-0.5", "torus": SQ}))
    rc = main(["index", "--config", str(cfg), "--rates", "0.5"])
    assert rc == 0
    assert "index = 2" in capsys.readouterr().out


def test_json_determinism(tmp_path):
    # identical configs write byte-identical JSON and CSV; cutoff 10 is the
    # Green solve at the cylinder-end bench size, dim 148 x 3001 nodes
    runs = [(["spectrum", "--torus", SQ, "--cutoff", "2.5"], ["spectrum.json"]),
            (["cylinder-solve", "--cutoff", "1.5", "--weight=-0.5", "--T", "45"],
             ["cylinder_solve.json", "cylinder_modes.csv"]),
            (["cylinder-solve", "--cutoff", "10"], ["cylinder_solve.json", "cylinder_modes.csv"]),
            (["kernel-count", "--cutoff", "1.5", "--weight", "0.5", "--eps", "1e-3",
              "--mu-pert=-1", "--seed", "11", "--boundary", "negative"], ["kernel_count.json"])]
    for i, (argv, files) in enumerate(runs):
        out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for out in (out1, out2):
            assert main(argv + ["--out", str(out)]) == 0
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reproduce_tori(capsys):
    assert main(["reproduce", "tori"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    # the probe axiom check reads exactly 0.0 on this model, as the exact one did
    assert ("PASS model axioms: residuals {'selfadjoint': 0.0, 'j_square': 0.0, "
            "'j_orthogonal': 0.0, 'anticommute': 0.0}\n") in out
    # both multiplicity conventions recorded, neither asserted
    assert "= 8" in out and "12" in out


def test_reproduce_tori_evaluates_each_index_once(monkeypatch, capsys):
    calls = []
    fredholm = cs.index.fredholm_index
    monkeypatch.setattr(cs.index, "fredholm_index",
                        lambda *a, **k: calls.append(a[0]) or fredholm(*a, **k))
    assert main(["reproduce", "tori"]) == 0
    assert calls == [-0.5, 0.5]
    out = capsys.readouterr().out
    assert "PASS index -0.5 -> -2: got -2\n" in out
    assert "PASS index +0.5 -> +2 = d0/2: got 2\n" in out


def test_reproduce_sl(capsys):
    assert main(["reproduce", "sl"]) == 0
    out = capsys.readouterr().out
    assert "PASS genus-1 kernel" in out
    assert "PASS genus-2 kernel" in out
    assert "FAIL" not in out


def test_reproduce_unknown(capsys):
    assert main(["reproduce", "unknown"]) == 2
    assert "ERR CONFIG" in capsys.readouterr().err


def test_kernel_count_rejects_negative_eps(capsys):
    rc = main(["kernel-count", "--torus", SQ, "--cutoff", "1.5", "--weight", "0.5",
               "--eps=-0.1"])
    assert rc == 2
    assert "ERR CONFIG" in capsys.readouterr().err
    # a growing coupling is rejected by Perturbation itself
    rc = main(["kernel-count", "--eps", "1e-3", "--mu-pert", "1"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "ERR CONFIG: mu_pert must be negative (decaying coupling)\n"


@pytest.mark.parametrize("kind, text", [
    ("off", "OFF\n"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n"),
    ("config", "[1, 2]"),
    ("config", '{"cutoff": [1]}'),
], ids=["truncated-off", "face-index-nv", "config-list", "config-list-value"])
def test_malformed_input_is_config_error(tmp_path, capsys, kind, text):
    path = tmp_path / ("in.off" if kind == "off" else "in.json")
    path.write_text(text)
    if kind == "off":
        argv = ["spectrum", "--model", "sl", "--mesh", str(path), "--out", str(tmp_path)]
    else:
        argv = ["spectrum", "--config", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERR CONFIG: ") and err.count("\n") == 1


def test_non_ascii_off_reports_file_offset(tmp_path, capsys):
    # a 32 KB OFF with one non-ASCII byte near its end: the position printed
    # is the byte's offset in the file, not in a decoder's chunk
    path = tmp_path / "donut.off"
    cs.write_off(path, cs.parametric_torus_mesh(24, 16))
    data = bytearray(path.read_bytes())
    assert len(data) > 32335
    data[32335] = 0xE9
    path.write_bytes(bytes(data))
    assert main(["spectrum", "--model", "sl", "--mesh", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("ERR CONFIG: 'ascii' codec can't decode byte 0xe9 in "
                                       "position 32335: ordinal not in range(128)\n")


def test_cylinder_solve_rejects_bad_grid(capsys):
    rc = main(["cylinder-solve", "--torus", SQ, "--cutoff", "1.5", "--weight=-0.5",
               "--h", "50", "--T", "10"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["cylinder-solve", "--cutoff", "1.5", "--T", "1e10"],
    ["kernel-count", "--cutoff", "1.5", "--eps", "1e-3", "--mu-pert=-1e-9", "--T", "1e9"],
], ids=["cylinder-solve", "kernel-count"])
def test_oversized_cylinder_grid_is_config_error(tmp_path, capsys, argv):
    assert main(argv + ["--torus", SQ, "--out", str(tmp_path)]) == 2
    assert "above the limit 16777216" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cylinder_solve_rejects_partial_step(tmp_path, capsys):
    # T = 10 is not a whole number of steps h = 0.3; the grid would end at 9.9
    rc = main(["cylinder-solve", "--torus", SQ, "--cutoff", "1.5", "--T", "10",
               "--h", "0.3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERR CONFIG")
    assert not (tmp_path / "cylinder_solve.json").exists()


def test_index_sl_and_torus_ends(capsys):
    rc = main(["index", "--ends", "sl,torus", "--rates=0.7,-1.2", "--torus", SQ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "index = -8" in out
    assert "varying-cross-section virtual dimension: +4" in out


def test_wallcross_sl_end(capsys):
    rc = main(["wallcross", "--ends", "sl", "--rate1=-1.2", "--rate2", "1.2", "--torus", SQ])
    assert rc == 0
    assert "index jump +20" in capsys.readouterr().out


def test_linalg_error_is_numeric(monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError; it must still map to NUMERIC
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(cs.models, "build_torus_model", broken)
    rc = main(["spectrum", "--torus", SQ, "--cutoff", "2.5"])
    assert rc == 3
    assert "ERR NUMERIC" in capsys.readouterr().err


def test_non_finite_input_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["index", "--ends", "torus", "--rates=nan"],
                 ["cylinder-solve", "--weight", "nan"],
                 ["kernel-count", "--weight", "nan"],
                 ["kernel-count", "--weight", "inf", "--eps", "1e-3"],
                 ["cylinder-solve", "--profile-rate", "nan"],
                 ["kernel-count", "--eps", "nan"],
                 ["kernel-count", "--eps", "1e-3", "--mu-pert", "nan"]):
        assert main(argv + ["--torus", SQ, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR CONFIG: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("mu", ["-50", "-1e300"])
def test_kernel_count_fast_decaying_coupling(tmp_path, capsys, mu):
    # a coupling that lives only near t = 0: the graded march resolves it where
    # uniform steps needed thousands (or more than the cap allows)
    rc = main(["kernel-count", "--torus", SQ, "--cutoff", "2.5", "--eps", "1e-3",
               f"--mu-pert={mu}", "--out", str(tmp_path / "pert")])
    assert rc == 0
    main(["kernel-count", "--torus", SQ, "--cutoff", "2.5", "--out", str(tmp_path / "free")])
    rec, free = (json.loads((tmp_path / d / "kernel_count.json").read_text())
                 for d in ("pert", "free"))
    assert rec["dimension"] == free["dimension"] == 4
    assert rec["singular_values"] and np.isfinite(rec["singular_values"]).all()


def test_oversized_torus_model_is_config_error(tmp_path, capsys):
    # rejected from the estimated dim, before any lattice point is enumerated
    out = tmp_path / "out"
    for cutoff in ("1e4", "1e12"):
        start = time.perf_counter()
        assert main(["spectrum", "--cutoff", cutoff, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("ERR CONFIG: cutoff ") and err.count("\n") == 1
        assert "above the limit 4096" in err
        assert not out.exists()



def test_oversized_sl_grid_is_config_error(tmp_path, monkeypatch, capsys):
    # 4 n^2 is checked before the complex is built; --grid 400 once died on
    # an uncaught MemoryError in np.kron (a 160000 x 160000 eigenbasis)
    def unbuilt(*args, **kwargs):
        raise AssertionError("complex built for an oversized block model")

    monkeypatch.setattr(cs.dec, "quad_torus_complex", unbuilt)
    out = tmp_path / "out"
    for argv, grid, dim in ((["spectrum", "--model", "sl"], "400", 640000),
                            (["indicial", "--model", "sl"], "33", 4356),
                            (["index", "--ends", "torus,sl", "--rates=-0.5,0.5"], "40", 6400)):
        assert main(argv + ["--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"ERR CONFIG: grid {grid} gives a block model "
                                           f"of dim {dim}, above the limit 4096\n")
        assert not out.exists()


def test_long_thin_lattice_is_config_error(tmp_path, capsys):
    # the estimated dim (126) passes; the enumerated modes are rejected
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["spectrum", "--torus", "1884.9556,0,0,0.020944", "--cutoff", "10",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("ERR CONFIG: cutoff 10 gives a torus model of "
                                       "dim 7588, above the limit 4096\n")
    assert not out.exists()


def test_very_thin_lattice_rejected_before_enumeration(tmp_path):
    # the estimated dim (3183) passes, but the multiples of the lattice's
    # shortest vector alone give dim 1.3e8, whose enumeration would take
    # about 4 GB; they are counted instead.  Time and peak memory are the
    # command's own, taken in a fresh interpreter
    command = ("import sys, time\n"
               "from cylspec.cli import main\n"
               "start = time.perf_counter()\n"
               "rc = main(['spectrum', '--torus', '1e8,0,0,1e-4', '--cutoff', '1',\n"
               "           '--out', sys.argv[1]])\n"
               "print(rc, time.perf_counter() - start)\n")
    # ru_maxrss survives exec on Linux, so a child of this test process would
    # report the test process's peak: the command runs under a small launcher
    # interpreter, which reads the command's peak (kB) from RUSAGE_CHILDREN
    launcher = ("import resource, subprocess, sys\n"
                "subprocess.run([sys.executable, '-c'] + sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", launcher, command, str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    rc, seconds, maxrss_kb = run.stdout.split()
    assert int(rc) == 2
    assert float(seconds) < 1.0
    assert int(maxrss_kb) < 150 * 1024
    assert run.stderr == ("ERR CONFIG: cutoff 1 gives a torus model of dim 1.27324e+08, "
                          "above the limit 4096\n")
    assert not out.exists()


def test_non_finite_lattice_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["spectrum", "--cutoff", "inf"],
                 ["spectrum", "--cutoff", "nan"],
                 ["spectrum", "--torus", "nan,0,0,6"],
                 ["spectrum", "--torus", "inf,0,0,6"],
                 ["kernel-count", "--torus", "6,0,0,nan"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR CONFIG: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("argv, detail", [
    (["spectrum", "--torus", "1,0,0,0"], "lattice basis is singular (det=0.000e+00)"),
    # not singular relative to its size, but |k|^2 over its dual would overflow
    (["spectrum", "--torus", "1e-145,1e-145,0,1e-156", "--cutoff", "1"],
     "lattice basis is too thin for its size: its dual basis reaches 6.283e+156, above 1e150"),
    (["spectrum", "--model", "sl", "--mesh", "{dup}"], "directed side (0, 1) occurs twice"),
    (["indicial", "--window=-5,5"], "window [-5.0, 5.0] exceeds completeness radius 1.58114"),
    (["index", "--ends", "torus", "--rates=-5"],
     "end 0: |rate| = 5 exceeds completeness radius 1.58114"),
    (["wallcross", "--ends", "torus", "--rate1=0.5", "--rate2=-0.5"],
     "need rate1 < rate2 componentwise"),
], ids=["singular-lattice", "thin-tiny-lattice", "duplicated-side", "window", "rate", "unordered-rates"])
def test_input_fault_is_config_error(tmp_path, capsys, argv, detail):
    # faults in the input (lattice, mesh, window, rates), not numerical failures
    dup = tmp_path / "dup.off"
    dup.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 2\n")
    out = tmp_path / "out"
    argv = [a.format(dup=dup) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ERR CONFIG: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("s", [1.0, 10.0])
def test_mode_lambda_off_the_spectrum_in_any_unit(tmp_path, capsys, s):
    # the cutoff-2.5 square torus with side 2 pi s has its roots at 1/s and
    # sqrt(2)/s; 1.000008/s is off the first by 8e-6 of it, above the
    # spectrum's cluster tolerance 1e-6 * sqrt(2)/s in every unit
    side = repr(2 * np.pi * s)
    out = tmp_path / "out"
    assert main(["cylinder-solve", "--torus", f"{side},0,0,{side}", "--cutoff", repr(2.5 / s**2),
                 "--mode-lambda", repr(1.000008 / s), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"ERR CONFIG: mode_lambda {1.000008 / s!r} "
                                       f"is not an eigenvalue of the end\n")
    assert not out.exists()


@pytest.mark.parametrize("coord", ["nan", "inf"])
def test_non_finite_off_vertex_is_config_error(tmp_path, capsys, coord):
    # NaN fails every comparison, so the vertex is rejected as it enters,
    # before any length or area is formed from it
    path = tmp_path / "donut.off"
    cs.write_off(path, cs.parametric_torus_mesh(12, 8))
    lines = path.read_text().splitlines()
    lines[5] = f"1 {coord} 0"   # vertex 3
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--model", "sl", "--mesh", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ERR CONFIG: vertex 3 has a non-finite coordinate: [1.0, {coord}, 0.0]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cylinder-solve", "kernel-count"])
def test_step_count_overflow_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--cutoff", "1.5", "--T", "1e300", "--h", "1e-10", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "ERR CONFIG: T = 1e+300 over h = 1e-10 overflows the step count\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, detail", [
    (["spectrum", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
    (["transform"], "argument command: invalid choice: 'transform' (choose from "
     "'spectrum', 'indicial', 'index', 'wallcross', 'cylinder-solve', 'kernel-count', "
     "'reproduce')"),
    ([], "the following arguments are required: command"),
    (["spectrum", "--gird", "8"], "unrecognized arguments: --gird 8"),
], ids=["bad-value", "unknown-command", "no-command", "unknown-flag"])
def test_bad_flags_print_one_error_line(capsys, argv, detail):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ERR CONFIG: {detail}\n"
    assert captured.out == ""


def test_help_exits_ok(capsys):
    assert main(["spectrum", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cylspec spectrum")


@pytest.mark.parametrize("argv, config, detail", [
    (["indicial", "--window=1,2,3"], None, "expected 2 comma-separated reals, got 3"),
    (["cylinder-solve", "--cutoff", "1.5", "--mode-lambda", "0.77"], None,
     "mode_lambda 0.77 is not an eigenvalue of the end"),
    (["spectrum", "--config", "{missing}"], None, "config file not found: {missing}"),
    (["spectrum", "--config", "{cfg}"], {"model": "foo"}, "unknown model kind: foo"),
    (["index", "--config", "{cfg}"], {"ends": "foo"}, "unknown end kind: foo"),
], ids=["window-count", "mode-lambda", "missing-config", "config-model", "config-ends"])
def test_config_faults_name_themselves(tmp_path, capsys, argv, config, detail):
    paths = {"missing": tmp_path / "missing.json", "cfg": tmp_path / "cfg.json"}
    if config is not None:
        paths["cfg"].write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERR CONFIG: {detail.format(**paths)}\n"
    assert not out.exists()


@pytest.mark.parametrize("boundary, dimension, boundary_set", [
    ("none", 12, []), ("0,1,2", 9, [0, 1, 2])])
def test_kernel_count_explicit_boundary(tmp_path, capsys, boundary, dimension, boundary_set):
    # no boundary condition keeps the whole decaying subspace (dim 12 at
    # weight 0.5 on cutoff 1.5); three independent modes fixed at t = 0 cut it by 3
    assert main(["kernel-count", "--torus", SQ, "--cutoff", "1.5", "--boundary", boundary,
                 "--out", str(tmp_path)]) == 0
    count = json.loads((tmp_path / "kernel_count.json").read_text())
    assert (count["dimension"], count["decaying_dim"]) == (dimension, 12)
    assert count["boundary_set"] == boundary_set
    assert f"boundary set S = {boundary_set}" in capsys.readouterr().out


def test_kernel_count_repeated_boundary_index(tmp_path, capsys):
    # S is a set: a repeated index writes the bytes of the index given once
    outputs = []
    for boundary in ("0", "0,0"):
        out = tmp_path / boundary
        assert main(["kernel-count", "--cutoff", "1.5", "--eps", "1e-3", "--boundary", boundary,
                     "--out", str(out)]) == 0
        outputs.append(((out / "kernel_count.json").read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    count = json.loads(outputs[0][0])
    assert count["boundary_set"] == [0] and len(count["singular_values"]) == 1


def test_cli_import_leaves_out_the_sparse_solvers():
    # scipy.sparse.linalg is imported only by the shift-invert eigsh path
    probe = "import sys, {}; print('scipy.sparse.linalg' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = lambda module: subprocess.run([sys.executable, "-c", probe.format(module)],
                                        capture_output=True, text=True, env=env,
                                        timeout=120, check=True).stdout.strip()
    if run("scipy.sparse") == "True":
        pytest.skip("this scipy loads scipy.sparse.linalg with scipy.sparse")
    assert run("cylspec.cli") == "False"


@pytest.mark.parametrize("command, text, detail", [
    ("spectrum", '{"model": "sl", "grid": 4.9}', "config key 'grid' must be an integer, got 4.9"),
    ("spectrum", '{"model": "sl", "grid": true}', "config key 'grid' must be an integer, got True"),
    ("index", '{"ends": "sl", "grid": 4.9}', "config key 'grid' must be an integer, got 4.9"),
    ("kernel-count", '{"cutoff": 1.5, "eps": 1e-3, "seed": 2.7}',
     "config key 'seed' must be an integer, got 2.7"),
    ("spectrum", '{"model": "sl", "mesh": Infinity}',
     "config key 'mesh' must be a file path, got inf"),
    ("spectrum", '{"model": "sl", "mesh": 2}', "config key 'mesh' must be a file path, got 2"),
    ("spectrum", '{"model": "sl", "mesh": 0}', "config key 'mesh' must be a file path, got 0"),
], ids=["grid-float", "grid-bool", "index-grid-float", "seed-float", "mesh-inf", "mesh-fd",
        "mesh-zero"])
def test_config_value_of_the_wrong_type_is_config_error(tmp_path, capsys, command, text, detail):
    # a float is not truncated to an integer, and a number is not a mesh path
    # (2 would name the stderr descriptor, 0 would fall back to the grid)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERR CONFIG: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"model": "sl", "grid": 4}', '{"model": "sl", "grid": "4"}'],
                         ids=["integer", "string"])
def test_config_integer_keys_read_as_the_flag_reads_them(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("dim 64, ")


def test_reproduce_sl_j_square_matches_the_dense_check(capsys):
    # reproduce sl applies J twice to the identity 128 columns at a time;
    # the dense J (J I) + I gives the printed residual too
    model = cs.build_sl_model(cs.quad_torus_complex(cs.square_torus(), 12))
    j = model.complex_structure
    dense = float(np.abs(j @ j.toarray() + np.eye(model.dim)).max())
    assert main(["reproduce", "sl"]) == 0
    assert f"PASS J^2 = -1: residual {dense:.3e}\n" in capsys.readouterr().out


def run_quietly(argv):
    """main(argv) with its stdout, stderr and warnings captured; a warning of
    any kind is recorded, not printed, and an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("argv, detail", [
    (["kernel-count", "--eps=10"], "eps = 10 is not small against the weight gap 0.5"),
    (["cylinder-solve", "--weight=1e308"],
     "weight = 1e+308 and T = 30 put e^(-weight t) out of float range"),
    (["cylinder-solve", "--weight=-1e308", "--profile-rate=-inf"],
     "profile_rate must be finite, got -inf"),
    (["cylinder-solve", "--profile-rate=-inf"], "profile_rate must be finite, got -inf"),
    (["cylinder-solve", "--profile-rate=-1e308", "--T", "5"],
     "profile_rate = -1e+308 and T = 5 put e^(profile_rate t) out of float range"),
    (["kernel-count", "--eps", "1e-3", "--mu-pert=-inf"], "mu_pert must be finite, got -inf"),
    (["kernel-count", "--eps", "1e-3", "--seed=-1"], "seed must be >= 0, got -1"),
    (["cylinder-solve", "--T", "1.5", "--h", "0.5"],
     "need at least 5 grid points for the 4th-order stencil"),
], ids=["eps-too-large", "weight-overflow", "rate-inf-first", "profile-rate-inf",
        "profile-rate-overflow", "mu-pert-inf", "negative-seed", "short-grid"])
def test_input_fault_prints_one_line_and_no_warning(tmp_path, argv, detail):
    # faults in the values given, not numerical failures: one ERR CONFIG
    # line, no RuntimeWarning from an overflowing exponential, no output
    out = tmp_path / "out"
    rc, stdout, stderr, caught = run_quietly(argv + ["--cutoff", "1.5", "--out", str(out)])
    assert (rc, stdout, stderr, caught) == (2, "", f"ERR CONFIG: {detail}\n", [])
    assert not out.exists()


@pytest.mark.parametrize("mu", ["-1e308", "-5e-324"])
def test_coupling_rate_at_the_ends_of_float_range_is_quiet(tmp_path, mu):
    # mu_pert t overflows to -inf on the frame grid (the coupling is 0
    # there), or the grading rate -mu_pert / 5 underflows to 0 (the grid is
    # uniform): a count, with no warning
    rc, stdout, stderr, caught = run_quietly(["kernel-count", "--eps", "1e-3", f"--mu-pert={mu}",
                                              "--out", str(tmp_path)])
    assert (rc, stderr, caught) == (0, "", [])
    assert stdout.startswith("kernel dimension 4 at weight 0.5 ")


def test_huge_off_vertex_is_config_error(tmp_path):
    # a finite coordinate whose edge length overflows, or is finite but so
    # long that Heron's formula would: rejected before any area is formed
    path = tmp_path / "donut.off"
    cs.write_off(path, cs.parametric_torus_mesh(12, 8))
    lines = path.read_text().splitlines()
    out = tmp_path / "out"
    for vertex, length in (("1e308 0 0", "a non-finite length inf"),
                           ("1e100 0 0", "a length above 1e+75: 1e+100")):
        lines[2] = vertex   # vertex 0
        path.write_text("\n".join(lines) + "\n")
        rc, stdout, stderr, caught = run_quietly(["spectrum", "--model", "sl", "--mesh",
                                                  str(path), "--out", str(out)])
        assert (rc, stdout, caught) == (2, "", [])
        assert stderr == f"ERR CONFIG: edge 0 from vertex 0 to 1 has {length}\n"
        assert not out.exists()


def test_scaled_off_keeps_its_clusters_or_is_config_error(tmp_path):
    # the donut scaled by 1e4 or 1e32 has the unscaled cluster multiplicities
    # (d0 = 4 first); scaled by 1e-80 its triangles are below the side-length limit
    surf = cs.parametric_torus_mesh(12, 8)
    dims = {}
    for scale in (1.0, 1e4, 1e32, 1e-80):
        path, out = tmp_path / f"donut_{scale:g}.off", tmp_path / f"out_{scale:g}"
        path.write_text(f"OFF\n{surf.n_vertices} {surf.n_triangles} 0\n"
                        + "".join(" ".join(map(repr, p)) + "\n"
                                  for p in (surf.vertex_positions * scale).tolist())
                        + "".join(f"3 {a} {b} {c}\n" for a, b, c in surf.triangles.tolist()))
        rc, stdout, stderr, caught = run_quietly(["spectrum", "--model", "sl", "--mesh",
                                                  str(path), "--out", str(out)])
        if scale < 1.0:
            assert (rc, stdout, caught) == (2, "", [])
            assert re.fullmatch(r"ERR CONFIG: triangle \d+ has no side of length 1e-73 or "
                                r"more: the longest is \S+\n", stderr)
            continue
        assert (rc, stderr, caught) == (0, "", [])
        clusters = json.loads((out / "spectrum.json").read_text())["clusters"]
        dims[scale] = [c["d"] for c in clusters]
        assert [c["d"] for c in clusters if c["lambda"] == 0.0] == [4]
    assert dims[1e4] == dims[1e32] == dims[1.0]


def test_off_face_index_past_int64_is_config_error(tmp_path):
    path = tmp_path / "big.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 1 2 99999999999999999999\n3 0 3 2\n")
    rc, stdout, stderr, caught = run_quietly(["spectrum", "--model", "sl", "--mesh", str(path),
                                              "--out", str(tmp_path / "out")])
    assert (rc, stdout, caught) == (2, "", [])
    assert stderr == ("ERR CONFIG: face 2 has a vertex index outside [0, 4): "
                      "[1, 2, 99999999999999999999]\n")


def test_two_tetrahedra_on_one_vertex_fail_the_euler_check(tmp_path):
    # every edge in two triangles, consistently oriented, but chi = 7 - 12 + 8 = 3
    pos = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n"
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2),
             (0, 4, 5), (0, 6, 4), (4, 6, 5), (0, 5, 6)]
    path = tmp_path / "two_tetra.off"
    path.write_text("OFF\n7 8 12\n" + pos + "".join(f"3 {a} {b} {c}\n" for a, b, c in faces))
    rc, stdout, stderr, caught = run_quietly(["spectrum", "--model", "sl", "--mesh", str(path),
                                              "--out", str(tmp_path / "out")])
    assert (rc, stdout, caught) == (2, "", [])
    assert stderr == "ERR CONFIG: Euler characteristic 3 is not that of a closed surface\n"


NUMERIC_KEYS = {   # each number-valued key and a command that takes it
    "cutoff": "spectrum", "grid": "spectrum", "torus": "spectrum", "window": "indicial",
    "rates": "index", "rate1": "wallcross", "rate2": "wallcross", "weight": "cylinder-solve",
    "T": "cylinder-solve", "h": "cylinder-solve", "mode_lambda": "cylinder-solve",
    "profile_rate": "cylinder-solve", "eps": "kernel-count", "mu_pert": "kernel-count",
    "seed": "kernel-count",
}


def test_numeric_keys_cover_the_key_table():
    kinds = {key: spec.kind.what for key, spec in cli._KEYS.items()}
    assert sorted(NUMERIC_KEYS) == sorted(key for key, what in kinds.items()
                                          if what in ("a real number", "an integer",
                                                      "a comma list of reals"))
    for key, command in NUMERIC_KEYS.items():
        assert key in cli._COMMANDS[command][2]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_json_true_is_no_number(tmp_path, capsys, key):
    # bool is an int in Python; a JSON true once built the cutoff-1 model
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: True}))
    out = tmp_path / "out"
    assert main([NUMERIC_KEYS[key], "--config", str(cfg), "--out", str(out)]) == 2
    what = cli._KEYS[key].kind.what
    assert capsys.readouterr().err == f"ERR CONFIG: config key {key!r} must be {what}, got True\n"
    assert not out.exists()


@pytest.mark.parametrize("text, detail", [
    ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"out": 5}', "config key 'out' must be a file path, got 5"),
    ('{"cutoff": NaN}', "cutoff must be finite, got nan"),
    ('{"cutoff": 1e400}', "cutoff must be finite, got inf"),
    ('{"cutoff": "1.5", "unused": 4.9}', None),
], ids=["bad-json", "out-number", "nan", "overflowing-number", "string-number"])
def test_config_values_are_typed_by_the_key_table(tmp_path, capsys, text, detail):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    if detail is None:
        assert rc == 0 and capsys.readouterr().out.startswith("dim 20, ")
    else:
        assert rc == 2
        assert capsys.readouterr().err == f"ERR CONFIG: {detail}\n"
        assert not out.exists()


def test_config_number_reads_as_its_flag_text(tmp_path, capsys):
    # a JSON number is read as the flag would read its text: one rate, one
    # boundary mode
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rates": -0.5, "boundary": 0, "cutoff": 1.5}))
    assert main(["index", "--config", str(cfg)]) == 0
    assert "index = -2" in capsys.readouterr().out
    assert main(["kernel-count", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "boundary set S = [0]" in capsys.readouterr().out


def torus_15():
    return cs.eigendecompose(cs.build_torus_model(cs.square_torus(), 1.5))


@pytest.mark.parametrize("call", [
    lambda: cs.FlatTorus(np.array([[np.nan, 0], [0, 1.0]])),
    lambda: cs.FlatTorus(np.array([[1e200, 0], [0, 1e200]])),
    lambda: cs.FlatTorus(np.array([[1e-151, 0], [0, 1e-151]])),
    lambda: cs.FlatTorus(np.array([[1e-145, 1e-145], [0, 1e-156]])),
    lambda: cs.FlatTorus(np.zeros((2, 2))),
    lambda: cs.dual_lattice_points(cs.square_torus(), 0.0),
    lambda: cs.quad_torus_complex(cs.square_torus(), 1),
    lambda: cs.quad_torus_complex(cs.FlatTorus(np.array([[6.0, 1.0], [0.0, 6.0]])), 4),
    lambda: cs.surface_from_triangles([[np.inf, 0, 0]] * 3, [[0, 1, 2], [0, 2, 1]]),
    lambda: cs.fredholm_index([-0.5, -0.5], cs.EndSystem((cs.synthetic_spectrum([], 2.0),))),
    lambda: cs.indicial_roots(cs.synthetic_spectrum([], 2.0), (1.0, 0.0)),
    lambda: cs.cylinder.Perturbation(1e-3, 1.0, 0),
    lambda: cs.cylinder.make_perturbation(4, 1e-3, -1.0, seed=-1),
    lambda: cs.CylinderOperator(torus_15(), 30.0, 0.01, cs.cylinder.Perturbation(1e-3, -1.0, 0)),
    lambda: cs.CylinderOperator(torus_15(), 30.0, 0.01, cs.make_perturbation(3, 1e-3, -1.0)),
    lambda: cs.cylinder.differentiate(np.zeros(4), 0.1),
    lambda: cs.make_perturbation(4, 1e-3, -np.inf),
    lambda: cs.make_perturbation(4, np.nan, -1.0),
    lambda: cs.make_perturbation(4, -1e-3, -1.0),
    *[lambda s=s: cs.perturbed_kernel_count(cs.CylinderOperator(torus_15(), 30.0, 0.01), 0.5, s)
      for s in ([1.5], [True], [0, 1.0], [np.bool_(True)], ["1"])],
], ids=["lattice-nan", "lattice-huge", "lattice-tiny", "lattice-thin", "lattice-zero", "cutoff", "grid", "oblique-grid", "vertex-inf", "rate-count",
        "window", "mu-pert", "seed", "no-coupling", "coupling-3x3", "stencil", "mu-pert-inf",
        "eps-nan", "eps-negative", "boundary-float", "boundary-bool", "boundary-integral-float",
        "boundary-numpy-bool", "boundary-text"])
def test_library_input_checks_raise_input_error(call):
    # an InputError is a ValueError for library callers and a ConfigError
    # for the command line
    with pytest.raises(InputError) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, ConfigError)


# values the property below draws for each key: valid ones kept small
# (cutoff <= 2.5, grid <= 4, T <= 5), then faults the key table or the
# library must catch, drawn one time in four, with the FAULTS of every key;
# a value is given as a flag's text or as a JSON config value
FAULTS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, True, False, "x", "1,2"]
POOLS = {
    "cutoff": ([0.5, 1.5, 2.5], [-1.0, 0.0]),
    "grid": ([2, 3, 4], [0, -3, 4.9]),
    "T": ([2.0, 5.0, 0.5], [-1.0, 0.0]),
    "h": ([0.05, 0.1, 0.5], [-0.1, 0.0, 1e-300]),
    "weight": ([-0.5, 0.5, 0.25, -2.0, 1.0], [-1e300, 1e300]),
    "mode_lambda": ([1.0, -1.0], [0.77]),
    "profile_rate": ([-1.0, -2.5, 0.0, 3.0], [-1e300, 1e300]),
    "eps": ([0.0, 1e-3, 0.05], [10.0, -0.1]),
    "mu_pert": ([-1.0, -5.0, -50.0, -1e300], [1.0, 0.0]),
    "seed": ([0, 7], [-1, 2.7]),
    "torus": ([SQ, "6,0,0,3"], ["1,0,0,0", "6,1,0,6", "1,2,3", "nan,0,0,6", "inf,0,0,6", -0.5,
                                   "1e308,0,0,1e308"]),
    "window": (["-1.2,1.2", "0,1"], ["1,0", "-5,5", "nan,1", "1,2,3", 0.5]),
    "rates": (["-0.5", "0.5", "-0.5,0.5", -0.5], ["0", "-5", "", "nan", "1e308"]),
    "ends": (["torus", "sl", "torus,sl"], ["foo", "", 3]),
    "model": (["torus", "sl"], ["foo", 2]),
    "mesh": (["{mesh}"], ["missing.off", 2, float("inf")]),
    "boundary": (["negative", "none", "0,1", 3],
                 ["x", "-1", "999", 2.5, "99999999999999999999"]),
}
POOLS["rate1"] = POOLS["rate2"] = POOLS["rates"]


@st.composite
def command_lines(draw):
    """A command with some of its keys (never out) drawn from POOLS, each
    given as a flag or in the config file."""
    command = draw(st.sampled_from(sorted(set(NUMERIC_KEYS.values()))))
    flags, config = [], {}
    for key in cli._COMMANDS[command][2]:
        if key == "out" or not draw(st.booleans()):
            continue
        valid, faults = POOLS[key]
        val = draw(st.sampled_from(faults + FAULTS if draw(st.integers(0, 3)) == 0 else valid))
        if draw(st.booleans()):
            config[key] = val
        else:
            flags.append(f"{cli._KEYS[key].flag}={val}")
    return command, flags, config


@pytest.fixture(scope="module")
def small_mesh(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "donut.off"
    cs.write_off(path, cs.parametric_torus_mesh(6, 4))
    return str(path)


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_input_exits_with_a_code_and_one_line(small_mesh, line):
    # drawn from the key table: whatever the values, main returns an exit
    # code (no exception escapes), a failure prints exactly one ERR line and
    # no run prints a warning
    command, flags, config = line
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + [f.replace("{mesh}", small_mesh) for f in flags]
        argv += ["--out", os.path.join(tmp, "out")]
        if config:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(config).replace("{mesh}", small_mesh))
            argv += ["--config", path]
        rc, _, stderr, caught = run_quietly(argv)
    assert rc in (0, 2, 3, 4, 5)
    assert caught == []
    assert "Warning" not in stderr and "Traceback" not in stderr
    if rc == 0:
        assert stderr == ""
    else:
        assert stderr.count("\n") == 1 and stderr.startswith("ERR ")
