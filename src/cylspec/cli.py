"""Command-line front end.

Commands: spectrum, indicial, index, wallcross, cylinder-solve, kernel-count,
reproduce.  One table, _KEYS, gives every flag its spelling, its kind (a
real, an integer, a comma list of reals, mode indices, a name or a path)
and its range, every real being finite; _COMMANDS lists the keys of each
command at its defaults.  A JSON config file (--config) holds the same keys,
each value read as its flag reads it; flags override file values.  Exit
codes: 0 ok, 2 config error (bad flags or files and every input fault, from
a JSON true for a number to a singular lattice, a degenerate mesh or a
coupling too strong for the weight gap), 3 numerical failure, 4 critical
rate/weight, 5 reproduction mismatch.  Every error path prints one line
"ERR <CODE>: <detail>" to stderr.  Identical configs produce byte-identical
JSON (keys sorted, no timestamps, seeds recorded), at any BLAS thread count
except for block models on meshes, whose spectra come from a dense eigh.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import dec, index, lattice, mesh, models, spectral
from .cylinder import (CylinderOperator, check_exponential, make_perturbation,
                       perturbed_kernel_count, solve_cylinder)
from .errors import ConfigError, CriticalRate, CriticalWeight, CylspecError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CRITICAL = 4
EXIT_MISMATCH = 5

_CSV_ROWS = 256   # grid points per piece of cylinder_modes.csv


def _write(out, name, text):
    """Write text and a newline to the file name in the directory out."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def reals(text: str) -> list:
    """A comma list of reals; empty items are skipped."""
    return [float(x) for x in text.split(",") if x != ""]


def modes(text: str):
    """'negative', or a comma list of mode indices ('none' or '' for none)."""
    if text == "negative":
        return text
    return [] if text in ("none", "") else [int(x) for x in text.split(",")]


# How a value is read: ``parse`` reads a flag's text, and argparse names it
# by its __name__ in a bad-value message.  A config file gives that text as
# a JSON string or, where ``numbers``, as a JSON number, read as its text (a
# JSON true reads "True", no number); ``what`` names the kind in the error.
_Kind = namedtuple("_Kind", "parse what numbers", defaults=(True,))
_REAL = _Kind(float, "a real number")
_INT = _Kind(int, "an integer")
_REALS = _Kind(reals, "a comma list of reals")
_MODES = _Kind(modes, "'negative', 'none' or a comma list of mode indices")
_NAME = _Kind(str, "a string", False)
_PATH = _Kind(str, "a file path", False)


# One flag and config key: its spelling, kind and help, the count of a
# fixed-length list and the least allowed value; every real must be finite.
_Key = namedtuple("_Key", "flag kind help count least", defaults=(None, None))
_KEYS = {
    "example": _Key("example", _NAME, "example id: tori or sl"),
    "out": _Key("--out", _PATH, "output directory"),
    "torus": _Key("--torus", _REALS, "lattice basis, 4 reals row-major", count=4),
    "cutoff": _Key("--cutoff", _REAL, "spectral truncation |k|^2 <= cutoff"),
    "model": _Key("--model", _NAME, "model kind: torus or sl"),
    "mesh": _Key("--mesh", _PATH, "OFF mesh file (sl model)"),
    "grid": _Key("--grid", _INT, "quad-grid resolution (sl model)"),
    "window": _Key("--window", _REALS, "lo,hi", count=2),
    "ends": _Key("--ends", _NAME, "comma list of end kinds (torus, sl)"),
    "rates": _Key("--rates", _REALS, "comma list of rates, one per end"),
    "rate1": _Key("--rate1", _REALS, "comma list of rates before the walls"),
    "rate2": _Key("--rate2", _REALS, "comma list of rates after the walls"),
    "weight": _Key("--weight", _REAL, "cylinder weight w"),
    "T": _Key("--T", _REAL, "length of the time grid"),
    "h": _Key("--h", _REAL, "step of the time grid"),
    "mode_lambda": _Key("--mode-lambda", _REAL, "eigenvalue of the manufactured mode"),
    "profile_rate": _Key("--profile-rate", _REAL, "decay rate of the manufactured profile"),
    "eps": _Key("--eps", _REAL, "coupling strength", least=0.0),
    "mu_pert": _Key("--mu-pert", _REAL, "decay rate of the coupling, negative"),
    "seed": _Key("--seed", _INT, "seed of the coupling matrix"),
    "boundary": _Key("--boundary", _MODES, "'negative', 'none', or comma list of mode indices"),
}

_SQUARE = [lattice.TWO_PI, 0.0, 0.0, lattice.TWO_PI]


def _from_json(key: str, val):
    """A config value read as its flag reads it."""
    kind = _KEYS[key].kind
    if isinstance(val, str) or (kind.numbers and isinstance(val, (int, float))):
        try:
            return kind.parse(str(val))
        except ValueError:
            pass
    raise ConfigError(f"config key {key!r} must be {kind.what}, got {val!r}")


def _check(key: str, val):
    """ConfigError unless the typed value is finite and in the key's range."""
    spec = _KEYS[key]
    if spec.count is not None and len(val) != spec.count:
        raise ConfigError(f"expected {spec.count} comma-separated reals, got {len(val)}")
    if spec.kind in (_REAL, _REALS) and not all(map(math.isfinite, np.ravel(val))):
        raise ConfigError(f"{key} must be finite, got {val}")
    if spec.least is not None and not val >= spec.least:
        raise ConfigError(f"{key} must be >= {spec.least:g}, got {val}")


def _merge_config(args) -> dict:
    """The command's keys at its defaults, overridden by the JSON config's
    values (if any), then by the flags given; every value typed and checked
    by its key's entry.  A config key the command does not take is ignored
    if it holds a string or a number."""
    defaults = _COMMANDS[args.command][2]
    cfg = dict(defaults)
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="ascii") as fh:
            try:
                given = json.load(fh)
            except ValueError as exc:   # a JSONDecodeError or a UnicodeDecodeError
                raise ConfigError(str(exc)) from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in given.items():
            if key in defaults:
                cfg[key] = _from_json(key, val)
            elif not isinstance(val, (str, int, float)):
                raise ConfigError(f"config key {key!r} must hold a string or a number")
    cfg.update((key, val) for key in defaults if (val := getattr(args, key)) is not None)
    for key, val in cfg.items():
        if val is not None:
            _check(key, val)
    return cfg


def _model(cfg, kind, role="model") -> models.DiracModel:
    """The torus or sl model named by kind, from the cutoff, grid and (on
    commands that take it) mesh keys."""
    if kind == "torus":
        return models.build_torus_model(lattice.FlatTorus(cfg["torus"]), cfg["cutoff"])
    if kind == "sl":
        path = cfg.get("mesh")
        if path:
            if not os.path.exists(path):
                raise ConfigError(f"mesh file not found: {path}")
            cc = dec.build_dec(mesh.read_off(path))
        else:
            n = cfg["grid"]
            if n >= 2:   # quad_torus_complex rejects the others
                models.check_sl_dim(4 * n * n, f"grid {n}")
            cc = dec.quad_torus_complex(lattice.FlatTorus(cfg["torus"]), n)
        return models.build_sl_model(cc)
    raise ConfigError(f"unknown {role} kind: {kind}")


def _end_spectra(cfg) -> index.EndSystem:
    """One spectrum per listed end; a repeated end name is solved once."""
    names = [name.strip() for name in cfg["ends"].split(",")]
    spectra = {name: spectral.eigendecompose(_model(cfg, name, "end"))
               for name in dict.fromkeys(names)}
    return index.EndSystem(tuple(spectra[name] for name in names))


def _cylinder_end(cfg) -> CylinderOperator:
    """Unperturbed operator on the torus end and the time grid (T, h);
    CylinderOperator rejects a grid that is not whole steps."""
    spec = spectral.eigendecompose(_model(cfg, "torus"))
    return CylinderOperator(spec, cfg["T"], cfg["h"])


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(cfg) -> int:
    model = _model(cfg, cfg["model"])
    spec = spectral.eigendecompose(model)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "spectrum.csv")
    spectral.spectrum_to_csv(spec, csv_path)
    summary = {
        "label": model.label,
        "dim": model.dim,
        "completeness_radius": spec.completeness_radius,
        "clusters": [{"lambda": c.lam, "d": c.dim} for c in spec.clusters],
        "csv": os.path.basename(csv_path),
    }
    _write(out, "spectrum.json", json.dumps(summary, sort_keys=True, indent=1))
    print(f"dim {model.dim}, {len(spec.clusters)} clusters, "
          f"completeness radius {spec.completeness_radius:.6g}")
    for c in spec.clusters:
        print(f"  lambda = {c.lam:12.6g}   d = {c.dim}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_indicial(cfg) -> int:
    spec = spectral.eigendecompose(_model(cfg, cfg["model"]))
    lo, hi = cfg["window"]
    roots = spectral.indicial_roots(spec, (lo, hi))
    print(f"indicial roots in [{lo:.6g}, {hi:.6g}]:")
    for lam, d in roots:
        print(f"  lambda = {lam:12.6g}   d = {d}")
    if not roots:
        print("  (none)")
    return EXIT_OK


def cmd_index(cfg) -> int:
    ends, rates = _end_spectra(cfg), cfg["rates"]
    report = index.fredholm_index(rates, ends)
    print(report.table())
    if all(r < 0 for r in rates):
        fixed = index.fixed_moduli_vdim(rates, ends)
        print(f"fixed-cross-section virtual dimension:   {fixed:+d}  [{index.FIXED_TAG}]")
    varying = index.varying_moduli_vdim(ends)
    print(f"varying-cross-section virtual dimension: {varying:+d}  [{index.VARYING_TAG}]")
    if cfg["out"]:
        _write(cfg["out"], "index.json", report.to_json())
    return EXIT_OK


def cmd_wallcross(cfg) -> int:
    ends = _end_spectra(cfg)
    r1, r2 = cfg["rate1"], cfg["rate2"]
    jump, crossed = index.wall_crossing(r1, r2, ends)
    print(f"index jump {jump:+d} from rates {r1} to {r2}")
    for i, roots in enumerate(crossed):
        txt = ", ".join(f"{l:.6g} (d={d})" for l, d in roots) or "-"
        print(f"  end {i}: crossed {txt}")
    return EXIT_OK


def cmd_cylinder_solve(cfg) -> int:
    op = _cylinder_end(cfg)
    spec = op.base
    weight, rate, lam_target = cfg["weight"], cfg["profile_rate"], cfg["mode_lambda"]
    if not rate < weight:
        raise ConfigError("profile_rate must lie below the weight for a fair recovery")
    check_exponential("profile_rate", rate, 1, op.t_final)

    cluster = spec.cluster_at(lam_target, tol=1e-6 * max(spec.spectral_radius, 1.0))
    if cluster is None:
        raise ConfigError(f"mode_lambda {lam_target} is not an eigenvalue of the end")
    jmode = cluster.start
    t = op.tgrid
    # manufactured decaying profile on mode jmode and its exact right-hand
    # side, each zero on every other mode, so kept as one row
    u_true = np.exp(rate * t) * np.sin(t)
    g_true = np.exp(rate * t) * (rate * np.sin(t) + np.cos(t)) - spec.eigenvalues[jmode] * u_true
    f = spec.jmat[:, [jmode]] @ g_true[None, :]   # g = -(J f)  =>  f = -J^{-1} g = J g
    sol = solve_cylinder(op, f, weight)

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "cylinder_modes.csv")
    wfac = np.exp(-weight * t)
    scale = float((np.abs(u_true) * wfac).max())
    errs = []
    # the CSV rows and the error |u - u_true| are formed _CSV_ROWS grid points
    # at a time, so no copy of the whole solution is made
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("t," + ",".join(f"mode_{j}" for j in range(op.dim)) + "\n")
        for a in range(0, t.size, _CSV_ROWS):
            rows = slice(a, a + _CSV_ROWS)
            piece = sol.coeffs[:, rows]
            np.savetxt(fh, np.column_stack([t[rows], piece.T]), delimiter=",", fmt="%.17g")
            dev = np.abs(piece)
            dev[jmode] = np.abs(piece[jmode] - u_true[rows])
            errs.append((dev.max(axis=0) * wfac[rows]).max())
    rel = float(np.max(errs)) / max(scale, 1e-300)
    summary = {
        "weight": weight, "T": op.t_final, "h": op.step,
        "mode_lambda": lam_target, "profile_rate": rate,
        "residual": sol.residual, "weighted_sup": sol.weighted_sup,
        "manufactured_relative_error": rel,
        "csv": os.path.basename(csv_path),
    }
    _write(out, "cylinder_solve.json", json.dumps(summary, sort_keys=True, indent=1))
    print(f"weighted residual {sol.residual:.3e}, manufactured error {rel:.3e}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_kernel_count(cfg) -> int:
    op = _cylinder_end(cfg)
    spec = op.base
    weight, eps, mu_pert, seed = cfg["weight"], cfg["eps"], cfg["mu_pert"], cfg["seed"]
    s_set = cfg["boundary"]
    if s_set == "negative":
        s_set = np.flatnonzero(spec.eigenvalues < -spec.cluster_tol).tolist()
    if eps > 0:
        op = replace(op, perturbation=make_perturbation(spec.dim, eps, mu_pert, seed))
    count = perturbed_kernel_count(op, weight, s_set)
    _write(cfg["out"], "kernel_count.json", count.to_json())
    print(f"kernel dimension {count.dimension} at weight {weight:.6g} "
          f"(decaying subspace {count.decaying_dim}, eps {eps}, seed {seed})")
    print(f"boundary set S = {list(count.boundary_set)}")
    return EXIT_OK


def _report(checks) -> int:
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_MISMATCH


def cmd_reproduce(cfg) -> int:
    target = cfg["example"]
    if target == "tori":
        torus = lattice.square_torus()
        model = models.build_torus_model(torus, 2.5)
        spec = spectral.eigendecompose(model)
        ends = index.EndSystem((spec,))
        diag = models.check_model(model)
        mirrors = [spec.cluster_at(-c.lam) for c in spec.clusters]
        sym = all(m is not None and m.dim == c.dim for m, c in zip(mirrors, spec.clusters))
        d_sqrt2_cluster = spec.cluster_at(np.sqrt(2.0), tol=1e-6)
        d_sqrt2 = 0 if d_sqrt2_cluster is None else d_sqrt2_cluster.dim
        d0, d1 = spec.d0(), spec.cluster_at(1.0).dim
        ind_minus = index.fredholm_index(-0.5, ends).index
        ind_plus = index.fredholm_index(0.5, ends).index
        checks = [
            ("model axioms", diag.passed, f"residuals {diag.residuals}"),
            ("d0 = 4", d0 == 4, f"d0 = {d0}"),
            ("d1 = 8", d1 == 8, f"d1 = {d1}"),
            ("spectrum symmetric", sym, "d_lambda = d_{-lambda} for all clusters"),
            ("index -0.5 -> -2", ind_minus == -2, f"got {ind_minus}"),
            ("index +0.5 -> +2 = d0/2", ind_plus == 2, f"got {ind_plus}"),
        ]
        print(f"note: d at sqrt(2) = {d_sqrt2} on the square 2*pi torus by antipodal-pair "
              "count; published tables also carry a count of 12 under a different, "
              "unrecorded lattice normalization. Both values recorded; neither asserted.")
        return _report(checks)
    if target == "sl":
        cc1 = dec.quad_torus_complex(lattice.square_torus(), 12)
        model1 = models.build_sl_model(cc1)
        spec1 = spectral.eigendecompose(model1)
        dsq1 = float(np.abs(model1.dirac @ model1.dirac
                            - models.sl_laplacian_blocks(cc1)).max())
        cc2 = dec.genus2_quad_complex()
        model2 = models.build_sl_model(cc2)
        spec2 = spectral.eigendecompose(model2)
        # max |J (J X) + X| over the identity's columns, a few at a time
        j1, dim, width = model1.complex_structure, model1.dim, spectral._RESIDUAL_COLUMNS
        jsq = max(float(np.abs(j1 @ (j1 @ x) + x).max())
                  for x in (np.eye(dim, min(width, dim - s), -s) for s in range(0, dim, width)))
        checks = [
            ("genus-1 kernel 2+2g = 4", spec1.d0() == 4, f"d0 = {spec1.d0()}"),
            ("genus-2 kernel 2+2g = 6", spec2.d0() == 6, f"d0 = {spec2.d0()}"),
            ("block square decomposition", dsq1 <= 1e-10, f"residual {dsq1:.3e}"),
            ("J^2 = -1", jsq <= 1e-12, f"residual {jsq:.3e}"),
        ]
        return _report(checks)
    raise ConfigError(f"unknown example id: {target!r} (expected 'tori' or 'sl')")


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose faults (a bad value, an unknown flag or
    command, a missing command) raise ConfigError instead of printing usage."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each command takes
    --config and the flags of its keys, each read by its key's kind."""
    ap = _Parser(
        prog="cylspec",
        description="Dirac model spectra, weighted indices and cylinder-end solvers")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in defaults:
            spec = _KEYS[key]
            p.add_argument(spec.flag, type=spec.kind.parse, help=spec.help)
    return ap


# each command: its function, its help and the keys it takes, at its defaults
_COMMANDS = {
    "spectrum": (cmd_spectrum, "eigendecompose a model; write CSV + clusters",
                 dict(out=".", torus=_SQUARE, cutoff=2.5, model="torus", mesh=None, grid=16)),
    "indicial": (cmd_indicial, "indicial roots in a window",
                 dict(out=None, torus=_SQUARE, cutoff=2.5, model="torus", mesh=None, grid=16,
                      window=[-1.2, 1.2])),
    "index": (cmd_index, "weighted index and virtual dimensions",
              dict(out=None, torus=_SQUARE, cutoff=2.5, ends="torus", rates=[-0.5], grid=8)),
    "wallcross": (cmd_wallcross, "index jump between two rate vectors",
                  dict(out=None, torus=_SQUARE, cutoff=2.5, ends="torus", rate1=[-0.5],
                       rate2=[0.5], grid=8)),
    "cylinder-solve": (cmd_cylinder_solve, "manufactured weighted Green solve",
                       dict(out=".", torus=_SQUARE, cutoff=1.5, weight=-0.5, T=30.0, h=0.01,
                            mode_lambda=1.0, profile_rate=-1.0)),
    "kernel-count": (cmd_kernel_count, "perturbed kernel dimension at a weight",
                     dict(out=".", torus=_SQUARE, cutoff=1.5, weight=0.5, eps=0.0,
                          mu_pert=-1.0, seed=0, T=30.0, h=0.01, boundary="negative")),
    "reproduce": (cmd_reproduce, "rerun a canned example and compare", dict(example=None)),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_merge_config(args))
    except SystemExit as exc:   # --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigError, OSError) as exc:   # input faults, unreadable files
        status, code, detail = EXIT_CONFIG, "CONFIG", str(exc)
    except (CriticalRate, CriticalWeight) as exc:
        status, code, detail = EXIT_CRITICAL, "CRITICAL_RATE", str(exc)
    except (CylspecError, np.linalg.LinAlgError) as exc:
        status, code, detail = EXIT_NUMERIC, "NUMERIC", str(exc)
    print(f"ERR {code}: {detail}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
