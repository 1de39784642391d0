"""Command-line front end.

Commands: spectrum, indicial, index, wallcross, cylinder-solve, kernel-count,
reproduce.  Flags may be combined with a JSON config file (--config); flags
override file values.  Exit codes: 0 ok, 2 config error (bad flags or files,
and input faults such as a singular lattice, a non-manifold mesh or a
window or rate beyond the completeness radius), 3 numerical failure,
4 critical rate/weight, 5 reproduction mismatch.  Every error path, a bad
flag included, prints one machine-parsable line "ERR <CODE>: <detail>" to
stderr.  Identical configs produce byte-identical JSON (keys sorted, no
timestamps, seeds recorded), at any BLAS thread count except for block
models on meshes, whose spectra come from a dense eigh.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import dec, index, lattice, mesh, models, spectral
from .cylinder import (CylinderOperator, make_perturbation,
                       perturbed_kernel_count, solve_cylinder)
from .errors import ConfigError, CriticalRate, CriticalWeight, CylspecError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CRITICAL = 4
EXIT_MISMATCH = 5


def _err(code: str, detail: str):
    print(f"ERR {code}: {detail}", file=sys.stderr)


def _write_json(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _merge_config(args):
    """Start from the JSON config (if any), then let explicit flags override."""
    cfg = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in cfg.items():
            if not isinstance(val, (str, int, float)):
                raise ConfigError(f"config key {key!r} must hold a string or a number")
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            cfg[key] = val
    return cfg


def _parse_floats(text, count=None):
    vals = [float(x) for x in str(text).split(",") if x != ""]
    if count is not None and len(vals) != count:
        raise ConfigError(f"expected {count} comma-separated reals, got {len(vals)}")
    return vals


def _torus_from(cfg) -> lattice.FlatTorus:
    vals = _parse_floats(cfg.get("torus", "6.283185307179586,0,0,6.283185307179586"), 4)
    return lattice.FlatTorus(np.array(vals).reshape(2, 2))


def _int_from(cfg, key, default) -> int:
    """cfg[key] as the integer flag would parse it: an integer, or a string
    that int() reads; a float such as 4.9 or a bool is a ConfigError, not
    truncated."""
    val = cfg.get(key, default)
    if isinstance(val, (bool, float)):
        raise ConfigError(f"config key {key!r} must be an integer, got {val!r}")
    return int(val)


def _model(cfg, kind, role="model", grid=16, cutoff=2.5,
           use_mesh=True) -> models.DiracModel:
    """The torus or sl model named by kind; grid and cutoff are the defaults
    for the config keys, and the sl model reads cfg["mesh"] only if use_mesh."""
    if kind == "torus":
        return models.build_torus_model(_torus_from(cfg), float(cfg.get("cutoff", cutoff)))
    if kind == "sl":
        path = cfg.get("mesh") if use_mesh else None
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"config key 'mesh' must be a file path, got {path!r}")
        if path:
            if not os.path.exists(path):
                raise ConfigError(f"mesh file not found: {path}")
            cc = dec.build_dec(mesh.read_off(path))
        else:
            n = _int_from(cfg, "grid", grid)
            if n >= 2:   # quad_torus_complex rejects the others
                models.check_sl_dim(4 * n * n, f"grid {n}")
            cc = dec.quad_torus_complex(_torus_from(cfg), n)
        return models.build_sl_model(cc)
    raise ConfigError(f"unknown {role} kind: {kind}")


def _end_spectra(cfg) -> index.EndSystem:
    """One spectrum per listed end; a repeated end name is solved once."""
    names = [name.strip() for name in str(cfg.get("ends", "torus")).split(",")]
    spectra = {name: spectral.eigendecompose(_model(cfg, name, "end", grid=8, use_mesh=False))
               for name in dict.fromkeys(names)}
    return index.EndSystem(tuple(spectra[name] for name in names))


def _cylinder_end(cfg) -> CylinderOperator:
    """Unperturbed operator on the torus end (cutoff default 1.5) and the time
    grid (T, h); CylinderOperator rejects a grid that is not whole steps."""
    spec = spectral.eigendecompose(_model(cfg, "torus", cutoff=1.5))
    return CylinderOperator(spec, float(cfg.get("T", 30.0)), float(cfg.get("h", 0.01)))


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(cfg) -> int:
    model = _model(cfg, cfg.get("model", "torus"))
    spec = spectral.eigendecompose(model)
    out = cfg.get("out", ".")
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
    _write_json(os.path.join(out, "spectrum.json"), summary)
    print(f"dim {model.dim}, {len(spec.clusters)} clusters, "
          f"completeness radius {spec.completeness_radius:.6g}")
    for c in spec.clusters:
        print(f"  lambda = {c.lam:12.6g}   d = {c.dim}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_indicial(cfg) -> int:
    model = _model(cfg, cfg.get("model", "torus"))
    spec = spectral.eigendecompose(model)
    lo, hi = _parse_floats(cfg.get("window", "-1.2,1.2"), 2)
    roots = spectral.indicial_roots(spec, (lo, hi))
    print(f"indicial roots in [{lo:.6g}, {hi:.6g}]:")
    for lam, d in roots:
        print(f"  lambda = {lam:12.6g}   d = {d}")
    if not roots:
        print("  (none)")
    return EXIT_OK


def cmd_index(cfg) -> int:
    ends = _end_spectra(cfg)
    rates = _parse_floats(cfg.get("rates", "-0.5"))
    report = index.fredholm_index(rates, ends)
    print(report.table())
    if all(r < 0 for r in rates):
        fixed = index.fixed_moduli_vdim(rates, ends)
        print(f"fixed-cross-section virtual dimension:   {fixed:+d}  [{index.FIXED_TAG}]")
    varying = index.varying_moduli_vdim(ends)
    print(f"varying-cross-section virtual dimension: {varying:+d}  [{index.VARYING_TAG}]")
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "index.json"), "w", encoding="ascii") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return EXIT_OK


def cmd_wallcross(cfg) -> int:
    ends = _end_spectra(cfg)
    r1 = _parse_floats(cfg.get("rate1", "-0.5"))
    r2 = _parse_floats(cfg.get("rate2", "0.5"))
    jump, crossed = index.wall_crossing(r1, r2, ends)
    print(f"index jump {jump:+d} from rates {r1} to {r2}")
    for i, roots in enumerate(crossed):
        txt = ", ".join(f"{l:.6g} (d={d})" for l, d in roots) or "-"
        print(f"  end {i}: crossed {txt}")
    return EXIT_OK


def cmd_cylinder_solve(cfg) -> int:
    op = _cylinder_end(cfg)
    spec = op.base
    weight = float(cfg.get("weight", -0.5))
    rate = float(cfg.get("profile_rate", -1.0))
    lam_target = float(cfg.get("mode_lambda", 1.0))
    if not rate < weight:   # also rejects a NaN rate
        raise ConfigError("profile_rate must lie below the weight for a fair recovery")

    cluster = spec.cluster_at(lam_target, tol=1e-6 * max(spec.spectral_radius, 1.0))
    if cluster is None:
        raise ConfigError(f"mode_lambda {lam_target} is not an eigenvalue of the end")
    jmode = cluster.start
    t = op.tgrid
    # manufactured decaying profile on one mode and its exact right-hand side
    u_true = np.zeros((op.dim, t.size))
    u_true[jmode] = np.exp(rate * t) * np.sin(t)
    du = np.exp(rate * t) * (rate * np.sin(t) + np.cos(t))
    g_true = np.zeros_like(u_true)
    g_true[jmode] = du - spec.eigenvalues[jmode] * u_true[jmode]
    f = spec.jmat @ g_true   # g = -(J f)  =>  f = -J^{-1} g = J g
    sol = solve_cylinder(op, f, weight)
    err = float((np.abs(sol.coeffs - u_true).max(axis=0) * np.exp(-weight * t)).max())
    scale = float((np.abs(u_true).max(axis=0) * np.exp(-weight * t)).max())
    rel = err / max(scale, 1e-300)

    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "cylinder_modes.csv")
    header = "t," + ",".join(f"mode_{j}" for j in range(op.dim))
    np.savetxt(csv_path, np.column_stack([t, sol.coeffs.T]), delimiter=",",
               header=header, comments="", fmt="%.17g")
    summary = {
        "weight": weight, "T": op.t_final, "h": op.step,
        "mode_lambda": lam_target, "profile_rate": rate,
        "residual": sol.residual, "weighted_sup": sol.weighted_sup,
        "manufactured_relative_error": rel,
        "csv": os.path.basename(csv_path),
    }
    _write_json(os.path.join(out, "cylinder_solve.json"), summary)
    print(f"weighted residual {sol.residual:.3e}, manufactured error {rel:.3e}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_kernel_count(cfg) -> int:
    op = _cylinder_end(cfg)
    spec = op.base
    weight = float(cfg.get("weight", 0.5))
    eps = float(cfg.get("eps", 0.0))
    mu_pert = float(cfg.get("mu_pert", -1.0))
    seed = _int_from(cfg, "seed", 0)
    if not eps >= 0:   # also rejects NaN
        raise ConfigError("eps must be >= 0")
    bnd = cfg.get("boundary", "negative")
    if bnd == "negative":
        s_set = [int(j) for j in np.flatnonzero(spec.eigenvalues < -spec.cluster_tol)]
    elif bnd in ("none", ""):
        s_set = []
    else:
        s_set = [int(x) for x in str(bnd).split(",")]
    if eps > 0:
        op = replace(op, perturbation=make_perturbation(spec.dim, eps, mu_pert, seed))
    count = perturbed_kernel_count(op, weight, s_set)
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "kernel_count.json"), "w", encoding="ascii") as fh:
        fh.write(count.to_json())
        fh.write("\n")
    print(f"kernel dimension {count.dimension} at weight {weight:.6g} "
          f"(decaying subspace {count.decaying_dim}, eps {eps}, seed {seed})")
    print(f"boundary set S = {list(count.boundary_set)}")
    return EXIT_OK


def _report(checks) -> int:
    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_reproduce(cfg) -> int:
    target = cfg.get("example", "")
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
    """The command-line parser, built once per process."""
    ap = _Parser(
        prog="cylspec",
        description="Dirac model spectra, weighted indices and cylinder-end solvers")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory")
        p.add_argument("--torus", help="lattice basis, 4 reals row-major")
        p.add_argument("--cutoff", type=float, help="spectral truncation |k|^2 <= cutoff")

    p = sub.add_parser("spectrum", help="eigendecompose a model; write CSV + clusters")
    add_common(p)
    p.add_argument("--model", choices=["torus", "sl"])
    p.add_argument("--mesh", help="OFF mesh file (sl model)")
    p.add_argument("--grid", type=int, help="quad-grid resolution (sl model)")

    p = sub.add_parser("indicial", help="indicial roots in a window")
    add_common(p)
    p.add_argument("--model", choices=["torus", "sl"])
    p.add_argument("--mesh")
    p.add_argument("--grid", type=int)
    p.add_argument("--window", help="lo,hi")

    p = sub.add_parser("index", help="weighted index and virtual dimensions")
    add_common(p)
    p.add_argument("--ends", help="comma list of end kinds (torus, sl)")
    p.add_argument("--rates", help="comma list of rates, one per end")
    p.add_argument("--grid", type=int)

    p = sub.add_parser("wallcross", help="index jump between two rate vectors")
    add_common(p)
    p.add_argument("--ends")
    p.add_argument("--rate1")
    p.add_argument("--rate2")
    p.add_argument("--grid", type=int)

    p = sub.add_parser("cylinder-solve", help="manufactured weighted Green solve")
    add_common(p)
    p.add_argument("--weight", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--mode-lambda", dest="mode_lambda", type=float)
    p.add_argument("--profile-rate", dest="profile_rate", type=float)

    p = sub.add_parser("kernel-count", help="perturbed kernel dimension at a weight")
    add_common(p)
    p.add_argument("--weight", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--mu-pert", dest="mu_pert", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--boundary", help="'negative', 'none', or comma list of mode indices")

    p = sub.add_parser("reproduce", help="rerun a canned example and compare")
    p.add_argument("example", help="example id: tori or sl")
    p.add_argument("--config")

    return ap


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "indicial": cmd_indicial,
    "index": cmd_index,
    "wallcross": cmd_wallcross,
    "cylinder-solve": cmd_cylinder_solve,
    "kernel-count": cmd_kernel_count,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](_merge_config(args))
    except SystemExit as exc:   # --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        _err("CONFIG", str(exc))
        return EXIT_CONFIG
    except (CriticalRate, CriticalWeight) as exc:
        _err("CRITICAL_RATE", str(exc))
        return EXIT_CRITICAL
    except (CylspecError, np.linalg.LinAlgError) as exc:
        _err("NUMERIC", str(exc))
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        _err("CONFIG", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
