"""Batch driver: wire configs to the computational modules, emit reports.

Commands: check, certify, rays, corner, carleman, all, run (the last reads
the command from the config file's [run] section).  Each run writes a
``report.json`` (schema "ucp-report/1") plus CSV data files into the output
directory, atomically (temp file + rename).  Exit status: 0 when every check
passed, 1 when a check failed, 2 on config/usage errors.  Identical config
and seed produce byte-identical reports: no timestamps are recorded and all
collections are emitted in sorted order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import __version__
from .carleman import build_weight, exponent_slopes, lambda_sweep
from .certify import certify
from .corner import (affine_multiplier, corner_corpus, detect_layer,
                     kink_profile_corpus, mollifier_commutator,
                     verify_extension_identities, verify_inequality_transfer)
from .errors import ContractViolation, UccertError
from .expressions import expression_field
from .fields import constant_metric, linear_combination, squared_field
from .grids import bump_corpus, bump_superposition_values, make_grid, unit_box
from .hypotheses import (DEFAULT_TOL_CHAR, DEFAULT_TOL_POS, DEFAULT_TOL_ZERO, GeometrySpec,
                         build_psi, check_assumptions, verify_split_signs, verify_sublevel_inclusion)
from .models import ModelSpec, bumpy_wave_metric, carleman_section, get_model
from .rays import contact, integrate_rays

SCHEMA = "ucp-report/1"

# weak-identity residual bounds: K * h^2, K fitted once per family on the
# analytic corpus with headroom
WEAK_K = {"first": 0.4, "mixed_pair": 1.5, "edge": 0.3, "interior": 30.0}


def _write_atomic(path: str, data: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(data)
    os.replace(tmp, path)


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(out_dir: str, payload: dict):
    payload = {"schema": SCHEMA, "version": __version__, **payload}
    _write_atomic(os.path.join(out_dir, "report.json"),
                  json.dumps(payload, indent=2, sort_keys=True, default=_np_default) + "\n")


def write_csv(out_dir: str, name: str, header: list, rows: list):
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow(r)
    os.replace(tmp, os.path.join(out_dir, name))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _malformed_is_usage_error(fn):
    """Re-raise a ValueError from parsing config text as ContractViolation (exit 2)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ContractViolation:
            raise
        except ValueError as e:
            raise ContractViolation(f"malformed config value: {e}") from e
    return wrapper


def parse_config_file(path: str) -> dict:
    """Line-oriented key=value format with [section] headers."""
    sections: dict = {}
    current = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"\[([A-Za-z_][A-Za-z_0-9-]*)\]", line)
            if m:
                current = m.group(1)
                sections.setdefault(current, {})
                continue
            if "=" not in line or current is None:
                raise ContractViolation(f"{path}:{lineno}: expected key = value inside a section")
            key, val = line.split("=", 1)
            sections[current][key.strip()] = val.strip()
    return sections


def _finite(values, what: str) -> np.ndarray:
    """Config numbers as a float array; a usage error when one is not finite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{what} must be finite, got {arr.tolist()}")
    return arr


@_malformed_is_usage_error
def parse_metric(text: str, dim: int):
    text = text.strip()
    m = re.fullmatch(r"diag\(([^)]*)\)", text)
    if m:
        vals = _finite([float(v) for v in m.group(1).split(",")], "diag() entries")
        if len(vals) != dim:
            raise ContractViolation(f"diag() entry count {len(vals)} != dim {dim}")
        return constant_metric(np.diag(vals), name=text)
    m = re.fullmatch(r"wave\((\d+)\)", text)
    if m:
        d = int(m.group(1))
        if d + 1 != dim:
            raise ContractViolation(f"wave({d}) has dimension {d + 1}, config says {dim}")
        return constant_metric(np.diag([-1.0] + [1.0] * d), name=text)
    m = re.fullmatch(r"bumpy_wave\((\d+)\s*,\s*([0-9.eE+-]+)\)", text)
    if m:
        d = int(m.group(1))
        if d + 1 != dim:
            raise ContractViolation(f"bumpy_wave({d},..) has dimension {d + 1}, config says {dim}")
        return bumpy_wave_metric(d, amp=float(_finite(float(m.group(2)), "bumpy_wave amplitude")))
    if text.startswith("["):
        mat = _finite(json.loads(text), "matrix entries")
        if mat.shape != (dim, dim):
            raise ContractViolation(f"matrix shape {mat.shape} != ({dim},{dim})")
        return constant_metric(mat, name="matrix")
    raise ContractViolation(f"cannot parse metric {text!r}")


def _check_keys(section: dict, name: str, known) -> None:
    """A usage error naming the first key of a config section that nothing reads."""
    for key in section:
        if key not in known:
            raise ContractViolation(f"unknown key {key!r} in [{name}] section")


def _surface(geo: dict, key: str, dim: int):
    """The surface expression under key, its errors prefixed with the key."""
    try:
        return expression_field(geo[key], dim, name=key)
    except ContractViolation as e:
        raise ContractViolation(f"{key}: {e}") from e


_GEOMETRY_KEYS = ("dim", "metric", "phi_plus", "phi_minus", "box", "x0", "n_surface_samples", "name")


@_malformed_is_usage_error
def geometry_from_config(geo: dict) -> ModelSpec:
    _check_keys(geo, "geometry", _GEOMETRY_KEYS)
    try:
        dim = int(geo["dim"])
        metric = parse_metric(geo["metric"], dim)
        phi_plus, phi_minus = _surface(geo, "phi_plus", dim), _surface(geo, "phi_minus", dim)
        box_parts = [p.strip() for p in geo["box"].split(",")]
        if len(box_parts) != dim:
            raise ContractViolation(f"box needs {dim} lo:hi ranges")
        box = np.array([[float(a) for a in p.split(":")] for p in box_parts])
        x0 = _finite([float(v) for v in geo["x0"].split(",")], "x0") if "x0" in geo else None
    except KeyError as e:
        raise ContractViolation(f"geometry section missing key {e}")
    n_samples = int(geo.get("n_surface_samples", 200))
    spec = GeometrySpec(metric, phi_plus, phi_minus, box,
                        n_surface_samples=n_samples, name=geo.get("name", "config"))
    if x0 is None:
        raise ContractViolation("geometry section needs x0 for certification commands")
    if x0.shape != (dim,):
        raise ContractViolation(f"x0 needs {dim} coordinates, got {x0.size}")
    return ModelSpec(spec.name, dim - 1, spec, x0)


def resolve_model(args) -> ModelSpec:
    if args.model:
        n_surface = 200 if args.samples is None else args.samples
        model = get_model(args.model, n_surface_samples=n_surface)
    elif args.config:
        sections = parse_config_file(args.config)
        if "geometry" not in sections:
            raise ContractViolation("config file has no [geometry] section")
        model = geometry_from_config(sections["geometry"])
    else:
        raise ContractViolation("need --model or --config with a [geometry] section")
    if args.tol_zero != model.geometry.tol_zero:
        geo = dataclasses.replace(model.geometry, tol_zero=args.tol_zero)
        model = dataclasses.replace(model, geometry=geo)
    return model


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    model = resolve_model(args)
    rep = check_assumptions(model.geometry, tol_char=args.tol_char, tol_pos=args.tol_pos)
    payload = {
        "command": "check",
        "model": model.name,
        "seed": args.seed,
        "hypotheses": rep.to_dict(),
    }
    ok = rep.passed()
    if ok:
        both = rep.samples["intersection"]
        payload["split_signs"] = verify_split_signs(model.geometry, samples=both,
                                                    tol_pos=args.tol_pos)
        payload["sublevel_inclusion"] = verify_sublevel_inclusion(
            model.geometry, lam=2.0 if args.lam is None else args.lam, radius=0.1,
            n_samples=200, seed=args.seed, samples=both)
        ok = (payload["split_signs"]["status"] == "pass"
              and payload["sublevel_inclusion"]["included"])
    payload["passed"] = bool(ok)
    write_report(args.out, payload)
    return 0 if ok else 1


def cmd_certify(args) -> int:
    model = resolve_model(args)
    cert = certify(model.geometry, model.x0, lam=args.lam,
                   n=2000 if args.samples is None else args.samples,
                   tol_pos=args.tol_pos, seed=args.seed)
    payload = {
        "command": "certify",
        "model": model.name,
        "seed": args.seed,
        "certificate": cert.to_dict(),
        "passed": cert.status == "certified",
    }
    write_report(args.out, payload)
    dim = model.geometry.dim
    header = [f"xi{i + 1}" for i in range(dim)] + ["res_p", "res_hp", "margin", "margin_direct"]
    write_csv(args.out, "constraint_samples.csv", header, cert.sample_rows())
    return 0 if cert.status == "certified" else 1


def cmd_rays(args) -> int:
    model = resolve_model(args)
    lam = 2.0 if args.lam is None else args.lam
    cert = certify(model.geometry, model.x0, lam=lam,
                   n=min(1000 if args.samples is None else args.samples, 1000),
                   tol_pos=args.tol_pos, seed=args.seed)
    if cert.status != "certified":
        write_report(args.out, {"command": "rays", "model": model.name,
                                "seed": args.seed, "passed": False,
                                "reason": f"certification status {cert.status}"})
        return 1
    psi0, psi1 = build_psi(model.geometry)
    bent = linear_combination([(1.0, psi1), (-lam, squared_field(psi0))], name="bent")
    q = model.geometry.Q
    ds, s_fit = args.ds, args.s_fit
    n_steps = int(np.ceil(s_fit / ds)) + 2
    results = []
    csv_rows = []
    ok = True
    drift = 0.0
    max_rays = min(len(cert.samples), args.max_rays)
    trajs = integrate_rays(q, model.x0, [sample.xi for sample in cert.samples[:max_rays]],
                           ds, n_steps, two_sided=True)
    for ray_id, traj in enumerate(trajs):
        drift = max(drift, traj.conservation_defect())
        rep = contact(traj, q, bent, s_fit=s_fit)
        results.append({"ray": ray_id, "field": "bent", **rep.to_dict()})
        ok = ok and rep.tangency and rep.side == "below"
        for row in traj.annotate(bent).rows():
            csv_rows.append([ray_id, "bent"] + row)
        rep1 = contact(traj, q, psi1, s_fit=s_fit)
        results.append({"ray": ray_id, "field": "surface", **rep1.to_dict()})
        ok = ok and rep1.side == "above"
    payload = {
        "command": "rays",
        "model": model.name,
        "seed": args.seed,
        "lambda": lam,
        "n_rays": max_rays,
        "contacts": results,
        "conservation_defect": drift,
        "passed": bool(ok),
    }
    write_report(args.out, payload)
    dim = model.geometry.dim
    header = (["ray", "field", "s"] + [f"x{i + 1}" for i in range(dim)]
              + [f"xi{i + 1}" for i in range(dim)] + ["p", "psi"])
    write_csv(args.out, "rays.csv", header, csv_rows)
    return 0 if ok else 1


def _corner_identities(corpus: list, tests: list, tols: dict) -> tuple:
    """Pass-through identities on every corpus field: (reports, CSV rows, passed)."""
    reports = []
    rows = []
    ok = True
    for cf in corpus:
        rep = verify_extension_identities(cf, tests, tol_weak=tols)
        ok = ok and rep["passed"]
        reports.append({"field": cf.name, "passed": rep["passed"],
                        "family_max_residual": rep["family_max_residual"]})
        for row in rep["rows"]:
            rows.append([cf.name, row["family"], "".join(map(str, row["alpha"])),
                         row["testfn"], row["lhs"], row["rhs"], row["residual"]])
    return reports, rows, ok


def _corner_layer(cf, tests: list, h2: float) -> dict:
    layer = detect_layer(cf, tests)
    layer_ok = layer["max_mismatch"] <= max(0.01 * layer["max_layer_magnitude"], 10 * h2)
    return {"max_mismatch": layer["max_mismatch"],
            "max_layer_magnitude": layer["max_layer_magnitude"],
            "passed": bool(layer_ok)}


def _corner_transfer(cf, args) -> dict:
    bmat = np.zeros((args.dim, args.dim))
    bmat[0, 1] = bmat[1, 0] = 1.0
    return verify_inequality_transfer(cf, bmat, n_pts=args.n_pts, seed=args.seed)


def _smoothing_ladder(grid) -> list:
    """Mollifier widths: halve from min(0.35, 64h) while staying resolved
    (>= 4h), at most five rungs; empty when the grid resolves none."""
    hmax = float(np.max(grid.h))
    eps_list = []
    eps_v = min(0.35, 64.0 * hmax)
    while eps_v >= 4.0 * hmax - 1e-12 and len(eps_list) < 5:
        eps_list.append(eps_v)
        eps_v /= 2.0
    return eps_list


def _corner_mollifier(grid, eps_list: list, seed: int) -> dict:
    # expected decay scales with rung count
    decay_bound = 0.5 ** ((len(eps_list) - 1) / 2.0)
    afield = affine_multiplier(0.5, [0.4] + [0.0] * (grid.dim - 1))
    moll_norms = [mollifier_commutator(afield, v, grid, eps_list)
                  for v in kink_profile_corpus(grid, count=2, seed=seed + 5)]
    moll_ok = all(all(n1 > n2 for n1, n2 in zip(ns, ns[1:]))
                  and ns[-1] <= decay_bound * ns[0]
                  for ns in moll_norms)
    return {"eps": eps_list, "norms": moll_norms, "passed": bool(moll_ok)}


def cmd_corner(args) -> int:
    dim = args.dim
    cells = (512 if dim == 2 else 128) if args.grid is None else args.grid
    grid = make_grid(unit_box(dim), cells)
    eps_list = _smoothing_ladder(grid)
    if not eps_list:
        raise ContractViolation(f"--grid {cells} is too coarse for the mollifier check: "
                                f"its smoothing ladder resolves no width at h = {float(np.max(grid.h)):g}")
    h2 = float(np.max(grid.h)) ** 2
    tests = bump_corpus(unit_box(dim), args.tests, seed=args.seed + 42)
    tols = {k: v * h2 for k, v in WEAK_K.items()}

    # one helper per stage, so each stage's grid arrays are freed on return;
    # the inequality transfer is the only stage that forms them
    corpus = corner_corpus(grid)
    identity_reports, residual_rows, ok = _corner_identities(corpus, tests, tols)
    layer = _corner_layer(corpus[0], tests, h2)
    transfer = _corner_transfer(corpus[1], args)
    del corpus
    mollifier = _corner_mollifier(grid, eps_list, args.seed)
    ok = ok and layer["passed"] and transfer["passed"] and mollifier["passed"]

    payload = {
        "command": "corner",
        "seed": args.seed,
        "dim": dim,
        "cells": cells,
        "identity_checks": identity_reports,
        "tolerances": {k: float(v) for k, v in tols.items()},
        "layer_probe": layer,
        "inequality_transfer": transfer,
        "mollifier": mollifier,
        "passed": bool(ok),
    }
    write_report(args.out, payload)
    write_csv(args.out, "corner_residuals.csv",
              ["field", "family", "alpha", "testfn", "lhs", "rhs", "residual"],
              residual_rows)
    return 0 if ok else 1


def cmd_carleman(args) -> int:
    lam = 2.0 if args.lam is None else args.lam
    cells = 256 if args.grid is None else args.grid
    ik2 = get_model("ik2")      # the section is its y_2 = 0 slice through x0
    threshold = certify(ik2.geometry, ik2.x0, lam=lam).notes.get("lambda_threshold")
    if threshold:
        notes = {"gate": ["lambda_threshold"], "lambda_threshold": threshold}
        write_report(args.out, {"command": "carleman", "seed": args.seed, "mu": args.mu,
                                "cells": cells, "passed": False, "notes": notes})
        return 1
    q, bent, box = carleman_section(lam=lam)
    grid = make_grid(box, cells)
    corpus = bump_superposition_values(grid, args.corpus, seed=args.seed + 7)
    if not any(np.any(w) for w in corpus):
        raise ContractViolation(f"--grid {cells} is too coarse: every corpus function is zero at the nodes")
    weight = build_weight(bent, mu=args.mu)
    lambdas = [2.0 ** k for k in range(int(math.log2(args.lambda_max + 1e-9)) + 1)]
    rep = lambda_sweep(q, weight, corpus, lambdas, grid)
    s1, s2 = exponent_slopes(rep)
    floor = rep.r_floor(4.0)
    ok = (floor > 0 and not rep.decreasing_flags
          and abs(s1 - 0.5) <= 0.05 and abs(s2 - 1.5) <= 0.05)
    payload = {
        "command": "carleman",
        "seed": args.seed,
        "mu": args.mu,
        "cells": cells,
        "sweep": rep.to_dict(),
        "r_floor_from_lam4": floor,
        "exponent_slopes": [s1, s2],
        "passed": bool(ok),
    }
    write_report(args.out, payload)
    write_csv(args.out, "carleman_ratios.csv",
              ["testfn_id", "lambda", "lhs", "rhs1", "rhs2", "ratio"],
              rep.csv_rows())
    return 0 if ok else 1


def cmd_all(args) -> int:
    stages = [("check", cmd_check), ("certify", cmd_certify), ("rays", cmd_rays),
              ("corner", cmd_corner), ("carleman", cmd_carleman)]
    root = args.out
    statuses = {}
    worst = 0
    for name, fn in stages:
        sub = argparse.Namespace(**vars(args))
        sub.out = os.path.join(root, name)
        rc = fn(sub)
        statuses[name] = rc
        worst = max(worst, rc)
    write_report(root, {"command": "all", "seed": args.seed,
                        "stage_exit_codes": statuses, "passed": worst == 0})
    return worst


# [run] keys: config key -> (attribute, type); a flag left unset on the CLI is None
_RUN_KEYS = {
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "grid": ("grid", int),
    "samples": ("samples", int),
    "seed": ("seed", int),
    "out": ("out", str),
    "lambda_max": ("lambda_max", float),
    "model": ("model", str),
}

# built-in values of the flags a [run] section may set, applied after the
# config merge, so that an explicit flag equal to its default still wins
_FLAG_DEFAULTS = {"mu": 1.0, "seed": 0, "out": "uccert-out", "lambda_max": 64.0}


def _run_section_command(args) -> str:
    """The command named in the config file's [run] section.

    Its keys fill the flags left unset on the command line: CLI flags win
    over config values, which win over built-in defaults.
    """
    if not args.config:
        raise ContractViolation("run needs --config with a [run] section")
    sections = parse_config_file(args.config)
    run = sections.get("run")
    if not run or "command" not in run:
        raise ContractViolation("config file has no [run] section with a command")
    command = run["command"].strip()
    if command not in _COMMANDS:
        raise ContractViolation(f"unknown command {command!r} in [run] section")
    _check_keys(run, "run", {"command", *_RUN_KEYS})
    for key, (attr, cast) in _RUN_KEYS.items():
        if key in run and getattr(args, attr) is None:
            setattr(args, attr, _malformed_is_usage_error(cast)(run[key]))
    return command


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uccert",
        description="certification toolkit for wave-type symbols and surface pairs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", help="built-in model name (ik2, ik3, ctrl-a/b/c)")
        sp.add_argument("--config", help="config file path")
        sp.add_argument("--out", help="output directory (default uccert-out)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int, default=None,
                        help="surface/constraint sample count")
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--mu", type=float, help="weight exponent (default 1)")
        sp.add_argument("--grid", type=int, default=None, help="cells per axis")
        sp.add_argument("--tol-zero", type=float, default=DEFAULT_TOL_ZERO)
        sp.add_argument("--tol-char", type=float, default=DEFAULT_TOL_CHAR)
        sp.add_argument("--tol-pos", type=float, default=DEFAULT_TOL_POS)
        sp.add_argument("--ds", type=float, default=1e-3)
        sp.add_argument("--s-fit", type=float, default=0.05)
        sp.add_argument("--max-rays", type=int, default=8)
        sp.add_argument("--dim", type=int, default=2, choices=(2, 3))
        sp.add_argument("--tests", type=int, default=20)
        sp.add_argument("--n-pts", type=int, default=10000)
        sp.add_argument("--corpus", type=int, default=50)
        sp.add_argument("--lambda-max", type=float, help="largest lambda (default 64)")

    for name in ("check", "certify", "rays", "corner", "carleman", "all", "run"):
        common(sub.add_parser(name))
    return p


_COMMANDS = {"check": cmd_check, "certify": cmd_certify, "rays": cmd_rays,
             "corner": cmd_corner, "carleman": cmd_carleman, "all": cmd_all}


def _flag(attr: str) -> str:
    return "--lambda" if attr == "lam" else f"--{attr.replace('_', '-')}"


def _validate_args(args):
    for name in ("lam", "mu", "lambda_max", "tol_zero", "tol_char", "tol_pos", "ds", "s_fit"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ContractViolation(f"{_flag(name)} must be finite, got {value}")
    for name in ("tol_zero", "tol_char", "tol_pos", "ds", "s_fit", "mu", "lam"):
        if getattr(args, name) is not None and getattr(args, name) <= 0:
            raise ContractViolation(f"{_flag(name)} must be positive")
    for name in ("samples", "grid", "tests", "n_pts", "max_rays", "corpus"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            raise ContractViolation(f"{_flag(name)} must be at least 1")
    if args.lambda_max is not None and args.lambda_max < 2:
        raise ContractViolation("--lambda-max must be at least 2 for a two-value lambda ladder")


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        command = _run_section_command(args) if args.command == "run" else args.command
        for attr, value in _FLAG_DEFAULTS.items():
            if getattr(args, attr) is None:
                setattr(args, attr, value)
        _validate_args(args)
        return _COMMANDS[command](args)
    except (UccertError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"uccert: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
