"""Batch driver: wire configs to the computational modules, emit reports.

Commands: check, certify, rays, corner, carleman, all, run (the last reads
the command from the config file's [run] section).  One table declares each
command's plan, which makes its usage checks before any work, its run, which
returns a report and CSV tables, and the flags they read: the command takes
those flags alone, as options or [run] keys.  One writer puts the tables
into the output directory as ``report.json`` (schema "ucp-report/1") and CSV
files, atomically (temp file + rename).  Exit status: 0 when the report says
passed, 1 when it does not, 2 on config/usage errors.  Identical config and
seed produce byte-identical reports: no timestamps are recorded and all
collections are emitted in sorted order.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .corner import (PairingTables, corner_corpus, detect_layer,
                     identity_families, kink_profile_corpus, mollifier_commutator,
                     verify_extension_identities, verify_inequality_transfer)
from .errors import ContractViolation, UccertError
from .expressions import expression_field
from .fields import constant_metric
from .grids import bump_corpus, bump_superposition_values, make_grid, unit_box
from .hypotheses import (DEFAULT_TOL_CHAR, DEFAULT_TOL_POS, DEFAULT_TOL_ZERO, GeometrySpec,
                         bent_surface, build_psi, check_assumptions, scan_nodes,
                         verify_split_signs, verify_sublevel_inclusion)
from .models import ModelSpec, bumpy_wave_metric, carleman_section, get_model
from .rays import DEFAULT_DS, DEFAULT_S_FIT, FIT_POINTS, contact, integrate, ray_steps

SCHEMA = "ucp-report/1"

# weak-identity residual bounds: K * h^2, K fitted once per family on the
# analytic corpus with headroom
WEAK_K = {"first": 0.4, "mixed_pair": 1.5, "edge": 0.3, "interior": 30.0}

# RK4 steps per side of a ray, ceil(s_fit / ds) + 2, above which `rays` stops
# before any work: each step is a row per ray in rays.csv
MAX_RAY_STEPS = 20_000
# rays.csv rows, --max-rays x (2 steps + 1), above which `rays` stops before
# any work; every run at the default 8 rays fits (at most 320,008 rows).  On a
# 2-core machine 16 rays of 32,767 points (524,272 rows) take 7 s and peak at
# 170 MB of RSS on ik4, and 8 s and 220 MB on ik6
MAX_RAY_ROWS = 2 ** 19

# grid nodes above which `corner` stops before any work: the inequality
# transfer visits every node of the open quadrant.  257^3 (`--dim 3 --grid
# 256`) is about a quarter of it
MAX_CORNER_NODES = 2 ** 26
# pairing-table entries (3 orders x tests x nodes per axis, summed over the
# axes) above which `corner` stops before any work: 128 MiB of doubles, about
# 270 times the default 2-D lab's
MAX_PAIRING_ENTRIES = 2 ** 24
# residual rows per corpus field (tests x pass-through identities) above which
# `corner` stops before any work: a row is about 80 bytes of corner_residuals.csv
# and 56 of columns held until written.  At the bound `--grid 64 --tests 10922`
# writes 13 MB, `--dim 3 --grid 64 --tests 5461` 15 MB; each peaks at 80-100 MB
# of RSS in the pairing tables' build
MAX_RESIDUAL_ROWS = 2 ** 15
# corpus values (test functions x grid nodes) above which `carleman` stops
# before any work: the corpus is held as one grid of doubles per test
# function, 512 MiB at the bound.  The default 50 x 257^2 is about 5% of it
# and `--grid 1024` about 78%
MAX_CARLEMAN_VALUES = 2 ** 26
# constraint samples above which `certify` stops before any work: each is a
# row of constraint_samples.csv, about 128 bytes on ik3, where the bound
# writes 134 MB and peaks near 180 MB of RSS
MAX_CONSTRAINT_SAMPLES = 2 ** 20
# surface samples (`--samples` or `[geometry] n_surface_samples`) above which
# `check` stops before any sampling: about 2.4 KB each, so that `check --model
# ik3` peaks near 185 MB of RSS at the bound and ik4 near 210 MB
MAX_SURFACE_SAMPLES = 2 ** 16
# box-scan nodes (the scan's nodes per axis to the power of the dimension)
# above which `check` stops before any sampling: the scan holds a residual
# array of a double per node and surface, and a surface whose lowest-residual
# seeds all leave the box projects the rest of the nodes in residual order, a
# chunk of seeds at a time.  The bound is ik6's scan, 8^7 nodes at any
# --samples: on a 2-core machine `check --model ik6` takes 1.1 s and peaks at
# 95 MB of RSS at its 200 samples, where it projects past the seeds, and
# 4-5 s and 250 MB at 65536 samples.  ik7 (8^8) and up stop; ik9 (8^10)
# could not allocate its first residual array
MAX_SCAN_NODES = 8 ** 7


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file written under a temporary name and renamed to path when
    the block ends without raising, so that path is never partly written."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        yield f
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
    with _atomic_file(os.path.join(out_dir, "report.json")) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True, default=_np_default) + "\n")


# array rows formatted at a time: their cells are held as text until written
CSV_BLOCK_ROWS = 1024

# a CSV cell is quoted when it holds the delimiter, the quote or a line break
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _cell(value) -> str:
    """A cell as the csv module's excel dialect writes it: str of the value,
    '' for None, quoted with its quotes doubled when it needs quotes."""
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values) -> list:
    """The cells of one column.  A float64 or integer array is formatted once
    per distinct value, floats per bit pattern (so -0.0 and 0.0 stay apart),
    each as its shortest repr, which parses back to the same double."""
    if not (isinstance(values, np.ndarray) and (values.dtype == np.float64 or values.dtype.kind in "iu")):
        # each distinct string once; other values apart, so 0, 0.0 and False
        # never share a cell
        strings = {v: _cell(v) for v in dict.fromkeys(v for v in values if type(v) is str)}
        return [strings[v] if type(v) is str else _cell(v) for v in values]
    floats = values.dtype == np.float64
    distinct, index = np.unique(values.view(np.uint64) if floats else values, return_inverse=True)
    if floats:
        distinct = distinct.view(np.float64)
    return np.array(list(map(str, distinct.tolist())), dtype=object)[index].tolist()


def _row(cells) -> str:
    """A row of cells as one line; a row of one empty field is quoted, as the
    csv module does, so that it reads back as a row."""
    return ",".join(map(_cell, cells)) or ('""' if len(cells) == 1 else "")


def write_csv(out_dir: str, name: str, header: list, rows, labels: tuple = ()):
    """Write out_dir/name atomically as CSV in the excel dialect, with CRLF
    line ends: byte for byte what ``csv.writer`` writes.

    ``rows`` is a list of rows, or a 2-D array whose columns follow the
    ``labels`` columns, each a column of one cell per array row.  Either way
    ``len(rows)`` is the number of data rows.  An array is formatted
    ``CSV_BLOCK_ROWS`` rows at a time, so the text held in memory stays bounded.
    """
    with _atomic_file(os.path.join(out_dir, name)) as f:
        f.write(_row(header) + "\r\n")
        if not isinstance(rows, np.ndarray):
            f.writelines(line + "\r\n" for line in map(_row, rows))
            return
        for lo in range(0, len(rows), CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            table = rows[block]
            columns = [_column(c[block]) for c in labels] + [_column(c) for c in table.T]
            lines = list(map(",".join, zip(*columns))) if columns else [""] * len(table)
            if len(columns) == 1:
                lines = [line or '""' for line in lines]
            f.write("\r\n".join(lines) + "\r\n")


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
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise ContractViolation(f"{path}: not UTF-8 text ({e.reason})") from e
    for lineno, raw in enumerate(lines, start=1):
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


def resolve_model(args, n_surface: Optional[int] = None) -> ModelSpec:
    """The model or config geometry, with --tol-zero and, when given,
    n_surface surface samples: either wins over a config value."""
    if args.model:
        model = get_model(args.model)
    elif args.config:
        sections = parse_config_file(args.config)
        if "geometry" not in sections:
            raise ContractViolation("config file has no [geometry] section")
        model = geometry_from_config(sections["geometry"])
    else:
        raise ContractViolation("need --model or --config with a [geometry] section")
    geo = model.geometry
    n_surface = geo.n_surface_samples if n_surface is None else n_surface
    if (n_surface, args.tol_zero) != (geo.n_surface_samples, geo.tol_zero):
        geo = dataclasses.replace(geo, n_surface_samples=n_surface, tol_zero=args.tol_zero)
        model = dataclasses.replace(model, geometry=geo)
    return model


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# Each command is a plan and a run.  The plan makes the command's usage checks
# before any work and returns what they derive; the run takes the plan and
# returns the report's payload and its CSV tables, (name, header, rows,
# labels) each, which `_emit` writes.  `all` makes every stage's plan before
# its first stage runs, so that a usage error writes nothing.

def _plan_check(args) -> ModelSpec:
    """The model, its surface sample count and box-scan nodes checked against
    their bounds.  Under `all`, --samples counts the certificate's directions
    alone, and check samples at the geometry's own count."""
    model = resolve_model(args, n_surface=None if args.command == "all" else args.samples)
    n_surface = model.geometry.n_surface_samples
    if n_surface > MAX_SURFACE_SAMPLES:
        raise ContractViolation(f"{n_surface} surface samples (--samples or n_surface_samples) "
                                f"is above the bound of {MAX_SURFACE_SAMPLES}")
    nodes = scan_nodes(model.geometry)
    if nodes > MAX_SCAN_NODES:
        raise ContractViolation(f"the box scan of a {model.geometry.dim}-dimensional geometry takes "
                                f"{nodes} scan nodes, above the bound of {MAX_SCAN_NODES}")
    return model


def _run_check(args, model: ModelSpec) -> tuple:
    rep = check_assumptions(model.geometry, tol_char=args.tol_char, tol_pos=args.tol_pos)
    payload = {"command": "check", "model": model.name, "seed": args.seed, "hypotheses": rep.to_dict()}
    ok = rep.passed()
    if ok:
        both = rep.samples["intersection"]
        payload["split_signs"] = verify_split_signs(model.geometry, both, tol_pos=args.tol_pos)
        payload["sublevel_inclusion"] = verify_sublevel_inclusion(
            model.geometry, both, lam=2.0 if args.lam is None else args.lam, radius=0.1,
            n_samples=200, seed=args.seed)
        ok = (payload["split_signs"]["status"] == "pass"
              and payload["sublevel_inclusion"]["included"])
    payload["passed"] = bool(ok)
    return payload, []


def _plan_certify(args) -> ModelSpec:
    """The model, read once --samples is within the constraint-sample bound."""
    if args.samples is not None and args.samples > MAX_CONSTRAINT_SAMPLES:
        raise ContractViolation(f"--samples {args.samples} is above the bound of "
                                f"{MAX_CONSTRAINT_SAMPLES} constraint samples")
    return resolve_model(args)


def _run_certify(args, model: ModelSpec) -> tuple:
    cert = certify(model.geometry, model.x0, lam=args.lam,
                   n=2000 if args.samples is None else args.samples,
                   tol_pos=args.tol_pos, seed=args.seed)
    payload = {"command": "certify", "model": model.name, "seed": args.seed,
               "certificate": cert.to_dict(), "passed": cert.status == "certified"}
    header = [f"xi{i + 1}" for i in range(model.geometry.dim)] + ["res_p", "res_hp", "margin", "margin_direct"]
    return payload, [("constraint_samples.csv", header, _sample_table(cert), ())]


def _sample_table(cert) -> np.ndarray:
    """One row per listed direction: (xi..., res_p, res_hp, margin, margin_direct)."""
    return np.column_stack([cert.samples, cert.res_p, cert.res_hp, cert.margins, cert.margins_direct])


def _plan_rays(args) -> tuple:
    """The model and the RK4 steps per side of a ray, once the steps and the
    rows of rays.csv are within their bounds and the fit window holds the
    points a quartic needs."""
    ds, s_fit = args.ds, args.s_fit
    n_steps, n_fit = ray_steps(ds, s_fit, MAX_RAY_STEPS)
    if n_fit is None:
        raise ContractViolation(f"--s-fit {s_fit:g} at --ds {ds:g} takes {n_steps} RK4 steps "
                                f"per side, above the bound of {MAX_RAY_STEPS}")
    if n_fit < FIT_POINTS:
        raise ContractViolation(f"--s-fit {s_fit:g} at --ds {ds:g} leaves {n_fit} ray points in "
                                f"the fit window, below the {FIT_POINTS} a quartic fit needs")
    rows = args.max_rays * (2 * n_steps + 1)
    if rows > MAX_RAY_ROWS:
        raise ContractViolation(f"--max-rays {args.max_rays} at --ds {ds:g} and --s-fit {s_fit:g} takes "
                                f"{rows} rows of rays.csv, above the bound of {MAX_RAY_ROWS}")
    return resolve_model(args), n_steps


def _run_rays(args, plan: tuple) -> tuple:
    model, n_steps = plan
    lam = 2.0 if args.lam is None else args.lam
    cert = certify(model.geometry, model.x0, lam=lam, n=args.max_rays, tol_pos=args.tol_pos, seed=args.seed)
    dim = model.geometry.dim
    header = (["ray", "field", "s"] + [f"x{i + 1}" for i in range(dim)]
              + [f"xi{i + 1}" for i in range(dim)] + ["p", "psi"])
    if cert.status != "certified":
        # the certificate says which gate tripped; no ray of an earlier run stays behind
        return ({"command": "rays", "model": model.name, "seed": args.seed, "passed": False,
                 "reason": f"certification status {cert.status}", "certificate": cert.to_dict()},
                [("rays.csv", header, [], ())])
    psi0, psi1 = build_psi(model.geometry)
    q, tol_zero = model.geometry.Q, model.geometry.tol_zero
    max_rays = min(len(cert.samples), args.max_rays)
    rays = integrate(q, model.x0, cert.samples[:max_rays], args.ds, n_steps)
    bent_reps, bent_vals = contact(rays, q, bent_surface(psi0, psi1, lam), s_fit=args.s_fit,
                                   tol_zero=tol_zero)
    surface_reps, _ = contact(rays, q, psi1, s_fit=args.s_fit, tol_zero=tol_zero)
    payload = {
        "command": "rays",
        "model": model.name,
        "seed": args.seed,
        "lambda": lam,
        "n_rays": max_rays,
        "contacts": [{"ray": ray_id, "field": field, **rep.to_dict()}
                     for ray_id, reps in enumerate(zip(bent_reps, surface_reps))
                     for field, rep in zip(("bent", "surface"), reps)],
        "conservation_defect": rays.conservation_defect(),
        "passed": all(bent.tangency and bent.side == "below" and surface.side == "above"
                      for bent, surface in zip(bent_reps, surface_reps)),
    }
    # one row per ray and point: (s, x..., xi..., p, psi)
    table = np.concatenate([np.broadcast_to(rays.s[:, None], bent_vals.shape + (1,)), rays.xs, rays.xis,
                            rays.p_vals[..., None], bent_vals[..., None]], axis=2).reshape(-1, 2 * dim + 3)
    ray_ids = np.repeat(np.arange(max_rays), len(rays.s))
    return payload, [("rays.csv", header, table, (ray_ids, ["bent"] * len(table)))]


def _corner_identities(corpus: list, tests: PairingTables, tols: dict) -> tuple:
    """Pass-through identities on every corpus field: (reports, CSV label
    columns, CSV value rows, passed), a row per field, identity (in
    identity_families order) and test function, in that nesting."""
    reports = []
    values = []
    for cf in corpus:
        rep = verify_extension_identities(cf, tests, tol_weak=tols)
        reports.append({"field": cf.name, "passed": rep["passed"],
                        "family_max_residual": rep["family_max_residual"]})
        lhs, rhs = rep["lhs"].ravel(), rep["rhs"].ravel()
        values.append(np.column_stack([lhs, rhs, np.abs(lhs - rhs)]))
    identities = np.array([(fam, "".join(map(str, alpha))) for fam, members in
                           identity_families(tests.grid.dim).items() for alpha in members], dtype=object)
    n_tests = len(tests.amplitudes)
    names = np.repeat(np.array([cf.name for cf in corpus], dtype=object), len(identities) * n_tests)
    families, alphas = np.tile(np.repeat(identities, n_tests, axis=0), (len(corpus), 1)).T
    testfns = np.tile(np.arange(n_tests), len(identities) * len(corpus))
    ok = all(rep["passed"] for rep in reports)
    return reports, (names, families, alphas, testfns), np.concatenate(values), ok


def _corner_layer(cf, tests: PairingTables, h2: float) -> dict:
    layer = detect_layer(cf, tests)
    layer_ok = layer["max_mismatch"] <= max(0.01 * layer["max_layer_magnitude"], 10 * h2)
    return {"max_mismatch": layer["max_mismatch"],
            "max_layer_magnitude": layer["max_layer_magnitude"],
            "passed": bool(layer_ok)}


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
    slopes = [0.4] + [0.0] * (grid.dim - 1)
    moll_norms = [mollifier_commutator(slopes, v, eps_list)
                  for v in kink_profile_corpus(grid, count=2, seed=seed + 5)]
    moll_ok = all(all(n1 > n2 for n1, n2 in zip(ns, ns[1:]))
                  and ns[-1] <= decay_bound * ns[0]
                  for ns in moll_norms)
    return {"eps": eps_list, "norms": moll_norms, "passed": bool(moll_ok)}


def _plan_corner(args) -> tuple:
    """The lab's grid and smoothing ladder, after its size bounds; the
    grid is made only once they hold."""
    dim = args.dim
    cells = (512 if dim == 2 else 128) if args.grid is None else args.grid
    if cells % 2:
        raise ContractViolation(f"--grid {cells} must be even, so that the quadrant faces "
                                f"y_1 = 0 and y_2 = 0 get a node at 0")
    nodes = (cells + 1) ** dim
    if nodes > MAX_CORNER_NODES:
        raise ContractViolation(f"--grid {cells} in {dim}-D has {nodes} nodes, "
                                f"above the bound of {MAX_CORNER_NODES}")
    entries = 3 * args.tests * (cells + 1) * dim
    if entries > MAX_PAIRING_ENTRIES:
        raise ContractViolation(f"--tests {args.tests} at --grid {cells} in {dim}-D needs {entries} "
                                f"pairing-table entries, above the bound of {MAX_PAIRING_ENTRIES}")
    rows = args.tests * sum(map(len, identity_families(dim).values()))
    if rows > MAX_RESIDUAL_ROWS:
        raise ContractViolation(f"--tests {args.tests} in {dim}-D gives {rows} residual rows per "
                                f"corpus field, above the bound of {MAX_RESIDUAL_ROWS}")
    grid = make_grid(unit_box(dim), cells)
    eps_list = _smoothing_ladder(grid)
    # one width gives no pair to compare and a decay bound of 1
    if len(eps_list) < 2:
        raise ContractViolation(f"--grid {cells} is too coarse for the mollifier check: its smoothing "
                                f"ladder resolves {len(eps_list)} of the two widths a decay needs "
                                f"at h = {float(np.max(grid.h)):g}")
    return grid, eps_list


def _run_corner(args, plan: tuple) -> tuple:
    grid, eps_list = plan
    dim, cells = grid.dim, grid.n_cells[0]
    h2 = float(np.max(grid.h)) ** 2
    tests = bump_corpus(unit_box(dim), args.tests, seed=args.seed + 42)
    tols = {k: v * h2 for k, v in WEAK_K.items()}

    # every 1-D table is built once here, and no stage forms a grid array
    corpus = corner_corpus(grid)
    pairing = PairingTables(grid, tests)
    identity_reports, residual_labels, residuals, ok = _corner_identities(corpus, pairing, tols)
    layer = _corner_layer(corpus[0], pairing, h2)
    # the tables hold every test bump's profiles on every node: dropped here,
    # they do not stack on the transfer's slabs at the run's peak memory
    del pairing
    bmat = np.zeros((dim, dim))
    bmat[0, 1] = bmat[1, 0] = 1.0
    transfer = verify_inequality_transfer(corpus[1], bmat)
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
    header = ["field", "family", "alpha", "testfn", "lhs", "rhs", "residual"]
    return payload, [("corner_residuals.csv", header, residuals, residual_labels)]


def _plan_carleman(args) -> tuple:
    """The sweep's cells per axis, checked against the corpus bound, and its
    lambda ladder 1, 2, 4, ... to --lambda-max, which must reach 4, the floor's first lambda."""
    cells = 256 if args.grid is None else args.grid
    values = args.corpus * (cells + 1) ** 2
    if values > MAX_CARLEMAN_VALUES:
        raise ContractViolation(f"--corpus {args.corpus} at --grid {cells} needs {values} corpus values, "
                                f"above the bound of {MAX_CARLEMAN_VALUES}")
    lambdas = [2.0 ** k for k in range(int(math.log2(args.lambda_max + 1e-9)) + 1)]
    if max(lambdas, default=0.0) < 4.0:
        raise ContractViolation(f"--lambda-max {args.lambda_max:g} must be at least 4, "
                                f"the first lambda of the floor r_floor_from_lam4")
    return cells, lambdas


def _run_carleman(args, plan: tuple) -> tuple:
    cells, lambdas = plan
    lam = 2.0 if args.lam is None else args.lam
    ik2 = get_model("ik2")      # the section is its y_2 = 0 slice through x0
    threshold = certify(ik2.geometry, ik2.x0, lam=lam).notes.get("lambda_threshold")
    if threshold:
        notes = {"gate": ["lambda_threshold"], "lambda_threshold": threshold}
        return {"command": "carleman", "seed": args.seed, "mu": args.mu,
                "cells": cells, "passed": False, "notes": notes}, []
    q, bent, box = carleman_section(lam=lam)
    grid = make_grid(box, cells)
    corpus = bump_superposition_values(grid, args.corpus, seed=args.seed + 7)
    if not any(np.any(w) for w in corpus):
        raise ContractViolation(f"--grid {cells} is too coarse: every corpus function is zero at the nodes")
    rep = lambda_sweep(q, build_weight(bent, mu=args.mu), corpus, lambdas, grid)
    s1, s2 = exponent_slopes(rep)
    floor = rep.r_floor(4.0)
    tripped = {}
    if not floor > 0:
        tripped["r_floor"] = {"r_floor_from_lam4": floor, "required_above": 0.0}
    if rep.decreasing_flags:
        tripped["decreasing_flags"] = {
            "steps": [[l1, l2] for l1, l2 in rep.decreasing_flags],
            "r_min": [[rep.r_min[l1], rep.r_min[l2]] for l1, l2 in rep.decreasing_flags],
            "required_ratio_at_least": 0.5}
    for gate, slope, wired in (("slope_rhs1", s1, 0.5), ("slope_rhs2", s2, 1.5)):
        if not abs(slope - wired) <= 0.05:
            tripped[gate] = {"slope": slope, "wired": wired, "tolerance": 0.05}
    payload = {
        "command": "carleman",
        "seed": args.seed,
        "mu": args.mu,
        "cells": cells,
        "sweep": {"mu": args.mu, **rep.to_dict()},
        "r_floor_from_lam4": floor,
        "exponent_slopes": [s1, s2],
        "passed": not tripped,
    }
    if tripped:
        payload["notes"] = {"gate": list(tripped), **tripped}
    # lam-major: a block of every test function per lam
    n_tests, n_lams = rep.lhs.shape
    table = np.stack([a.T.ravel() for a in (rep.lhs, rep.rhs1, rep.rhs2, rep.ratio)], axis=1)
    labels = (np.tile(np.arange(n_tests), n_lams), np.repeat(rep.lambdas, n_tests))
    return payload, [("carleman_ratios.csv", ["testfn_id", "lambda", "lhs", "rhs1", "rhs2", "ratio"],
                      table, labels)]


def _plan_all(args) -> dict:
    """Every stage's plan, certify's first: its bound stops the run before
    the model is read."""
    stages = sorted((name for name in COMMANDS if name != "all"), key=lambda name: name != "certify")
    return {name: COMMANDS[name][0](args) for name in stages}


def _run_all(args, plans: dict) -> tuple:
    """Each stage, in the table's order, run on its plan and emitted into
    out/<stage> before the next runs, so that no two stages' tables are held
    at once; the payload is the stages' exit codes."""
    codes = {name: _emit(os.path.join(args.out, name), *run(args, plans[name]))
             for name, (_, run, _) in COMMANDS.items() if name in plans}
    return {"command": "all", "seed": args.seed, "stage_exit_codes": codes,
            "passed": not any(codes.values())}, []


def _emit(out_dir: str, payload: dict, tables: list) -> int:
    """Write a run's report and CSV tables; the exit code, 0 when the report
    says passed and 1 when not."""
    write_report(out_dir, payload)
    for name, header, rows, labels in tables:
        write_csv(out_dir, name, header, rows, labels=labels)
    return 0 if payload["passed"] else 1


# flag -> (type, default, help).  The type sets the range: a float must be finite and positive,
# an int at least 1, but --seed at least 0 and --dim 2 or 3.  A default of None is the command's
FLAGS = {
    "model": (str, None, "built-in model name: ik2, ik3, ..., ctrl-a, ctrl-b, ctrl-c"),
    "config": (str, None, "config file with a [geometry] section (and, for run, a [run] section)"),
    "out": (str, "uccert-out", "output directory"),
    "seed": (int, 0, "random seed"),
    "samples": (int, None, "surface samples for check, constraint samples for certify and all "
                           "(default the geometry's n_surface_samples, 2000 for certify)"),
    "lambda": (float, None, "bending parameter (default 2; certify's is 2 lambda0 + 1)"),
    "mu": (float, 1.0, "weight exponent"),
    "grid": (int, None, "cells per axis (default 512 for corner in 2-D, 128 in 3-D, 256 for carleman)"),
    "tol-zero": (float, DEFAULT_TOL_ZERO, "surface membership residual"),
    "tol-char": (float, DEFAULT_TOL_CHAR, "characteristic residual of the unit gradients"),
    "tol-pos": (float, DEFAULT_TOL_POS, "strict-sign threshold"),
    "ds": (float, DEFAULT_DS, "RK4 step of a ray"),
    "s-fit": (float, DEFAULT_S_FIT, "contact fit window |s| <= s-fit"),
    "max-rays": (int, 8, "rays integrated, and the constraint samples that seed them"),
    "dim": (int, 2, "dimension of the corner lab, 2 or 3"),
    "tests": (int, 20, "test bumps of the corner lab"),
    "corpus": (int, 50, "test functions of the carleman sweep"),
    "lambda-max": (float, 64.0, "largest lambda of the sweep's ladder 1, 2, 4, ..."),
}
_GEOMETRY_FLAGS = ("model", "config", "out", "seed", "lambda", "tol-zero", "tol-pos")

# command -> (plan, run, the flags they read).  The table declares each command's flags: its
# parser and its [run] keys offer those alone; `all` reads every flag and runs the stages in order
COMMANDS = {"check": (_plan_check, _run_check, (*_GEOMETRY_FLAGS, "samples", "tol-char")),
            "certify": (_plan_certify, _run_certify, (*_GEOMETRY_FLAGS, "samples")),
            "rays": (_plan_rays, _run_rays, (*_GEOMETRY_FLAGS, "ds", "s-fit", "max-rays")),
            "corner": (_plan_corner, _run_corner, ("out", "seed", "grid", "dim", "tests")),
            "carleman": (_plan_carleman, _run_carleman, ("out", "seed", "grid", "lambda", "mu", "corpus",
                                                         "lambda-max")),
            "all": (_plan_all, _run_all, tuple(FLAGS))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # one line, where argparse prints a usage block
        raise ContractViolation(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each command offers the flags it
    reads and `run` every flag, each parsed as its text, or None when left off."""
    p = _Parser(prog="uccert", description="certification toolkit for wave-type symbols and surface pairs")
    sub = p.add_subparsers(dest="command", required=True)
    for command, reads in [*((name, entry[2]) for name, entry in COMMANDS.items()), ("run", FLAGS)]:
        sp = sub.add_parser(command)
        for name, (_, default, text) in FLAGS.items():
            if name in reads:
                sp.add_argument(f"--{name}", dest=name,
                                help=text if default is None else f"{text} (default {default})")
    return p


def _flag_value(name: str, text: str):
    """A flag's text as the flag's type, within the range that its type gives."""
    kind = FLAGS[name][0]
    try:
        value = kind(text)
    except ValueError:
        raise ContractViolation(f"--{name}: invalid {kind.__name__} value {text!r}") from None
    if kind is float and not (math.isfinite(value) and value > 0):
        raise ContractViolation(f"--{name} must be {'positive' if math.isfinite(value) else 'finite'}, "
                                f"got {value:g}")
    if name == "dim" and value not in (2, 3):
        raise ContractViolation(f"--dim must be 2 or 3, got {value}")
    if kind is int and value < (name != "seed"):
        raise ContractViolation(f"--{name} must be at least {int(name != 'seed')}, got {value}")
    return value


def resolve_args(argv: Optional[list] = None) -> argparse.Namespace:
    """The command and the value of each flag it reads.  A flag on the command
    line wins over its [run] key, the flag's name with _ for -, which wins over
    its default.  A flag or [run] key that the command does not read is a
    usage error naming both, and config is never a [run] key."""
    parsed, extra = build_parser().parse_known_args(argv)
    command, section = parsed.command, {}
    if extra:
        flag = extra[0].split("=", 1)[0]
        if not (flag.startswith("--") and flag[2:] in FLAGS):
            raise ContractViolation(f"unrecognized arguments: {' '.join(extra)}")
        raise ContractViolation(f"{command} does not read {flag}")
    given = {name: text for name, text in vars(parsed).items() if name in FLAGS and text is not None}
    if command == "run":
        section = dict(parse_config_file(given["config"]).get("run", {})) if "config" in given else {}
        command = section.pop("command", "").strip()
        if command not in COMMANDS:
            raise ContractViolation(f"unknown command {command!r} in [run] section" if command else
                                    "run needs --config with a [run] section that names a command")
        keys = {name.replace("-", "_"): name for name in FLAGS if name != "config"}
        _check_keys(section, "run", keys)
        section = {keys[key]: text for key, text in section.items()}
    reads, texts = COMMANDS[command][2], {**section, **given}
    # run's own --config names the [run] section, whatever the command reads
    unread = [name for name in texts if name not in reads and name != "config"]
    if unread:
        raise ContractViolation(f"{command} does not read --{unread[0]}")
    return argparse.Namespace(command=command, **{
        "lam" if name == "lambda" else name.replace("-", "_"):
            _flag_value(name, texts[name]) if name in texts else FLAGS[name][1] for name in reads})


def main(argv: Optional[list] = None) -> int:
    try:
        args = resolve_args(argv)
        plan, run, _ = COMMANDS[args.command]
        return _emit(args.out, *run(args, plan(args)))
    except SystemExit as e:     # argparse ends --help with exit status 0
        return e.code or 0
    except (UccertError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"uccert: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
