"""The benchmark's workloads and the rule that decides whether an op failed.

Every workload is a closed loop: one caller, one operation at a time.  An op
is one CLI command or one library call whose result the user waits for; it
is timed alone and checked afterwards, outside the timed region.  Each op
belongs to a part (``check``, ``certify``, ...); ``PARTS`` lists each
workload's parts in pass order.

This module imports nothing from uccert at load time: the runner hands the
imported modules in, so the parent process can read the part names without
loading numpy.
"""

from __future__ import annotations

import json
import math
import os
from time import perf_counter as clock

IK_MODELS = ("ik2", "ik3", "ik4")
LAMBDA = 2.0

# closed-form constants of the flat double cone ik<d> at x0 = (0, e_1), for
# every d: the certificate at lambda = 2 and <Q dphi_plus, dphi_minus> on the
# intersection
IK_CERTIFICATE = {"m0": math.sqrt(2.0), "lambda0": 1.0, "worst_margin": -6.0}
IK_SIGN_VALUE = 2.0
CONSTANT_TOL = 1e-6
R_STAR_BOUND = 4.0          # frozen floor of the carleman ratio from lambda = 4
SURFACE_TOL = 1e-9          # bumpy map points must lie on both cones to this

BUMPY_CONFIG = """\
[geometry]
dim = 3
metric = bumpy_wave(2, 0.05)
phi_plus = norm(x2, x3) - 1 - x1
phi_minus = norm(x2, x3) - 1 + x1
box = -0.4:0.4, 0.6:1.4, -0.4:0.4
x0 = 0, 1, 0

[run]
command = certify
lambda = 2
seed = {seed}
"""
MAP_STRIDE = 8              # certify every 8th sampled intersection point

PARTS = {
    "pointwise": ("check", "certify", "rays", "sample", "certmap", "write"),
    "corner-lab": ("corner2",),
}


# ---------------------------------------------------------------------------
# the failure rule
# ---------------------------------------------------------------------------

def _off(got, want) -> bool:
    return not isinstance(got, (int, float)) or not abs(got - want) <= CONSTANT_TOL


def report_failures(report: dict) -> list:
    """Reasons why a parsed ``report.json`` is not a correct result."""
    out = []
    if report.get("passed") is not True:
        out.append("report says passed: false")
    command = report.get("command")
    is_ik = str(report.get("model", "")).startswith("ik")
    if command == "certify" and is_ik:
        cert = report.get("certificate", {})
        for key, want in IK_CERTIFICATE.items():
            if _off(cert.get(key), want):
                out.append(f"{key} = {cert.get(key)!r}, closed form {want!r}")
    elif command == "check" and is_ik:
        sign = report.get("hypotheses", {}).get("checks", {}).get("sign_condition", {})
        for key in ("min_value", "max_value"):
            if _off(sign.get(key), IK_SIGN_VALUE):
                out.append(f"sign condition {key} = {sign.get(key)!r}, closed form 2")
    elif command == "carleman":
        floor = report.get("r_floor_from_lam4")
        if not isinstance(floor, (int, float)) or not floor >= R_STAR_BOUND:
            out.append(f"r_floor_from_lam4 = {floor!r} < {R_STAR_BOUND}")
    elif command == "certmap":
        bad = [c.get("status") for c in report.get("certificates", [])
               if c.get("status") != "certified"]
        if bad or not report.get("certificates"):
            out.append(f"{len(bad)} certificates not certified")
    return out


def op_failures(error, rc, report_bytes, reference) -> list:
    """Every reason an op failed; an empty list means it succeeded.

    ``error`` is the exception text when the op raised, ``rc`` its exit code,
    ``report_bytes`` the report it wrote (None when it wrote none) and
    ``reference`` the report the same op wrote in the run's first pass.
    """
    if error is not None:
        return [error]
    out = []
    if rc != 0:
        out.append(f"exit code {rc}")
    if report_bytes is None:
        return out + ["no report.json written"]
    try:
        out += report_failures(json.loads(report_bytes))
    except ValueError as e:
        out.append(f"report.json is not JSON: {e}")
    if reference is not None and report_bytes != reference:
        out.append("report.json differs from the first pass")
    return out


def surface_failures(points, box) -> list:
    """Independent check that sampled points lie on both cones inside the box."""
    if len(points) == 0:
        return ["no intersection points sampled"]
    out = []
    worst = 0.0
    outside = 0
    for x1, x2, x3 in points:
        r = math.hypot(x2, x3)
        worst = max(worst, abs(r - 1.0 - x1), abs(r - 1.0 + x1))
        outside += any(not lo - SURFACE_TOL <= v <= hi + SURFACE_TOL
                       for v, (lo, hi) in zip((x1, x2, x3), box))
    if worst > SURFACE_TOL:
        out.append(f"sampled point off the cones by {worst:.3e}")
    if outside:
        out.append(f"{outside} sampled points outside the box")
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Op:
    __slots__ = ("part", "label", "seconds", "failures")

    def __init__(self, part, label, seconds, failures):
        self.part, self.label = part, label
        self.seconds, self.failures = seconds, failures

    def as_list(self) -> list:
        return [self.part, self.label, self.seconds, self.failures]


class Workload:
    """Inputs built by ``setup``; ``run_pass`` runs every op once.

    ``warm_up`` runs some of the pass's ops before timing starts, so that
    lazy imports and first-call costs are paid; by default it is one full
    pass.  Its reports are the reference that later passes must reproduce.
    """

    def __init__(self, name: str, seed: int, workdir: str, uc: dict):
        self.name, self.seed, self.workdir, self.uc = name, seed, workdir, uc
        self.reference: dict = {}

    def _read_report(self, out_dir: str):
        try:
            with open(os.path.join(out_dir, "report.json"), "rb") as f:
                return f.read()
        except FileNotFoundError:
            return None

    def _clear_report(self, out_dir: str):
        try:
            os.remove(os.path.join(out_dir, "report.json"))
        except FileNotFoundError:
            pass

    def finish(self, part, label, seconds, error, rc, out_dir) -> Op:
        data = self._read_report(out_dir)
        fails = op_failures(error, rc, data, self.reference.get(label))
        if data is not None:
            self.reference.setdefault(label, data)
        return Op(part, label, seconds, fails)

    def warm_up(self) -> list:
        return self.run_pass()

    def cli_op(self, part, label, argv) -> Op:
        out_dir = os.path.join(self.workdir, label)
        self._clear_report(out_dir)
        argv = argv + ["--seed", str(self.seed), "--out", out_dir]
        main = self.uc["cli"].main
        error = rc = None
        t0 = clock()
        try:
            rc = main(argv)
        except Exception as e:        # a raising op is a failed op, not a crash
            error = f"raised {type(e).__name__}: {e}"
        return self.finish(part, label, clock() - t0, error, rc, out_dir)


class ConePipeline(Workload):
    """check, certify and rays through ``cli.main`` on ik2, ik3 and ik4."""

    def setup(self):
        self.ops = []
        for model in IK_MODELS:
            for cmd in ("check", "certify", "rays"):
                argv = [cmd, "--model", model]
                if cmd != "check":
                    argv += ["--lambda", f"{LAMBDA:g}"]
                self.ops.append((cmd, f"{model}-{cmd}", argv))

    def run_pass(self) -> list:
        return [self.cli_op(part, label, argv) for part, label, argv in self.ops]

    def warm_up(self) -> list:
        # the ik2 ops reach every code path of the pass in a seventh of its time
        return [self.cli_op(part, label, argv)
                for part, label, argv in self.ops if label.startswith(IK_MODELS[0])]


class CornerLab(Workload):
    """The 2-D corner lab through ``cli.main``.

    Two grid ops that the benchmark was meant to run are left out, because a
    workload must not contain an op that fails at some seed.  ``corner --dim
    3`` (64 cells per axis) fails its own edge-identity or layer-probe
    tolerance on about one seed in nine.  ``carleman --grid 256 --mu 1``
    passes its own checks, but its ratio floor from lambda = 4 falls below
    the frozen ``R_STAR_BOUND`` on about one seed in fifty.
    """

    def setup(self):
        self.ops = [("corner2", ["corner", "--grid", "512"])]

    def run_pass(self) -> list:
        return [self.cli_op(part, part, argv) for part, argv in self.ops]


class BumpyMap(Workload):
    """Certificates at every 8th intersection point of a config-defined geometry."""

    def setup(self):
        cli = self.uc["cli"]
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, "bumpy.conf")
        with open(path, "w", encoding="utf-8") as f:
            f.write(BUMPY_CONFIG.format(seed=self.seed))
        sections = cli.parse_config_file(path)
        self.model = cli.geometry_from_config(sections["geometry"])
        self.lam = float(sections["run"]["lambda"])
        self.cert_seed = int(sections["run"]["seed"])

    def run_pass(self) -> list:
        geo = self.model.geometry
        ops = []
        points = []
        error = None
        t0 = clock()
        try:
            points = self.uc["hypotheses"].sample_surface(geo, "intersection")
        except Exception as e:
            error = f"raised {type(e).__name__}: {e}"
        dt = clock() - t0
        ops.append(Op("sample", "sample", dt,
                      [error] if error else surface_failures(points, geo.box.tolist())))

        certs = []
        certify = self.uc["certify"].certify
        for k, x0 in enumerate(points[::MAP_STRIDE]):
            cert = error = None
            t0 = clock()
            try:
                cert = certify(geo, x0, lam=self.lam, seed=self.cert_seed)
            except Exception as e:
                error = f"raised {type(e).__name__}: {e}"
            dt = clock() - t0
            if cert is not None:
                certs.append(cert)
                if cert.status != "certified":
                    error = f"status {cert.status}"
            ops.append(Op("certmap", f"point{k}", dt, [error] if error else []))

        out_dir = os.path.join(self.workdir, "certmap")
        self._clear_report(out_dir)
        payload = {"command": "certmap", "model": self.model.name, "seed": self.seed,
                   "lambda": self.lam, "stride": MAP_STRIDE, "n_points": len(points),
                   "certificates": [c.to_dict() for c in certs],
                   "passed": bool(certs) and all(c.status == "certified" for c in certs)}
        rows = [[float(v) for v in c.x0] + [c.m0, c.lambda0, c.worst_margin,
                                             c.n_samples, c.status] for c in certs]
        cli = self.uc["cli"]
        error = None
        t0 = clock()
        try:
            cli.write_report(out_dir, payload)
            cli.write_csv(out_dir, "certmap.csv",
                          ["x1", "x2", "x3", "m0", "lambda0", "worst_margin",
                           "n_samples", "status"], rows)
        except Exception as e:
            error = f"raised {type(e).__name__}: {e}"
        ops.append(self.finish("write", "certmap", clock() - t0, error, 0, out_dir))
        return ops


class Pointwise(Workload):
    """The cone pipeline, then the bumpy certificate map, in every pass.

    Both run on single points rather than grids.  They share one workload,
    not one each, so that a run of the benchmark's length spans enough of
    this shared machine's slow and fast stretches for both of them.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.parts = [ConePipeline(*args), BumpyMap(*args)]

    def setup(self):
        for part in self.parts:
            part.setup()

    def run_pass(self) -> list:
        return [op for part in self.parts for op in part.run_pass()]

    def warm_up(self) -> list:
        return [op for part in self.parts for op in part.warm_up()]


WORKLOADS = {"pointwise": Pointwise, "corner-lab": CornerLab}
