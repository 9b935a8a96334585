"""``cli.write_csv`` against the csv module, which the package itself does not
import: the same bytes for any table, and the CLI's CSVs equal the csv
rendering of the certificate and ray arrays and the corner identity rows
they come from."""

import ast
import csv
import io
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uccert.cli
from uccert import build_psi, certify, integrate, linear_combination, squared_field
from uccert.cli import geometry_from_config, main, parse_config_file, write_csv
from uccert.corner import PairingTables, corner_corpus, identity_families, verify_extension_identities
from uccert.grids import bump_corpus, make_grid, unit_box
from uccert.models import get_model

BUMPY_CONFIG = ("[geometry]\ndim = 3\nmetric = bumpy_wave(2, 0.05)\n"
                "phi_plus = norm(x2, x3) - 1 - x1\nphi_minus = norm(x2, x3) - 1 + x1\n"
                "box = -0.4:0.4, 0.6:1.4, -0.4:0.4\nx0 = 0, 1, 0\n")

SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1, -1.5]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
# strings that need quoting: delimiters, quotes, CR and LF, and the empty string
texts = st.text(st.sampled_from(list('ab ,"\r\n\'')), max_size=6) | st.text(
    st.characters(exclude_categories=["Cs"]), max_size=6)
cells = floats | st.integers() | texts | st.none() | st.booleans()


def csv_module_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


def written_bytes(header, rows, labels=()) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        write_csv(out, "t.csv", header, rows, labels)
        with open(os.path.join(out, "t.csv"), "rb") as f:
            return f.read()


@settings(deadline=None)
@given(st.lists(texts, max_size=4), st.lists(st.lists(cells, max_size=5), max_size=6))
def test_list_form_writes_what_the_csv_module_writes(header, rows):
    assert written_bytes(header, rows) == csv_module_bytes(header, rows)


@settings(deadline=None)
@given(st.lists(texts, max_size=4), st.integers(0, 6), st.integers(0, 3), st.integers(1, 7), st.data())
def test_array_form_writes_what_the_csv_module_writes(header, n_rows, n_cols, block_rows, data):
    table = np.array(data.draw(st.lists(st.lists(floats, min_size=n_cols, max_size=n_cols),
                                        min_size=n_rows, max_size=n_rows)),
                     dtype=float).reshape(n_rows, n_cols)
    # distinct ids, so that a label row written against the wrong array row shows
    ids = np.array(data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n_rows,
                                      max_size=n_rows, unique=True)), dtype=np.int64)
    names = data.draw(st.lists(texts, min_size=n_rows, max_size=n_rows))
    labels = data.draw(st.sampled_from([(), (ids,), (names,), (ids, names), (names, ids)]))
    label_cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in labels]
    rows = [[*(c[i] for c in label_cells), *table[i].tolist()] for i in range(n_rows)]
    with mock.patch.object(uccert.cli, "CSV_BLOCK_ROWS", block_rows):
        assert written_bytes(header, table, labels) == csv_module_bytes(header, rows)


@pytest.mark.parametrize("block_rows", [3, 1024])
def test_mixed_label_column_keeps_each_value_apart(block_rows):
    # strings are formatted once each; 0, 0.0, -0.0, False and "0" are equal
    # or hash alike, and each keeps its own text
    label = ["a", 0, 0.0, -0.0, False, "a", 'x,"y"', "", None, True, "0", "a", 'x,"y"', 1, 1.0, "1"]
    ids = np.arange(len(label))
    table = np.linspace(-1.0, 1.0, len(label))[:, None]
    rows = [[v, i, x] for v, i, x in zip(label, ids.tolist(), table[:, 0].tolist())]
    with mock.patch.object(uccert.cli, "CSV_BLOCK_ROWS", block_rows):
        got = written_bytes(["label", "id", "x"], table, (label, ids))
    assert got == csv_module_bytes(["label", "id", "x"], rows)


def test_signed_zeros_and_nans_keep_their_text():
    table = np.array([[0.0, -0.0, math.nan], [-0.0, 0.0, -math.nan], [5e-324, -5e-324, math.inf]])
    assert written_bytes(["a", "b", "c"], table) == \
        b"a,b,c\r\n0.0,-0.0,nan\r\n-0.0,0.0,nan\r\n5e-324,-5e-324,inf\r\n"


def test_the_package_does_not_import_csv():
    src = Path(__file__).resolve().parents[1] / "src" / "uccert"
    for path in src.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "csv" not in imported, path.name


def _models(tmp_path):
    conf = tmp_path / "bumpy.conf"
    conf.write_text(BUMPY_CONFIG)
    bumpy = geometry_from_config(parse_config_file(str(conf))["geometry"])
    return [(["--model", m], get_model(m)) for m in ("ik2", "ik3", "ik4")] + \
        [(["--config", str(conf)], bumpy)]


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def test_certify_and_rays_csvs_are_the_csv_rendering_of_their_arrays(tmp_path):
    for argv, model in _models(tmp_path):
        geo, x0 = model.geometry, model.x0
        dim = geo.dim
        out = str(tmp_path / "c")
        assert main(["certify", *argv, "--lambda", "2", "--out", out]) == 0
        cert = certify(geo, x0, lam=2.0, n=2000, seed=0)
        header = [f"xi{i + 1}" for i in range(dim)] + ["res_p", "res_hp", "margin", "margin_direct"]
        rows = [xi + [rp, rh, m, md] for xi, rp, rh, m, md in zip(
            cert.samples.tolist(), cert.res_p.tolist(), cert.res_hp.tolist(),
            cert.margins.tolist(), cert.margins_direct.tolist())]
        assert len(rows) == cert.n_samples > 0
        assert _read(os.path.join(out, "constraint_samples.csv")) == csv_module_bytes(header, rows)

        out = str(tmp_path / "r")
        assert main(["rays", *argv, "--lambda", "2", "--out", out]) == 0
        cert = certify(geo, x0, lam=2.0, n=8, seed=0)
        psi0, psi1 = build_psi(geo)
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))], name="bent")
        rays = integrate(geo.Q, x0, cert.samples[:8], 1e-3, math.ceil(0.05 / 1e-3) + 2)
        psi_vals = rays.annotate(bent)
        header = (["ray", "field", "s"] + [f"x{i + 1}" for i in range(dim)]
                  + [f"xi{i + 1}" for i in range(dim)] + ["p", "psi"])
        rows = []
        for ray in range(len(rays.xs)):
            for s, x, xi, p, psi in zip(rays.s.tolist(), rays.xs[ray].tolist(), rays.xis[ray].tolist(),
                                        rays.p_vals[ray].tolist(), psi_vals[ray].tolist()):
                rows.append([ray, "bent", s, *x, *xi, p, psi])
        assert len(rows) > 0
        assert _read(os.path.join(out, "rays.csv")) == csv_module_bytes(header, rows)


@pytest.mark.parametrize("dim, cells", [(2, 64), (3, 48)])
def test_corner_csv_is_the_csv_rendering_of_the_identity_rows(tmp_path, dim, cells):
    out = str(tmp_path / "k")
    argv = ["corner", "--dim", str(dim), "--grid", str(cells), "--tests", "3"]
    assert main(argv + ["--out", out]) in (0, 1)
    grid = make_grid(unit_box(dim), cells)
    tables = PairingTables(grid, bump_corpus(unit_box(dim), 3, seed=42))
    header = ["field", "family", "alpha", "testfn", "lhs", "rhs", "residual"]
    identities = [(fam, alpha) for fam, members in identity_families(dim).items() for alpha in members]
    rows = []
    for cf in corner_corpus(grid):
        rep = verify_extension_identities(cf, tables)
        for (fam, alpha), lhs, rhs in zip(identities, rep["lhs"].tolist(), rep["rhs"].tolist(), strict=True):
            rows.extend([cf.name, fam, "".join(map(str, alpha)), t, l, r, abs(l - r)]
                        for t, (l, r) in enumerate(zip(lhs, rhs, strict=True)))
    assert len(rows) > 0
    assert _read(os.path.join(out, "corner_residuals.csv")) == csv_module_bytes(header, rows)
