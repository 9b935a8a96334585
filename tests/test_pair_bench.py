"""The paired timing tool's interval helper and import guard.  The tool
itself runs the benchmark's workloads, so it stays out of the suite."""

import importlib.util
import random
from pathlib import Path

import pytest
from scipy.stats import binom

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)


@pytest.mark.parametrize("n", [6, 7, 10, 17, 40, 60, 80, 101])
def test_median_interval_is_the_widest_rank_pair_that_reaches_95_percent(n):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    lo, mid, hi = pair_bench.median_interval(values)
    r = lo                                   # the values are their own ranks
    assert hi == n + 1 - r and mid == (n + 1) / 2
    coverage = lambda r: 1.0 - 2.0 * binom.cdf(r - 1, n, 0.5)
    assert coverage(r) >= 0.95 and (r + 1 > n // 2 or coverage(r + 1) < 0.95)


def test_median_interval_refuses_too_few_values():
    assert pair_bench.median_interval([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])[::2] == (1.0, 6.0)
    with pytest.raises(ValueError, match="too few"):
        pair_bench.median_interval([1.0, 2.0, 3.0, 4.0, 5.0])


def test_the_package_imports_itself_relatively():
    assert pair_bench.absolute_imports(ROOT / "src" / "uccert") == []


@pytest.mark.parametrize("line", ["import uccert", "from uccert.fields import Jet",
                                  "import numpy, uccert.cli as cli"])
def test_an_absolute_import_exits_2_with_one_line(tmp_path, capsys, line):
    tree = tmp_path / "uccert"
    tree.mkdir()
    (tree / "__init__.py").write_text("from .fields import x\n")
    (tree / "fields.py").write_text(f"x = 1\n\n{line}\n")
    assert pair_bench.absolute_imports(tree) == [f"{tree / 'fields.py'}:3"]
    rc = pair_bench.main(["--base", str(tree), "--pairs", "6"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "fields.py:3 imports uccert absolutely" in err
