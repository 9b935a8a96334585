"""The paired timing tool's interval helper, import guard and per-pass
fault count.  The tool itself runs the benchmark's workloads, so it stays
out of the suite; its pass loop is tested on a stand-in workload."""

import importlib.util
import mmap
import random
from pathlib import Path
from types import SimpleNamespace

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


class _Workload:
    """A stand-in workload: one op per pass, which writes to each page of a
    fresh anonymous mapping of ``pages`` pages, one minor fault per page (a
    mapping under 2 MiB takes no huge page)."""

    def __init__(self, pages, failures=()):
        self.pages, self.failures = pages, list(failures)

    def run_pass(self):
        if self.pages:
            with mmap.mmap(-1, self.pages * mmap.PAGESIZE) as buf:
                for i in range(0, len(buf), mmap.PAGESIZE):
                    buf[i] = 1
        return [SimpleNamespace(part="lab", label="lab", seconds=0.25, failures=self.failures)]


def test_run_pass_counts_the_minor_faults_of_the_pass():
    pages = (1 << 20) // mmap.PAGESIZE
    touched = pair_bench.run_pass(_Workload(pages))
    idle = pair_bench.run_pass(_Workload(0))
    assert touched["lab"] == touched["pass"] == 0.25
    assert touched["minflt"] >= pages > idle["minflt"] >= 0


def test_run_pass_raises_on_a_failed_op():
    with pytest.raises(RuntimeError, match="op lab failed: exit code 1"):
        pair_bench.run_pass(_Workload(0, ["exit code 1"]))


def test_fault_row_gives_each_trees_median():
    times = {"base": [{"minflt": 1008}, {"minflt": 990}, {"minflt": 1012}],
             "head": [{"minflt": 0}, {"minflt": 3}, {"minflt": 0}, {"minflt": 1}]}
    assert pair_bench.fault_row(times) == "minor page faults per pass, median: base 1008, head 0.5"
