"""What the package loads: each test runs its code in a fresh interpreter under -W error."""

import os
import subprocess
import sys

import gl3census

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gl3census.__file__)))

# Modules no census needs; `import gl3census` and a census subcommand load none.
UNUSED_BY_CENSUSES = (
    "gl3census.verify",
    "gl3census.structure_maps",
    "gl3census.cli",
    "concurrent.futures",
    "json",
)


def run_fresh(code: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_leaves_verify_structure_maps_and_the_pool_unloaded():
    code = f"""
import importlib, sys
import gl3census

print(sorted(m for m in {UNUSED_BY_CENSUSES!r} if m in sys.modules))
owners = [
    importlib.import_module("gl3census." + m)
    for m in ("closed_form", "matrices", "modring", "oracle", "structure_maps", "verify")
]
wrong = []
for name in gl3census.__all__:
    value = getattr(gl3census, name)
    lazy = gl3census._LAZY_NAMES.get(name)
    home = [sys.modules["gl3census." + lazy]] if lazy else owners
    if name != "__version__" and not any(getattr(m, name, None) is value for m in home):
        wrong.append(name)
print(wrong)
star = {{}}
exec("from gl3census import *", star)
print(sorted(set(gl3census.__all__) - set(star)))
print(sorted(set(gl3census.__all__) - set(dir(gl3census))))
print(gl3census.run_suite is gl3census.verify.run_suite, hasattr(gl3census, "no_such_name"))
"""
    assert run_fresh(code) == ["[]", "[]", "[]", "[]", "True False"]


def test_census_subcommands_leave_verify_and_structure_maps_unloaded():
    code = """
import contextlib, io, sys
from gl3census.cli import main

for argv in (["eval", "5", "1"], ["oracle", "12"], ["table", "--section", "case-table", "--check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = [m for m in ("gl3census.verify", "gl3census.structure_maps") if m in sys.modules]
    print(argv[0], code, loaded)
"""
    assert run_fresh(code) == ["eval 0 []", "oracle 0 []", "table 0 []"]


def test_no_census_loads_concurrent_futures():
    # every engine runs on the calling thread, given two threads or not: the
    # orbit censuses, the naive census at 6 (10 jobs) and the 2x2 census at
    # 37 and at 107, its bound
    code = """
import sys
from gl3census import closed_form, oracle

table = oracle.census_tiered(120, threads=2)
print(table.counts == tuple(closed_form.count(120, x) for x in range(120)))
oracle.class_census(5, 3, threads=2)
oracle.case_census(13, threads=2)
table = oracle.census_naive(6, threads=2)
print(table.counts == tuple(closed_form.count(6, x) for x in range(6)))
for p in (37, 107):
    table = oracle.census_2x2(p, threads=2)
    print(table.counts == tuple(closed_form.count2_prime(p, x) for x in range(p)))
print("concurrent.futures" in sys.modules)
"""
    assert run_fresh(code) == ["True", "True", "True", "True", "False"]
