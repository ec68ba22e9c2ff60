"""End-to-end acceptance checks.

One test per numbered criterion; each prints a PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them as they complete). Every
comparison is exact integer equality.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from gl3census import closed_form as cf
from gl3census import oracle, structure_maps, verify
from gl3census.cli import _default_threads
from gl3census.cli import main as cli_main
from gl3census.matrices import CLASS_LABELS, is_invertible, mat3, permanent3
from gl3census.modring import factorize, totient
from support import ZERO_COUNTS

THREADS = _default_threads()

EXPECTED_CLASS_ROWS = [
    "3,3312,2208,576,96,384,48",
    "5,288000,225280,38400,5120,17920,1280",
    "7,4653936,3900960,508032,54432,181440,9072",
    "9,21730032,14486688,3779136,629856,2519424,314928",
    "11,192390000,173140000,14520000,1100000,3520000,110000",
    "13,739964160,677154816,49061376,3234816,10243584,269568",
]


def report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}", flush=True)
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def census():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = oracle.census_tiered(n, threads=THREADS)
        return cache[n]

    return get


@pytest.fixture(scope="module")
def classes():
    cache = {}

    def get(p, k):
        if (p, k) not in cache:
            cache[(p, k)] = oracle.class_census(p, k, threads=THREADS)
        return cache[(p, k)]

    return get


def test_criterion_1_class_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = cli_main(["table", "--section", "4.2", "--format", "csv"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()
    ok = code == 0 and out[1:] == EXPECTED_CLASS_ROWS and elapsed < 1.0
    with capsys.disabled():
        report(1, f"class table emitted exactly, closed-form path in {elapsed:.3f}s", ok)


def test_criterion_2_oracle_equals_closed_form(census):
    t0 = time.perf_counter()
    quick_ok = all(
        census(n)[x] == cf.count(n, x) for n in range(2, 10) for x in range(n)
    )
    quick_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    full_ok = all(
        census(n)[x] == cf.count(n, x) for n in range(10, 14) for x in range(n)
    )
    full_time = time.perf_counter() - t0
    ok = quick_ok and quick_time < 300 and full_ok and full_time < 1800
    report(
        2,
        f"oracle == closed form for n=2..9 in {quick_time:.1f}s "
        f"and n=10..13 in {full_time:.1f}s",
        ok,
    )


def test_criterion_3_zero_count_checklist(census):
    ok = cf.count_prime_zero(2) == 0
    for p, want in ZERO_COUNTS.items():
        ok = ok and cf.count_prime_zero(p) == want and census(p)[0] == want
    branches = {3: "non-qr", 5: "non-qr", 7: "qr", 11: "non-qr", 13: "qr"}
    for p, want in branches.items():
        ok = ok and str(cf.qr_branch(p)) == want
    report(3, "zero-permanent checklist values and branch selection", ok)


def test_criterion_4_two_value_property(census):
    ok = True
    for p, k in ((2, 3), (3, 2), (5, 1), (7, 1)):
        table = census(p**k)
        ok = ok and len(set(table.counts)) == 2
        for r in range(1, k + 1):
            ok = ok and table[p**r] == table[0]
        for x in range(p**k):
            ok = ok and table[x] == (table[0] if x % p == 0 else table[1])
    report(4, "censuses take two values split by p | x", ok)


def test_criterion_5_lifting(census, classes):
    ok = census(9)[0] == 3**8 * census(3)[0] == 21730032
    base, lifted = classes(3, 1), classes(3, 2)
    for lab in CLASS_LABELS:
        ok = ok and lifted.count(0, lab) == 3**8 * base.count(0, lab)
    report(5, "zero and class counts lift by 3^8 from n=3 to n=9", ok)


def test_criterion_6_multiplicative(census):
    ok = True
    for x in range(6):
        ok = ok and census(6)[x] == census(2)[x % 2] * census(3)[x % 3]
    for x in range(12):
        ok = ok and census(12)[x] == census(4)[x % 4] * census(3)[x % 3]
    ok = ok and census(6)[1] == 665280 == census(2)[1] * census(3)[1]
    report(6, "oracle censuses multiply across coprime factors (6 and 12)", ok)


def test_criterion_7_structural_checks(census, classes):
    empt_ok = True
    for n in (2, 3, 4, 5, 7, 8, 9):
        p, k = factorize(n).factors[0]
        rep = structure_maps.emptiness_scan(p, k, threads=THREADS)
        empt_ok = empt_ok and rep.violations == 0

    ident_ok = True
    for n in (4, 9, 12, 49):
        rng = np.random.default_rng([0x5EED, n])
        e = rng.integers(0, n, size=(9, 100_000), dtype=np.int64)
        p11 = (e[4] * e[8] + e[5] * e[7]) % n
        p12 = (e[3] * e[8] + e[5] * e[6]) % n
        p13 = (e[3] * e[7] + e[4] * e[6]) % n
        p21 = (e[1] * e[8] + e[2] * e[7]) % n
        p22 = (e[0] * e[8] + e[2] * e[6]) % n
        det = (
            e[0] * (e[4] * e[8] - e[5] * e[7])
            - e[1] * (e[3] * e[8] - e[5] * e[6])
            + e[2] * (e[3] * e[7] - e[4] * e[6])
        ) % n
        lhs = (2 * e[4] * p22 - e[0] * p11 + e[1] * p12 - 2 * e[3] * p21 - 3 * e[2] * p13) % n
        rhs = (det - 6 * e[2] * e[3] * e[7]) % n
        ident_ok = ident_ok and bool((lhs == rhs).all())

    shift_ok = True
    for p, k in ((3, 1), (3, 2), (5, 1), (7, 1)):
        cc = classes(p, k)
        for x in range(0, p**k, p):
            for lab in CLASS_LABELS:
                shift_ok = shift_ok and cc.count(x, lab) == cc.count(0, lab)
        checked, viols = verify.shift_round_trip(p, k, population=True)
        shift_ok = shift_ok and checked == census(p**k)[0]
        shift_ok = shift_ok and all(v == 0 for v in viols.values())

    fiber_ok = True
    rng = np.random.default_rng([0x5EED, 3, 9])
    found = 0
    while found < 20:
        flat = [int(v) for v in rng.integers(0, 3, 9)]
        a = mat3((tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])), 3)
        if not is_invertible(a) or permanent3(a).value != 0:
            continue
        found += 1
        fiber_ok = fiber_ok and structure_maps.fiber_count(a, 3, 2) == 19683

    ok = empt_ok and ident_ok and shift_ok and fiber_ok
    report(
        7,
        "emptiness scans, sub-permanent identity, shift bijections, fiber sizes",
        ok,
    )


def test_criterion_8_case_census(census):
    ok = True
    for p in (5, 7, 11, 13):
        observed = oracle.case_census(p, threads=THREADS)
        expected = cf.case_rows(p)
        for want, got in zip(expected, observed.rows):
            ok = ok and want.key == got.key and want.count == got.count
        dense = observed.count(3, 3)
        if p in (7, 13):
            ok = ok and dense == p * (p - 1) ** 5 * (p * p - 2 * p - 2)
        else:
            ok = ok and dense == p * p * (p - 1) ** 5 * (p - 2)
        ok = ok and observed.total() == cf.count_prime_zero(p) == census(p)[0]
    report(8, "zero-pattern case census matches row formulas and sums", ok)


def test_criterion_9_partition_identity():
    ok = True
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        k = 1
        while p**k <= 27:
            lhs = cf.gl3_order(p, k)
            rhs = p ** (k - 1) * cf.count_prime_power_zero(p, k) + totient(
                factorize(p**k)
            ) * cf.count_prime_power_unit(p, k)
            ok = ok and lhs == rhs
            k += 1
    report(9, "partition identity for all prime powers up to 27", ok)


def test_criterion_10_deterministic_reports():
    def run(threads):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gl3census",
                "verify",
                "--profile",
                "full",
                "--threads",
                str(threads),
                "--format",
                "json",
            ],
            capture_output=True,
            timeout=3600,
        )
        return proc.returncode, proc.stdout

    code1, out1 = run(1)
    code8, out8 = run(8)
    ok = code1 == 0 and code8 == 0 and out1 == out8 and len(out1) > 0
    report(10, "full verify reports are byte-identical for 1 and 8 threads", ok)
