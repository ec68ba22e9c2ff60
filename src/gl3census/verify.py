"""Cross-check suite: every counted claim, checked against exhaustive enumeration.

run_suite evaluates the closed forms, runs the census engines, exercises the
structural maps, and emits one CheckResult per comparison. All comparisons are
exact equality; a mismatch anywhere is a hard failure carrying the parameters
needed to reproduce it. The suite is deterministic: randomized checks draw
from generators seeded by (seed, check tag), so repeated runs, at any thread
count, produce byte-identical reports.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from math import prod

import numpy as np

from . import closed_form, oracle, structure_maps
from .matrices import (
    CLASS_LABELS,
    classify,
    format_mat3,
    is_invertible,
    mat3,
    mod,
    perm_det,
    permanent3,
    subperms,
)
from .modring import factorize, is_prime, totient
from .oracle import CountTable

DEFAULT_SEED = 0x5EED

# reference values for the counts the suite pins down exactly
ZERO_COUNTS = {3: 3_312, 5: 288_000, 7: 4_653_936, 11: 192_390_000, 13: 739_964_160}
QR_EXPECT = {3: "non-qr", 5: "non-qr", 7: "qr", 11: "non-qr", 13: "qr"}
CLASS_TABLE = {
    3: (3312, 2208, 576, 96, 384, 48),
    5: (288000, 225280, 38400, 5120, 17920, 1280),
    7: (4653936, 3900960, 508032, 54432, 181440, 9072),
    9: (21730032, 14486688, 3779136, 629856, 2519424, 314928),
    11: (192390000, 173140000, 14520000, 1100000, 3520000, 110000),
    13: (739964160, 677154816, 49061376, 3234816, 10243584, 269568),
}


@dataclass(frozen=True)
class CheckResult:
    """One exact comparison: passes iff expected == actual."""

    check_id: str
    params: tuple[tuple[str, object], ...]
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> str:
        return json.dumps(
            {
                "check_id": self.check_id,
                "params": dict(self.params),
                "expected": self.expected,
                "actual": self.actual,
                "status": self.status,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class ModulusMismatch(ValueError):
    """Raised when asked to diff count tables over different moduli."""


def result(check_id: str, expected, actual, **params) -> CheckResult:
    return CheckResult(check_id, tuple(sorted(params.items())), expected, actual)


def diff_tables(expected: CountTable, actual: CountTable, check_id: str = "table-diff"):
    """One CheckResult per permanent value; the tables must share a modulus."""
    if expected.modulus.n != actual.modulus.n:
        raise ModulusMismatch(
            f"cannot diff tables mod {expected.modulus.n} and mod {actual.modulus.n}"
        )
    n = expected.modulus.n
    return [
        result(check_id, expected.counts[x], actual.counts[x], n=n, x=x)
        for x in range(n)
    ]


@dataclass(frozen=True)
class SuiteProfile:
    """What the suite covers; quick stays at n <= 9, full goes to n = 13."""

    name: str
    census_moduli: tuple[int, ...]
    engine_moduli: tuple[int, ...]
    class_moduli: tuple[tuple[int, int], ...]
    case_primes: tuple[int, ...]
    emptiness_moduli: tuple[tuple[int, int], ...]
    identity_moduli: tuple[int, ...]
    identity_samples: int
    shift_pairs: tuple[tuple[int, int], ...]
    shift_full_population: bool
    shift_sample: int
    fiber_samples: int
    multiplicative_moduli: tuple[int, ...]
    witness_primes: tuple[int, ...]
    partition_bound: int
    branch_bound: int
    two_by_two_primes: tuple[int, ...]


QUICK = SuiteProfile(
    name="quick",
    census_moduli=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    engine_moduli=(2, 3, 4, 5, 6),
    class_moduli=((3, 1), (5, 1), (7, 1), (3, 2)),
    case_primes=(3, 5),
    emptiness_moduli=((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)),
    identity_moduli=(4, 9, 12, 49),
    identity_samples=100_000,
    shift_pairs=((3, 1), (3, 2), (5, 1), (7, 1)),
    shift_full_population=False,
    shift_sample=10_000,
    fiber_samples=5,
    multiplicative_moduli=(6,),
    witness_primes=(3, 5, 7),
    partition_bound=27,
    branch_bound=1000,
    two_by_two_primes=(3, 5, 7),
)

FULL = replace(
    QUICK,
    name="full",
    census_moduli=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    engine_moduli=(2, 3, 4, 5, 6, 7, 8),
    class_moduli=((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)),
    case_primes=(3, 5, 7, 11, 13),
    shift_full_population=True,
    fiber_samples=20,
    multiplicative_moduli=(6, 10, 12),
    witness_primes=(3, 5, 7, 11, 13),
    two_by_two_primes=(3, 5, 7, 11, 13),
)

PROFILES = {"quick": QUICK, "full": FULL}


@dataclass
class _Ctx:
    profile: SuiteProfile
    threads: int
    seed: int
    censuses: dict[int, CountTable] = field(default_factory=dict)
    classes: dict[tuple[int, int], oracle.ClassCensus] = field(default_factory=dict)

    def census(self, n: int) -> CountTable:
        if n not in self.censuses:
            self.censuses[n] = oracle.census_tiered(n, threads=self.threads)
        return self.censuses[n]

    def class_census(self, p: int, k: int) -> oracle.ClassCensus:
        if (p, k) not in self.classes:
            self.classes[(p, k)] = oracle.class_census(p, k, threads=self.threads)
        return self.classes[(p, k)]

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])


_CHECKS: list[tuple[str, object]] = []


def _check(tag):
    def register(fn):
        _CHECKS.append((tag, fn))
        return fn

    return register


# ---------------------------------------------------------------------------
# matrix batches: (9, m) arrays of row-major entries, one matrix per column


def _sample_matrices(rng, n: int, count: int, perm_divisor: int) -> np.ndarray:
    """Seeded invertible matrices mod n whose permanent is 0 mod perm_divisor."""
    unit = oracle._unit_mask(n)
    rows = []
    have = 0
    while have < count:
        e = rng.integers(0, n, size=(9, 4096), dtype=np.int64)
        perm, det = perm_det(e, n)
        keep = unit[det] & (perm % perm_divisor == 0)
        picked = e[:, keep]
        rows.append(picked)
        have += picked.shape[1]
    return np.concatenate(rows, axis=1)[:, :count]


# ---------------------------------------------------------------------------
# checks


@_check("census-closed-form")
def _census_matches_closed_form(ctx):
    out = []
    for n in ctx.profile.census_moduli:
        expected = CountTable(
            factorize(n), tuple(closed_form.count(n, x) for x in range(n))
        )
        out += diff_tables(expected, ctx.census(n), check_id="census-closed-form")
    return out


@_check("engine-agreement")
def _engines_agree(ctx):
    out = []
    for n in ctx.profile.engine_moduli:
        naive = oracle.census_naive(n, threads=ctx.threads)
        out += diff_tables(naive, ctx.census(n), check_id="engine-agreement")
    return out


@_check("order-total")
def _census_total_is_group_order(ctx):
    out = []
    for n in ctx.profile.census_moduli:
        expected = prod(
            closed_form.gl3_order(p, k) for p, k in factorize(n).factors
        )
        out.append(result("order-total", expected, ctx.census(n).total(), n=n))
    return out


@_check("two-value")
def _two_value(ctx):
    out = []
    for p, k in ((2, 3), (3, 2), (5, 1), (7, 1)):
        ct = ctx.census(p**k)
        out.append(
            result("two-value-distinct", 2, len(set(ct.counts)), p=p, k=k)
        )
        for r in range(1, k + 1):
            out.append(
                result("two-value-zero-family", ct[0], ct[p**r], p=p, k=k, r=r)
            )
        for x in range(p**k):
            expected = ct[0] if x % p == 0 else ct[1]
            out.append(result("two-value-split", expected, ct[x], p=p, k=k, x=x))
    return out


@_check("lift")
def _prime_power_lifting(ctx):
    out = []
    for n in ctx.profile.census_moduli:
        factors = factorize(n).factors
        if len(factors) != 1 or factors[0][1] < 2:
            continue
        p, k = factors[0]
        expected = p ** (8 * (k - 1)) * ctx.census(p)[0]
        out.append(result("lift-zero", expected, ctx.census(n)[0], p=p, k=k))
    if (3, 2) in ctx.profile.class_moduli and (3, 1) in ctx.profile.class_moduli:
        base = ctx.class_census(3, 1)
        lifted = ctx.class_census(3, 2)
        for lab in CLASS_LABELS:
            out.append(
                result(
                    "lift-class",
                    3**8 * base.count(0, lab),
                    lifted.count(0, lab),
                    p=3,
                    k=2,
                    label=lab.name,
                )
            )
    return out


@_check("zero-count")
def _zero_count_branches(ctx):
    out = []
    for p in sorted(ZERO_COUNTS):
        out.append(
            result(
                "zero-count-closed-form",
                ZERO_COUNTS[p],
                closed_form.count_prime_zero(p),
                p=p,
            )
        )
        out.append(
            result(
                "zero-count-branch", QR_EXPECT[p], str(closed_form.qr_branch(p)), p=p
            )
        )
        if p in ctx.profile.census_moduli:
            out.append(
                result("zero-count-oracle", ZERO_COUNTS[p], ctx.census(p)[0], p=p)
            )
    return out


@_check("branch-mod-three")
def _branch_criterion(ctx):
    bound = ctx.profile.branch_bound
    mismatches = 0
    for p in range(3, bound):
        if not is_prime(p):
            continue
        is_qr = closed_form.qr_branch(p) is closed_form.BranchTag.QR
        if is_qr != (p % 3 == 1):
            mismatches += 1
    return [result("branch-mod-three", 0, mismatches, bound=bound)]


@_check("class-counts")
def _class_counts(ctx):
    out = []
    for n, row in CLASS_TABLE.items():
        (p, k) = factorize(n).factors[0]
        out.append(
            result(
                "class-table-zero",
                row[0],
                closed_form.count_prime_power_zero(p, k),
                n=n,
            )
        )
        for lab, val in zip(CLASS_LABELS, row[1:]):
            out.append(
                result(
                    "class-table-closed-form",
                    val,
                    closed_form.class_count_prime_power_zero(p, k, lab),
                    n=n,
                    label=lab.name,
                )
            )
    for p, k in ctx.profile.class_moduli:
        cc = ctx.class_census(p, k)
        for lab in CLASS_LABELS:
            out.append(
                result(
                    "class-count-oracle",
                    closed_form.class_count_prime_power_zero(p, k, lab),
                    cc.count(0, lab),
                    p=p,
                    k=k,
                    label=lab.name,
                )
            )
        out.append(
            result(
                "class-count-sum",
                ctx.census(p**k)[0],
                sum(cc.count(0, lab) for lab in CLASS_LABELS),
                p=p,
                k=k,
            )
        )
        out += diff_tables(
            ctx.census(p**k), cc.marginal(), check_id="class-marginal"
        )
    return out


@_check("case-table")
def _case_table(ctx):
    out = []
    for p in ctx.profile.case_primes:
        observed = oracle.case_census(p, threads=ctx.threads)
        for want, got in zip(closed_form.case_rows(p), observed.rows):
            if want.key != got.key:
                raise RuntimeError(f"case census row {got.key} at p = {p} does not match {want.key}")
            out.append(
                result(
                    "case-table",
                    want.count,
                    got.count,
                    p=p,
                    row1=want.row1_nonzeros,
                    row2=want.row2_nonzeros,
                )
            )
        out.append(
            result(
                "case-table-sum",
                closed_form.count_prime_zero(p),
                observed.total(),
                p=p,
            )
        )
    return out


@_check("emptiness")
def _emptiness(ctx):
    out = []
    for p, k in ctx.profile.emptiness_moduli:
        rep = structure_maps.emptiness_scan(p, k, threads=ctx.threads)
        out.append(result("emptiness", 0, rep.violations, p=p, k=k))
        out.append(
            result(
                "emptiness-scanned",
                ctx.census(p**k).total(),
                rep.scanned,
                p=p,
                k=k,
            )
        )
    return out


@_check("subperm-identity")
def _subperm_identity(ctx):
    out = []
    samples = ctx.profile.identity_samples
    for n in ctx.profile.identity_moduli:
        rng = ctx.rng(f"identity-{n}")
        e = rng.integers(0, n, size=(9, samples), dtype=np.int64)
        p11, p12, p13, p21, p22 = subperms(e, n)
        _, det = perm_det(e, n)
        lhs = (
            2 * e[4] * p22 - e[0] * p11 + e[1] * p12 - 2 * e[3] * p21 - 3 * e[2] * p13
        ) % n
        rhs = (det - 6 * e[2] * e[3] * e[7]) % n
        out.append(
            result(
                "subperm-identity",
                0,
                int((lhs != rhs).sum()),
                n=n,
                samples=samples,
            )
        )
    return out


def _label_pivot(e, n, p):
    """Per matrix: the index of its first unit sub-permanent mod p, and that sub-permanent.

    The index (0..4, P11, P12, P13, P21, P22) is also the row-major position
    of the pivot entry. A matrix with no unit among the five gets index 4.
    """
    subs = subperms(e, n)
    lab, pivot = np.full(e.shape[1], 4, dtype=np.int8), subs[4]
    for i in (3, 2, 1, 0):
        # a select by arithmetic: keep (lab, pivot) where P_i is not a unit, else take (i, P_i)
        off = mod(subs[i], p) == 0
        lab = off * (lab - i) + i
        pivot = off * (pivot - subs[i]) + subs[i]
    return lab, pivot


def _shift_verify_members(e, n, p, shifts, inv_table):
    """Verify the pivot-shift map on a batch of members of G(n, 0).

    e is a (9, m) array of row-major entries, of oracle._kernel_type(n) or
    wider, and inv_table an oracle._inverse_table of the same dtype; the
    arithmetic stays within the kernel's bound.

    Returns per-shift violation counts; a violation is any member whose image
    fails perm == x, unit determinant, class preservation, or the round trip.
    """
    count = e.shape[1]
    unit = oracle._unit_mask(n)
    lab, pivot = _label_pivot(e, n, p)
    entries = e.reshape(-1)
    cols = np.arange(count)
    at = cols + lab.astype(np.intp) * count  # each member's pivot entry in the flat entries
    violations = {}
    for x in shifts:
        img = e.copy()
        img.reshape(-1)[at] = mod(entries[at] + mod(x * inv_table[pivot], n), n)
        perm_i, det_i = perm_det(img, n)
        lab_i, pivot_i = _label_pivot(img, n, p)
        back = img.copy()
        at_i = cols + lab_i.astype(np.intp) * count
        back_entries = back.reshape(-1)
        back_entries[at_i] = mod(back_entries[at_i] + mod((n - x) * inv_table[pivot_i], n), n)
        ok = (
            (perm_i == x % n)
            & unit[det_i]
            & (lab_i == lab)
            & (back == e).all(axis=0)
        )
        violations[x] = count - int(ok.sum())
    return violations


def shift_round_trip(
    p: int,
    k: int,
    *,
    population: bool = True,
    sample: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> tuple[int, dict[int, int]]:
    """Verify the pivot-shift maps on members of G(p^k, 0), for every p | x.

    Each member is shifted by x, the image is checked for permanent x, unit
    determinant and an unchanged class, and the reverse shift must restore the
    member exactly. Returns (members checked, violations per shift).
    population=True enumerates all of G(p^k, 0); otherwise a seeded sample.
    Defined for odd p and k >= 1: G(2^k, 0) is empty, as perm = det mod 2.

    The population is not filtered out of all n^9 matrices. For each of the
    n^6 prefixes (rows 1 and 2), structure_maps.zero_perm_members solves for
    the third rows of permanent 0, a subgroup with an explicit basis, and
    keeps those of unit determinant. That visits every member once and
    nothing else, with no reduction by symmetry: each member is shifted and
    checked on its own. Members are checked in oracle._kernel_type(n), the
    narrowest integer type that holds the kernel's intermediates.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"shift maps need an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    n = p**k
    shifts = list(range(0, n, p))
    dtype = oracle._kernel_type(n)
    inv_table = oracle._inverse_table(n, dtype)
    viols = {x: 0 for x in shifts}
    if not population:
        rng = np.random.default_rng([seed, zlib.crc32(f"shift-{p}-{k}".encode())])
        e = _sample_matrices(rng, n, sample, n).astype(dtype)
        return e.shape[1], _shift_verify_members(e, n, p, shifts, inv_table)
    checked = 0
    for e in structure_maps.zero_perm_members(p, k):
        checked += e.shape[1]
        for x, v in _shift_verify_members(e, n, p, shifts, inv_table).items():
            viols[x] += v
    return checked, viols


@_check("shift-bijection")
def _shift_bijection(ctx):
    out = []
    for p, k in ctx.profile.shift_pairs:
        n = p**k
        shifts = list(range(0, n, p))
        cc = ctx.class_census(p, k)
        for x in shifts:
            for lab in CLASS_LABELS:
                out.append(
                    result(
                        "shift-class-counts",
                        cc.count(0, lab),
                        cc.count(x, lab),
                        p=p,
                        k=k,
                        x=x,
                        label=lab.name,
                    )
                )
        full = ctx.profile.shift_full_population
        checked, viols = shift_round_trip(
            p, k, population=full, sample=ctx.profile.shift_sample, seed=ctx.seed
        )
        if full:
            out.append(result("shift-population", ctx.census(n)[0], checked, p=p, k=k))
        scope = "population" if full else "sample"
        for x in shifts:
            out.append(
                result(
                    "shift-round-trip",
                    0,
                    viols[x],
                    p=p,
                    k=k,
                    x=x,
                    scope=scope,
                    checked=checked,
                )
            )
    return out


@_check("fiber")
def _fibers(ctx):
    out = []
    rng = ctx.rng("fiber")
    samples = _sample_matrices(rng, 3, ctx.profile.fiber_samples, 3)
    for i in range(samples.shape[1]):
        a = mat3(samples[:, i].reshape(3, 3).tolist(), 3)
        out.append(
            result(
                "fiber-size",
                3**9,
                structure_maps.fiber_count(a, 3, 2),
                index=i,
                matrix=format_mat3(a),
            )
        )
    out.append(
        result(
            "fiber-scaling",
            3 ** (9 * (2 - 1)) * ctx.census(3)[0],
            3 ** (2 - 1) * ctx.census(9)[0],
            p=3,
            k=2,
        )
    )
    return out


@_check("projection")
def _projection(ctx):
    out = []
    base = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    preimages = {
        3: mat3(((4, 0, 0), (2, 1, 2), (1, 1, 1)), 9),
        6: mat3(((1, 3, 0), (2, 1, 2), (1, 1, 1)), 9),
    }
    out.append(
        result("projection-base-perm", 0, permanent3(base).value, n=3)
    )
    for want_perm, m in preimages.items():
        out.append(
            result(
                "projection-example",
                format_mat3(base),
                format_mat3(structure_maps.project(m, 3)),
                preimage_perm=want_perm,
            )
        )
        out.append(
            result(
                "projection-preimage-perm",
                want_perm,
                permanent3(m).value,
                preimage_perm=want_perm,
            )
        )
        out.append(
            result(
                "projection-preimage-invertible",
                True,
                is_invertible(m),
                preimage_perm=want_perm,
            )
        )
    rng = ctx.rng("projection")
    e = _sample_matrices(rng, 9, 1000, 3)  # members of the union over 3 | x
    bad = 0
    for i in range(e.shape[1]):
        m = mat3(e[:, i].reshape(3, 3).tolist(), 9)
        img = structure_maps.project(m, 3)
        if permanent3(img).value != 0 or not is_invertible(img):
            bad += 1
    out.append(result("projection-into-zero-class", 0, bad, n=9, samples=e.shape[1]))
    return out


@_check("witness")
def _witnesses(ctx):
    out = []
    for p in ctx.profile.witness_primes:
        for k in (1, 2):
            n = p**k
            for lab in CLASS_LABELS:
                xs = range(0, n, p)
                good = 0
                for x in xs:
                    w = structure_maps.witness(lab, p, k, x)
                    if (
                        permanent3(w).value == x
                        and is_invertible(w)
                        and classify(w, p) is lab
                    ):
                        good += 1
                out.append(
                    result("witness-valid", len(xs), good, p=p, k=k, label=lab.name)
                )
    return out


@_check("multiplicative")
def _multiplicative(ctx):
    out = []
    for n in ctx.profile.multiplicative_moduli:
        factors = factorize(n).factors
        parts = [(p**k, ctx.census(p**k)) for p, k in factors]
        whole = ctx.census(n)
        for x in range(n):
            expected = prod(table[x % q] for q, table in parts)
            out.append(result("multiplicative", expected, whole[x], n=n, x=x))
    return out


@_check("partition-identity")
def _partition(ctx):
    out = []
    bound = ctx.profile.partition_bound
    for p in range(2, bound + 1):
        if not is_prime(p):
            continue
        k = 1
        while p**k <= bound:
            lhs = closed_form.gl3_order(p, k)
            rhs = p ** (k - 1) * closed_form.count_prime_power_zero(p, k) + totient(
                p**k
            ) * closed_form.count_prime_power_unit(p, k)
            out.append(result("partition-identity", lhs, rhs, p=p, k=k))
            k += 1
    return out


@_check("two-by-two")
def _two_by_two(ctx):
    out = []
    for p in ctx.profile.two_by_two_primes:
        ct = oracle.census_2x2(p, threads=ctx.threads)
        out.append(
            result("two-by-two-zero", closed_form.count2_prime(p, 0), ct[0], p=p)
        )
        out.append(
            result("two-by-two-unit", closed_form.count2_prime(p, 1), ct[1], p=p)
        )
        out.append(
            result("two-by-two-unit-spread", 1, len(set(ct.counts[1:])), p=p)
        )
    return out


# ---------------------------------------------------------------------------
# claim coverage: every counted claim must surface in at least one check id

CLAIM_COVERAGE = {
    "multiplicative-property": ("multiplicative",),
    "partition-identity": ("partition-identity",),
    "group-order": ("order-total",),
    "prime-power-values": ("census-closed-form",),
    "two-value-property": ("two-value",),
    "prime-power-lifting": ("lift-",),
    "zero-count-branches": ("zero-count",),
    "branch-criterion": ("branch-mod-three",),
    "class-counts": ("class-count", "class-table"),
    "case-table": ("case-table",),
    "five-class-emptiness": ("emptiness",),
    "sub-permanent-identity": ("subperm-identity",),
    "shift-bijection": ("shift-",),
    "reduction-fibers": ("fiber-", "projection-"),
    "witness-matrices": ("witness-",),
    "two-by-two-values": ("two-by-two-",),
    "engine-agreement": ("engine-agreement",),
}


def coverage_gaps(results) -> list[str]:
    """Claims with no matching CheckResult in the given report."""
    ids = {r.check_id for r in results}
    gaps = []
    for claim, prefixes in sorted(CLAIM_COVERAGE.items()):
        if not any(i.startswith(pref) for pref in prefixes for i in ids):
            gaps.append(claim)
    return gaps


def run_suite(
    profile: str | SuiteProfile = "quick",
    *,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
    progress=None,
) -> list[CheckResult]:
    """Run every check in the profile; returns results in canonical order."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    ctx = _Ctx(profile=prof, threads=threads, seed=seed)
    results: list[CheckResult] = []
    for i, (tag, fn) in enumerate(_CHECKS):
        if progress is not None:
            progress(i, len(_CHECKS), tag)
        results.extend(fn(ctx))
    if progress is not None:
        progress(len(_CHECKS), len(_CHECKS), "done")
    results.sort(key=lambda r: (r.check_id, r.to_json()))
    gaps = coverage_gaps(results)
    if gaps:
        raise RuntimeError(f"suite left claims unchecked: {gaps}")
    return results


def to_json_lines(results) -> str:
    return "".join(r.to_json() + "\n" for r in results)


def render_table(results) -> str:
    lines = []
    for r in results:
        params = " ".join(f"{k}={v}" for k, v in r.params)
        lines.append(f"{r.status.upper():4} {r.check_id:28} {params}")
        if not r.passed:
            lines.append(f"     expected {r.expected!r}, got {r.actual!r}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
