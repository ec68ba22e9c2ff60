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
    DEFAULT_SEED,
    classify,
    first_unit,
    format_mat3,
    forms,
    is_invertible,
    mat3,
    mod,
    perm_det,
    perm_det_subperms,
    permanent3,
)
from .modring import factorize, is_prime, totient
from .oracle import CountTable

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
    """What the checks share: the profile, the seed, the threads and the censuses, each computed once.

    The checks run one after another on the calling thread, and every
    census they run is given the suite's threads and runs on that thread too.
    """

    profile: SuiteProfile
    seed: int
    threads: int = 1
    made: dict = field(default_factory=dict, repr=False)

    def _once(self, engine, *key):
        if (engine, key) not in self.made:
            self.made[engine, key] = engine(*key, threads=self.threads)
        return self.made[engine, key]

    def census(self, n: int) -> CountTable:
        return self._once(oracle.census_tiered, n)

    def class_census(self, p: int, k: int) -> oracle.ClassCensus:
        return self._once(oracle.class_census, p, k)

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
        keep = unit.take(det) & (mod(perm, perm_divisor) == 0)
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
    """2 a22 P22 - a11 P11 + a12 P12 - 2 a21 P21 - 3 a13 P13 = det - 6 a13 a21 a32 mod n.

    Checked on identity_samples random matrices per modulus, drawn from the
    modulus's seeded generator one block of oracle._BLOCK columns at a time,
    in oracle._kernel_type(n). The kernel and the identity run over slices
    of oracle._BLOCK // 9 columns of each block, so that their temporaries,
    a dozen or so arrays of one slice, stay within the block's own size.
    Every product is reduced mod n before it could pass 3 (n - 1)^2, the
    bound that type holds, and the type's range of at least 127 also holds
    5 (n - 1).
    """
    out = []
    samples, width = ctx.profile.identity_samples, oracle._BLOCK // 9
    for n in ctx.profile.identity_moduli:
        rng = ctx.rng(f"identity-{n}")
        t = oracle._kernel_type(n)
        bad = 0
        for s in range(0, samples, oracle._BLOCK):
            block = rng.integers(0, n, size=(9, min(oracle._BLOCK, samples - s)), dtype=t)
            for c in range(0, block.shape[1], width):
                b = block[:, c : c + width]
                _, det, p11, p12, p13, p21, p22 = perm_det_subperms(b, n)
                terms = (2 * b[4] * p22, -b[0] * p11, b[1] * p12, -2 * b[3] * p21, -3 * b[2] * p13)
                lhs = mod(sum(mod(v, n) for v in terms), n)  # five residues add up to <= 5 (n - 1)
                rhs = mod(det - mod(6 % n * mod(mod(b[2] * b[3], n) * b[7], n), n), n)
                bad += int((lhs != rhs).sum())
        out.append(result("subperm-identity", 0, bad, n=n, samples=samples))
    return out


def _shift_verify(e, n, p, shifts, inv_table, held=None):
    """Per-shift violation counts of the pivot-shift map on a batch of members of G(n, 0), n = p^k.

    e holds the nine row-major entries, in [0, n), as arrays of the unsigned
    structure_maps._member_type(n) that broadcast together: a
    structure_maps.zero_perm_members batch, with the solved row per member
    and the other two per prefix, or one label's part of shift_round_trip's
    (9, m) sample. inv_table is oracle._inverse_table(n), and the inverses
    are taken in the batch's type. Every value formed from the entries is a
    sum of at most three products of residues, within [0, 3 (n - 1)^2],
    which the type holds, and is reduced before it takes part in more. Only
    the forms of two rows subtract (b f - c e); they are formed in
    oracle._kernel_type(n), once per batch, and read as residues in the
    batch's type.

    The batch must have one label, else this raises RuntimeError. A
    matrix's label, the index of its first unit sub-permanent among P11,
    P12, P13, P21, P22 (matrices.first_unit; 4 if there is none), is also
    the row-major position of its pivot entry: row r, 1 or 2, and column c.
    P11, P12, P13 are formed first, from rows 2 and 3: a unit among them
    puts the pivot in row 1, so they are the per-member proof that every
    pivot of the batch is in row r. The batch is then expanded along row r
    on the forms of the other two rows, forms(row 2, row 3) for row 1 and
    forms(row 3, row 1) for row 2, whose first coefficients are the
    sub-permanents that do not involve row r: P11, P12, P13, or P21, P22,
    P23. On a grid batch they are per prefix.

    A shift by x adds x P^-1 to the pivot entry, row r's entry c, the only
    entry it moves. The terms of the other two entries are summed once per
    member and shared by the member and its images. The image must have
    permanent x, a unit determinant and the member's label, and the return
    shift must give back the moved entry. In row 1 the image's P11, P12,
    P13 are the member's own arrays, so its label and pivot are the
    member's. In row 2 its P21 and P22 are, so its label is the member's
    exactly when none of its own P11, P12, P13, formed from its moved
    row 2, is a unit, and then its pivot is the member's too. Shifting by
    x = 0 maps every member to itself, so its image is checked on the
    member's own evaluation. As n = p^k, a determinant is a unit exactly
    when p does not divide it.

    A violation is any member whose image fails perm == x, unit determinant,
    class preservation, or the round trip. Every per-member array is written
    through numpy's out= into an array of held (structure_maps._Held, one of
    its own when None): "value" and "scratch" for each form and its
    residue, "moved" for the moved entry, "ok" and "test" for the masks,
    and ("rest", i) for the terms of the forms, five at most. A caller that
    passes one held for all its batches so allocates them once at the batch
    bound. Only the per-prefix arrays are allocated per batch.
    """

    held = structure_maps._Held() if held is None else held
    dtype = np.result_type(*e)

    def arrays(shape):
        """The held "value" and "scratch" arrays of the batch's type and the "ok" and "test" masks, shaped."""
        value, scratch = (held(name, shape, dtype) for name in ("value", "scratch"))
        return value, scratch, held("ok", shape, bool), held("test", shape, bool)

    def dot(f, entries, cols, out, scratch):
        """The sum of f[c] entries[c] over cols where f[c] is given, unreduced, in out; scratch takes the terms."""
        terms = [(f[c], entries[c]) for c in cols if f[c] is not None]
        np.multiply(*terms[0], out=out)
        for term in terms[1:]:
            out += np.multiply(*term, out=scratch)
        return out

    def residue_forms(r1, r2):
        """forms(r1, r2, n) as residues of the batch's type, formed in _kernel_type(n): b f - c e wraps unsigned."""
        r1, r2 = ([v.astype(oracle._kernel_type(n)) for v in r] for r in (r1, r2))
        return [f.astype(dtype, copy=False) for f in forms(r1, r2, n)]

    a31, a32, a33 = e[6:9]
    subs = ((None, a33, a32), (a33, None, a31), (a32, a31, None))  # P11, P12, P13 as forms in row 2
    top = np.broadcast_shapes(*(np.shape(v) for v in e[3:9]))  # rows 2 and 3: per prefix on a head batch
    value, scratch, in_row1, test = arrays(top)
    for i, f in enumerate(subs):  # P11, P12, P13, unreduced
        np.not_equal(mod(dot(f, e[3:6], range(3), value, scratch), p, out=scratch), 0, out=test if i else in_row1)
        if i:
            in_row1 |= test
    if in_row1.all():
        r, coeffs, subs = 0, residue_forms(e[3:6], e[6:9]), ()
    elif not in_row1.any():
        r, coeffs = 1, residue_forms(e[6:9], e[0:3])
    else:
        raise RuntimeError("a shift batch must have one label, so all of its pivots in one row")
    col, pivot = first_unit(coeffs[: 3 - r], p)  # the pivot's column; in row 2 none of P11, P12, P13 is a unit
    c = int(col.flat[0])
    if (col != c).any():
        raise RuntimeError("a shift batch must have one label")
    del col
    row = e[3 * r : 3 * r + 3]
    shape = np.broadcast_shapes(*(np.shape(v) for v in e))  # a member to an element
    count = prod(shape)
    value, scratch, ok, test = arrays(shape)
    # the permanent, the determinant and, along row 2, P11, P12, P13: linear forms in row r
    linear = (coeffs[:3], coeffs[3:], *subs)
    others = [i for i in range(3) if i != c]
    rest = [dot(f, row, others, held(("rest", i), shape, dtype), scratch) for i, f in enumerate(linear)]

    def values(entry):
        """The forms, unreduced, with row r's entry c taken as entry; None for a form with no term in it.

        One at a time, each in value, which the next overwrites.
        """
        for f, t in zip(linear, rest):
            if f[c] is None:
                yield None
            else:
                v = np.multiply(f[c], entry, out=value)
                v += t
                yield v

    own = values(row[c])  # the permanent, then the determinant
    np.equal(mod(next(own), n, out=scratch), 0, out=ok)
    ok &= np.not_equal(mod(next(own), p, out=scratch), 0, out=test)
    fixed = count - int(np.count_nonzero(ok))  # a shift by x = 0 maps every member to itself
    inv = inv_table.astype(dtype, copy=False).take(pivot)
    del pivot  # inv is all that the shifts read
    moved = held("moved", shape, dtype)
    violations = {}
    for x in shifts:
        if x % n == 0:
            violations[x] = fixed
            continue
        mod(np.add(row[c], mod(x * inv, n), out=value), n, out=moved)
        image = values(moved)
        np.equal(mod(next(image), n, out=scratch), x % n, out=ok)
        ok &= np.not_equal(mod(next(image), p, out=scratch), 0, out=test)
        for v in image:  # a P1j the shift leaves as the member's is not a unit
            if v is not None:
                ok &= np.equal(mod(v, p, out=scratch), 0, out=test)
        moved += mod((n - x) * inv, n)  # the return shift, in place
        ok &= np.equal(mod(moved, n, out=scratch), row[c], out=test)
        violations[x] = count - int(np.count_nonzero(ok))
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
    Either way n = p^k <= oracle.INT64_CEILING. The population scan is
    charged n^8 matrices, about the n^9 / n it solves for, against
    oracle.SCAN_BUDGET, so it runs for n <= 10: 3, 3^2, 5 and 7. Both bounds
    are checked before p is tested for primality.

    The population is not filtered out of all n^9 matrices.
    structure_maps.zero_perm_members solves for one row of permanent 0 over
    each of the n^6 prefixes of two grids, a subgroup with an explicit
    basis, and lists only the rows of unit determinant: row 1 over rows 2
    and 3 for the members with a unit among P11, P12, P13, and row 2 over
    rows 1 and 3 for the others. That visits every member once and nothing
    else, with no reduction by symmetry: each member is shifted and checked
    on its own. Members are listed and checked in
    structure_maps._member_type(n), the narrowest unsigned type that holds
    3 (n - 1)^2, the largest value the check forms from them: one byte at
    every n the scan runs at. They come in batches laid out on a grid, the
    solved row per member and the other two per prefix: at most
    4 oracle._BLOCK members over rows 2 and 3, 2 oracle._BLOCK over rows 1
    and 3, as many bytes as 2 oracle._BLOCK and oracle._BLOCK two-byte
    members. Every member of a batch has one label, pivot and inverse per
    prefix. The seeded sample is labelled once, in the sampler's int64,
    cast to the member type and split into its five label parts. Every grid
    batch and every label part goes through one verifier, _shift_verify,
    which takes batches of one label only: it expands each along its pivot
    row on the forms of the other two rows, formed once per prefix, so a
    shift moves one entry. One loop adds up the members and the violations
    per shift of either source's batches, on the calling thread. The grids
    and the verifier write every batch's per-member arrays into the arrays
    of one structure_maps._Held, allocated at the batch bound in the call's
    first batches and reused by every later one.
    """
    oracle._check_bound("shift_round_trip", p, k, scan=8 * k if population else 0)
    if not is_prime(p) or p == 2:
        raise ValueError(f"shift maps need an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    n = p**k
    held = structure_maps._Held()
    if population:
        batches = structure_maps.zero_perm_members(p, k, range(n**6), held)
    else:
        rng = np.random.default_rng([seed, zlib.crc32(f"shift-{p}-{k}".encode())])
        e = _sample_matrices(rng, n, sample, n)
        lab, _ = first_unit(perm_det_subperms(e, n)[2:], p)
        e = e.astype(structure_maps._member_type(n))
        batches = [e[:, lab == c] for c in range(len(CLASS_LABELS)) if (lab == c).any()]
    shifts = list(range(0, n, p))
    inv_table = oracle._inverse_table(n)
    checked, viols = 0, dict.fromkeys(shifts, 0)
    for batch in batches:
        checked += np.broadcast(*batch).size
        for x, v in _shift_verify(batch, n, p, shifts, inv_table, held).items():
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
            p,
            k,
            population=full,
            sample=ctx.profile.shift_sample,
            seed=ctx.seed,
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
    perm, det = perm_det(mod(e, 3), 3)  # the entrywise reductions mod 3, all at once
    bad = int(np.count_nonzero((perm != 0) | ~oracle._unit_mask(3).take(det)))
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
    """Run every check in the profile; returns results in canonical order.

    The checks run one after another on the calling thread, in
    registration order, and each census they run is given threads, as
    oracle and table do, and runs on that thread too. The censuses the
    checks share are computed once each (_Ctx), and the report does not
    depend on threads. progress(i, total, tag) is called just before check
    i runs, for i = 0 to total - 1, then (total, total, "done"). A check or
    a progress callback that raises stops the checks after it.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if isinstance(profile, str) and profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known profiles: {', '.join(PROFILES)}")
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    ctx = _Ctx(profile=prof, seed=seed, threads=threads)
    total, results = len(_CHECKS), []
    for i, (tag, fn) in enumerate(_CHECKS):
        if progress is not None:
            progress(i, total, tag)
        results += fn(ctx)
    if progress is not None:
        progress(total, total, "done")
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
