"""Command-line front end.

Subcommands: eval (closed-form count), oracle (exhaustive census), table
(reproduce the class and case tables), verify (run the cross-check suite).
Exit codes: 0 success, 1 verification failures, 2 usage error, 3 census bound
exceeded. Output carries no timestamps, so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import closed_form, oracle, verify
from .matrices import CLASS_LABELS
from .modring import factorize, is_prime

CLASS_TABLE_SECTIONS = ("class-table", "4.2")
CASE_TABLE_SECTIONS = ("case-table", "4-cases")


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _progress_printer(label: str):
    def report(done, total):
        sys.stderr.write(f"\r{label}: {done}/{total}")
        sys.stderr.flush()
        if done == total:
            sys.stderr.write("\n")

    return report


def _emit_rows(header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join("" if v is None else str(v) for v in row))
    elif fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows], sort_keys=True))
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            print(
                "  ".join(
                    ("" if v is None else str(v)).rjust(w) for v, w in zip(row, widths)
                )
            )


def _cmd_eval(args) -> int:
    value = closed_form.count(args.n, args.x)
    if args.format == "json":
        print(json.dumps({"n": args.n, "x": args.x % args.n, "count": value}, sort_keys=True))
    elif args.format == "csv":
        print("n,x,count")
        print(f"{args.n},{args.x % args.n},{value}")
    else:
        print(value)
    return 0


def _cmd_oracle(args) -> int:
    progress = _progress_printer(f"census n={args.n}") if args.progress else None
    if args.classes:
        factors = factorize(args.n).factors
        if len(factors) != 1:
            raise ValueError("--classes needs a prime-power modulus")
        p, k = factors[0]
        census = oracle.class_census(p, k, threads=args.threads, progress=progress)
        header = ["x", "count"] + [lab.name.lower() for lab in CLASS_LABELS]
        rows = []
        for x in range(args.n):
            if args.x is not None and x != args.x % args.n:
                continue
            per_class = census.counts[x]
            rows.append([x, sum(per_class), *per_class])
        _emit_rows(header, rows, args.format)
        return 0
    engine = oracle.census_naive if args.engine == "naive" else oracle.census_tiered
    table = engine(args.n, threads=args.threads, progress=progress)
    if args.x is not None:
        x = args.x % args.n
        if args.format == "json":
            print(json.dumps({"n": args.n, "x": x, "count": table[x]}, sort_keys=True))
        elif args.format == "csv":
            print("n,x,count")
            print(f"{args.n},{x},{table[x]}")
        else:
            print(table[x])
        return 0
    _emit_rows(["x", "count"], [[x, table[x]] for x in range(args.n)], args.format)
    return 0


def _parse_moduli(text: str | None, default: tuple[int, ...]) -> list[int]:
    if text is None:
        return list(default)
    out = []
    for part in text.split(","):
        out.append(int(part.strip()))
    return out


def _cmd_table(args) -> int:
    if args.section in CLASS_TABLE_SECTIONS:
        moduli = _parse_moduli(args.p_list, (3, 5, 7, 9, 11, 13))
        header = ["n", "perm0", "c11", "c12", "c13", "c21", "c22"]
        if args.check:
            header.append("oracle_agrees")
        rows = []
        for n in moduli:
            factors = factorize(n).factors
            if len(factors) != 1 or factors[0][0] == 2:
                raise ValueError(f"class table needs odd prime powers, got {n}")
            p, k = factors[0]
            row = [
                n,
                closed_form.count_prime_power_zero(p, k),
                *(
                    closed_form.class_count_prime_power_zero(p, k, lab)
                    for lab in CLASS_LABELS
                ),
            ]
            if args.check:
                census = oracle.class_census(p, k, threads=args.threads)
                observed = [
                    sum(census.counts[0]),
                    *(census.count(0, lab) for lab in CLASS_LABELS),
                ]
                row.append(observed == row[1:7])
            rows.append(row)
        _emit_rows(header, rows, args.format)
        return 0
    if args.section in CASE_TABLE_SECTIONS:
        primes = _parse_moduli(args.p_list, (3, 5, 7, 11, 13))
        header = ["p", "row1_nonzeros", "row2_nonzeros", "count"]
        if args.check:
            header.append("oracle_agrees")
        rows = []
        for p in primes:
            if not is_prime(p) or p == 2:
                raise ValueError(f"case table needs odd primes, got {p}")
            closed_rows = closed_form.case_rows(p)
            observed = oracle.case_census(p, threads=args.threads).rows if args.check else None
            for i, r in enumerate(closed_rows):
                row = [p, r.row1_nonzeros, r.row2_nonzeros, r.count]
                if observed is not None:
                    row.append(observed[i].count == r.count)
                rows.append(row)
        _emit_rows(header, rows, args.format)
        return 0
    raise ValueError(f"unknown table section {args.section!r}")


def _cmd_verify(args) -> int:
    progress = None
    if args.progress:

        def progress(i, total, tag):
            sys.stderr.write(f"[{i}/{total}] {tag}\n")
            sys.stderr.flush()

    results = verify.run_suite(
        args.profile, threads=args.threads, seed=args.seed, progress=progress
    )
    if args.format == "json":
        sys.stdout.write(verify.to_json_lines(results))
    else:
        sys.stdout.write(verify.render_table(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3census",
        description="Count invertible 3x3 matrices over Z/n by permanent value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="closed-form count of GL3(Z/n) matrices with permanent x")
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("x", type=int)
    p_eval.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_eval.set_defaults(fn=_cmd_eval)

    p_oracle = sub.add_parser("oracle", help="exhaustive census of GL3(Z/n) by permanent")
    p_oracle.add_argument("n", type=int)
    p_oracle.add_argument("--x", type=int, default=None, help="report a single permanent value")
    p_oracle.add_argument("--classes", action="store_true", help="split by sub-permanent class (prime powers)")
    p_oracle.add_argument("--engine", choices=("tiered", "naive"), default="tiered")
    p_oracle.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
    p_oracle.add_argument("--progress", action="store_true")
    p_oracle.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_table = sub.add_parser("table", help="reproduce the class-count or case-census table")
    p_table.add_argument(
        "--section",
        required=True,
        choices=CLASS_TABLE_SECTIONS + CASE_TABLE_SECTIONS,
        help="class-table (alias 4.2) or case-table (alias 4-cases)",
    )
    p_table.add_argument("--p-list", default=None, help="comma-separated moduli")
    p_table.add_argument("--check", action="store_true", help="confirm each row against the census")
    p_table.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
    p_table.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_table.set_defaults(fn=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--progress", action="store_true")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except oracle.CensusTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
