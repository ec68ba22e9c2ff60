"""One benchmark pass of one workload, in a fresh interpreter.

Run as ``python3 perfbench/workload.py <workload> <seed> <traced>`` from the
root of a checkout, with ``src`` on ``PYTHONPATH``. The last line of stdout is
one JSON object: the pass's wall time, the exactness verdict of every
operation, exact counters and a digest of every output. With ``traced`` = 1
the pass also records spans and probes that run.py turns into per-layer
metrics.

Everything here goes through gl3census's public surface: public calls, the
``progress=`` callbacks of the census engines and of ``run_suite``, and, in a
traced pass only, timing wrappers installed on public module attributes. A
fresh interpreter per pass means no ``lru_cache`` carries over, so every pass
pays for its form tables the way a ``gl3census oracle`` user does.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import sys
import time

NPROC = len(os.sched_getaffinity(0))

# Each workload is a list of census calls (engine, positional args, threads)
# or the verify suite. Why these: see NOTES.md.
CENSUS_WORKLOADS = {
    "census-generic": (("census_tiered", (12,), 1), ("census_tiered", (16,), 1)),
    "census-prime": (
        ("census_tiered", (13,), NPROC),
        ("class_census", (13,), NPROC),
        ("case_census", (13,), NPROC),
    ),
}
SUITE_WORKLOADS = {"verify-full": "full"}
WORKLOADS = (*CENSUS_WORKLOADS, *SUITE_WORKLOADS)

# The full profile reports 558 results; fewer means checks went missing.
MIN_RESULTS = {"full": 558}

# Prefix engines tick once per chunk of prefixes; the others once per chunk of
# whole matrices. WRAPPED lists the (module, attribute) pairs a traced pass times.
PREFIX_ENGINES = ("census_tiered", "class_census", "case_census", "emptiness_scan")
WRAPPED = (
    ("oracle", "census_tiered"),
    ("oracle", "census_naive"),
    ("oracle", "class_census"),
    ("oracle", "case_census"),
    ("oracle", "census_2x2"),
    ("structure_maps", "emptiness_scan"),
    ("verify", "shift_round_trip"),
    ("closed_form", "count"),
)


def modulus(engine: str, args) -> int:
    if engine == "class_census":
        p, k = (*args, 1)[:2]
        return p**k
    return args[0]


class Tracer:
    """Timing wrappers on public module attributes, for the span of a with block.

    A span is one call of a wrapped function: its name, start, end, the span
    that was open when it started, the progress ticks it emitted, the
    modulus it ran at and, for shift_round_trip, the members it checked.
    """

    def __init__(self, gl):
        self.gl = gl
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for mod_name, attr in WRAPPED:
            module = getattr(self.gl, mod_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, orig):
        sig = inspect.signature(orig)
        takes_progress = "progress" in sig.parameters
        takes_modulus = "n" in sig.parameters or "p" in sig.parameters

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "ticks": [],
            }
            if takes_modulus:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                n = a["n"] if "n" in a else a["p"] ** a.get("k", 1)
                span["n"] = getattr(n, "n", n)
            if takes_progress:
                outer = kwargs.get("progress")

                def progress(done, total, *rest):
                    span["ticks"].append((time.perf_counter(), done, total))
                    if outer is not None:
                        outer(done, total, *rest)

                kwargs["progress"] = progress
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span["start"] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if name == "shift_round_trip":
                span["members"] = out[0]
            return out

        return traced


# ---------------------------------------------------------------------------
# exactness gates: one verdict per operation, never dropped


def _gate_census(gl, engine, args, out, earlier) -> list[str]:
    """Problems with one census result; empty when it is exact."""
    cf = gl.closed_form
    problems = []
    if engine == "census_tiered":
        n = args[0]
        want = tuple(cf.count(n, x) for x in range(n))
        if out.counts != want:
            problems.append(f"census_tiered({n}) differs from closed_form.count")
    elif engine == "class_census":
        p, k = (*args, 1)[:2]
        for lab in gl.CLASS_LABELS:
            if out.count(0, lab) != cf.class_count_prime_power_zero(p, k, lab):
                problems.append(f"class_census({p}, {k}) {lab.name} at x = 0")
        marginal = out.marginal().counts
        if marginal != tuple(cf.count(p**k, x) for x in range(p**k)):
            problems.append(f"class_census({p}, {k}) marginal differs from closed_form.count")
        tiered = earlier.get(("census_tiered", (p**k,)))
        if tiered is not None and marginal != tiered.counts:
            problems.append(f"class_census({p}, {k}) marginal differs from census_tiered")
    elif engine == "case_census":
        p = args[0]
        if out.rows != cf.case_rows(p):
            problems.append(f"case_census({p}) differs from closed_form.case_rows")
    else:
        raise ValueError(f"no gate for {engine}")
    return problems


def _census_digest(out) -> str:
    fields = out.rows if hasattr(out, "rows") else out.counts
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# ---------------------------------------------------------------------------
# passes


def run_census(gl, calls, timed=contextlib.nullcontext()) -> dict:
    """Run the calls inside ``timed``, then gate every output outside it."""
    oracle = gl.oracle
    counters = {"calls": len(calls), "chunks": 0, "prefixes": 0, "matrices": 0}
    outputs = []
    last_done = [0]

    def progress(done, total):
        counters["chunks"] += 1
        last_done[0] = done

    with timed:
        start = time.perf_counter()
        for engine, args, threads in calls:
            outputs.append(getattr(oracle, engine)(*args, threads=threads, progress=progress))
            counters["prefixes"] += last_done[0]
        wall = time.perf_counter() - start

    earlier = {}
    ops = []
    digest = hashlib.sha256()
    for (engine, args, threads), out in zip(calls, outputs):
        counters["matrices"] += modulus(engine, args) ** 9
        problems = _gate_census(gl, engine, args, out, earlier)
        earlier[(engine, args)] = out
        ops.append({"op": f"{engine}{args}", "problems": problems})
        digest.update(_census_digest(out).encode())
    return {"wall_s": wall, "ops": ops, "counters": counters, "digest": digest.hexdigest()}


def suite_matrices(profile) -> int:
    """Matrices the profile's census engines cover, each census counted once."""
    return (
        sum(n**9 for n in profile.census_moduli)
        + sum(n**9 for n in profile.engine_moduli)
        + sum((p**k) ** 9 for p, k in profile.class_moduli)
        + sum(p**9 for p in profile.case_primes)
        + sum((p**k) ** 9 for p, k in profile.emptiness_moduli)
    )


def run_suite(gl, profile_name, seed, timed=contextlib.nullcontext()) -> dict:
    """Run the suite inside ``timed``, then gate its report outside it."""
    verify = gl.verify
    checks = []

    def progress(i, total, tag):
        checks.append((time.perf_counter(), tag))

    with timed:
        start = time.perf_counter()
        results = verify.run_suite(profile_name, threads=NPROC, seed=seed, progress=progress)
        wall = time.perf_counter() - start

    ops = [
        {"op": r.check_id, "problems": [] if r.passed else [r.to_json()]} for r in results
    ]
    missing = MIN_RESULTS.get(profile_name, 0) - len(results)
    ops += [{"op": "missing-result", "problems": ["check result missing"]}] * max(0, missing)
    # every shift-round-trip result carries the members checked at its (p, k);
    # engine-agreement compares the naive census at n for every residue
    checked, naive_moduli = {}, set()
    for r in results:
        params = dict(r.params)
        if r.check_id == "shift-round-trip":
            checked[(params["p"], params["k"])] = params["checked"]
        elif r.check_id == "engine-agreement":
            naive_moduli.add(params["n"])
    counters = {
        "results": len(results),
        "shift_members": sum(checked.values()),
        "naive_matrices": sum(n**9 for n in naive_moduli),
        "matrices": suite_matrices(verify.PROFILES[profile_name]),
    }
    report = verify.to_json_lines(results)
    return {
        "wall_s": wall,
        "ops": ops,
        "counters": counters,
        "digest": hashlib.sha256(report.encode()).hexdigest(),
        "checks": checks,
    }


def _time_calls(oracle, calls, other=False) -> list[float]:
    """Seconds per call; other=True swaps each call's thread count (1 <-> NPROC)."""
    times = []
    for engine, args, threads in calls:
        if other:
            threads = 1 if threads > 1 else NPROC
        t0 = time.perf_counter()
        getattr(oracle, engine)(*args, threads=threads)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(gl, job, seed: int, traced: bool) -> dict:
    """One pass: job is a tuple of census calls or a verify profile name."""
    tracer = Tracer(gl) if traced else None
    timed = tracer or contextlib.nullcontext()
    if isinstance(job, str):
        record = run_suite(gl, job, seed, timed)
    else:
        record = run_census(gl, job, timed)
    if not traced:
        return record

    record["spans"] = tracer.spans
    # Warm repeats: cold minus warm is the form-table build, and the ratio of
    # the two thread counts is the pool's scaling.
    if isinstance(job, str):
        moduli = sorted({s["n"] for s in tracer.spans if s["name"] == "census_tiered"})
        probe_calls = tuple(("census_tiered", (n,), NPROC) for n in moduli)
    else:
        probe_calls = job
    own = _time_calls(gl.oracle, probe_calls)
    other = _time_calls(gl.oracle, probe_calls, other=True) if NPROC > 1 else own
    record["probes"] = [
        {
            "engine": engine,
            "n": modulus(engine, args),
            "warm_s": t_own,
            "one_thread_s": t_own if threads == 1 else t_other,
            "nproc_s": t_other if threads == 1 else t_own,
        }
        for (engine, args, threads), t_own, t_other in zip(probe_calls, own, other)
    ]
    return record


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    src = os.path.join(os.getcwd(), "src")
    import gl3census as gl

    if not os.path.abspath(gl.__file__).startswith(src + os.sep):
        print(f"gl3census came from {gl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_done = time.monotonic()
    job = CENSUS_WORKLOADS.get(workload) or SUITE_WORKLOADS[workload]
    record = run_pass(gl, job, seed, traced)

    import numpy

    record["import_done"] = import_done
    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gl3census": gl.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
