#!/usr/bin/env python3
"""The gl3census benchmark: end-to-end and per-layer metrics, exactness-gated.

    python3 perfbench/run.py --workload census-generic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its ``src``.
Every pass runs in a fresh interpreter (perfbench/workload.py). With
``--trace 0`` the run repeats untraced passes for ``--seconds`` (at least
one) and prints the end-to-end metrics; with ``--trace 1`` it adds one traced
pass and prints the per-layer metrics. ``--workload all`` runs every workload
traced and prints both sets. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads, metrics and
what each should move: NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload import CENSUS_WORKLOADS, NPROC, PREFIX_ENGINES, WORKLOADS  # noqa: E402

CHUNK = 1 << 20  # prefixes per progress tick, as in gl3census.oracle
SETUP_PROBES = 7
RUN_BUDGET_S = 170.0
SAMPLE_EVERY_S = 0.02
STATE_DIR = os.path.join(HERE, ".state")  # output fingerprints of earlier runs

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("exact_frac", "frac"),
    ("matrices_per_s", "1/s"),
)
CHECK_TAGS = (
    "census-closed-form",
    "engine-agreement",
    "order-total",
    "two-value",
    "lift",
    "zero-count",
    "branch-mod-three",
    "class-counts",
    "case-table",
    "emptiness",
    "subperm-identity",
    "shift-bijection",
    "fiber",
    "projection",
    "witness",
    "multiplicative",
    "partition-identity",
    "two-by-two",
)
ENGINES = ("census_tiered", "census_naive", "class_census", "case_census", "census_2x2")
PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_frac", "frac"),
    ("oracle.form_tables.s", "s"),
    ("oracle.form_tables.n12.s", "s"),
    ("oracle.form_tables.n16.s", "s"),
    ("oracle.prefix_pass.s", "s"),
    ("oracle.prefix_pass.chunk_s", "s"),
    ("oracle.prefix_pass.prefixes_per_s", "1/s"),
    ("oracle.bucket_solve.s", "s"),
    ("oracle.class_leftover.s", "s"),
    ("oracle.chunks", "count"),
    ("oracle.prefixes", "count"),
    ("oracle.matrices", "count"),
    ("oracle.pool.scaling", "x"),
    *((f"oracle.{e}.{m}", u) for e in ENGINES for m, u in (("s", "s"), ("calls", "count"))),
    ("oracle.census_naive.matrices", "count"),
    ("structure_maps.emptiness_scan.s", "s"),
    ("structure_maps.emptiness_scan.calls", "count"),
    ("verify.shift_round_trip.s", "s"),
    ("verify.shift_round_trip.members", "count"),
    ("closed_form.count.s", "s"),
    ("closed_form.count.calls", "count"),
    ("verify.self.s", "s"),
    ("verify.results", "count"),
    *((f"verify.check.{tag}.s", "s") for tag in CHECK_TAGS),
)
LAYER_OF = {
    "count": "closed_form.count",
    "shift_round_trip": "verify.shift_round_trip",
    "emptiness_scan": "structure_maps.emptiness_scan",
}


# ---------------------------------------------------------------------------
# processes


def _tree_hwm_kb(pid: int) -> int:
    """Sum of VmHWM (peak resident set) over pid and its live descendants."""
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    stack.extend(int(c) for c in f.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def _end_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group and wait until every member has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spawn(argv: list[str], env: dict, timeout: float, sample: bool):
    """Run argv in its own session. Returns (stdout, t_spawn, peak_kb) or raises."""
    peak = [0]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    done = threading.Event()

    def sampler():
        while not done.is_set():
            peak[0] = max(peak[0], _tree_hwm_kb(proc.pid))
            done.wait(SAMPLE_EVERY_S)

    watcher = threading.Thread(target=sampler) if sample else None
    if watcher is not None:
        watcher.start()
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{argv[1:]} timed out after {timeout:.0f} s") from None
    finally:
        done.set()
        if watcher is not None:
            watcher.join()
        _end_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, t_spawn, peak[0]


class Runner:
    def __init__(self, root: str, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def setup_probe(self) -> float:
        code = "import time, gl3census; print(time.monotonic())"
        out, t_spawn, _ = _spawn([sys.executable, "-c", code], self.env, self.left(), False)
        return float(out.split()[-1]) - t_spawn

    def run_pass(self, workload: str, seed: int, traced: bool) -> dict:
        argv = [sys.executable, os.path.join(HERE, "workload.py"), workload, str(seed),
                "1" if traced else "0"]
        out, t_spawn, peak_kb = _spawn(argv, self.env, self.left(), True)
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = record["import_done"] - t_spawn
        record["peak_rss_mb"] = peak_kb / 1024
        return record


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(rec: dict, plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass; plain_wall is the untraced median."""
    spans = rec["spans"]
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    wall = rec["wall_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - plain_wall

    # Warm probes: the form-table build at n is the first prefix-engine call
    # at n, cold, minus the same call repeated warm.
    warm = {}
    for probe in rec["probes"]:
        warm.setdefault((probe["engine"], probe["n"]), probe["warm_s"])
    m["oracle.pool.scaling"] = sum(p["one_thread_s"] for p in rec["probes"]) / sum(
        p["nproc_s"] for p in rec["probes"]
    )

    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _dur(s)
    seen_n = set()
    gap_t = gap_prefixes = 0.0
    attributed = 0.0
    for i, s in enumerate(spans):
        name, dur = s["name"], _dur(s)
        self_t = dur - children[i]
        layer = LAYER_OF.get(name, f"oracle.{name}")
        m[f"{layer}.s"] += dur
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] += 1
        if name == "shift_round_trip":
            m["verify.shift_round_trip.members"] += s["members"]
        ticks = s["ticks"]
        if name == "census_naive" and ticks:
            m["oracle.census_naive.matrices"] += ticks[-1][1]
        if name in PREFIX_ENGINES:
            n = s["n"]
            last = ticks[-1][0] if ticks else s["end"]
            form = 0.0
            if n not in seen_n and (name, n) in warm:
                form = min(max(0.0, dur - warm[(name, n)]), last - s["start"])
            seen_n.add(n)
            m["oracle.form_tables.s"] += form
            if f"oracle.form_tables.n{n}.s" in m:
                m[f"oracle.form_tables.n{n}.s"] += form
            m["oracle.prefix_pass.s"] += last - s["start"] - form
            solve = name in ("census_tiered", "case_census")
            m["oracle.bucket_solve.s" if solve else "oracle.class_leftover.s"] += s["end"] - last
            m["oracle.chunks"] += len(ticks)
            m["oracle.prefixes"] += ticks[-1][1] if ticks else 0
            m["oracle.matrices"] += n**9
            for (ta, da, _), (tb, db, _) in zip(ticks, ticks[1:]):
                gap_t += tb - ta
                gap_prefixes += db - da
        elif name == "census_naive":
            m["oracle.matrices"] += s["n"] ** 9
        attributed += self_t
    if gap_prefixes:
        m["oracle.prefix_pass.chunk_s"] = gap_t / gap_prefixes * CHUNK
        m["oracle.prefix_pass.prefixes_per_s"] = gap_prefixes / gap_t

    checks = rec.get("checks", [])
    for (ta, tag), (tb, _) in zip(checks, checks[1:]):
        if f"verify.check.{tag}.s" in m:
            m[f"verify.check.{tag}.s"] += tb - ta
        m["verify.self.s"] += tb - ta
    if checks:  # the wrapped calls inside the checks have layers of their own
        m["verify.self.s"] -= sum(_dur(s) for s in spans if s["parent"] is None)
    attributed += m["verify.self.s"]
    m["verify.results"] = rec["counters"].get("results", 0)
    m["trace.attributed_frac"] = attributed / wall
    return m


# ---------------------------------------------------------------------------
# a run


def tree_sha256(top: str) -> str:
    """sha256 over the paths and bytes of the .py files under top."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def stamp(root: str, source: str, workload: str, seed: int, versions: dict) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    calls = CENSUS_WORKLOADS.get(workload, (("run_suite", (), NPROC),))
    threads = sorted({t for _, _, t in calls})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": NPROC,
        "threads": threads,
        "cpu": cpu,
        **versions,
        "commit": commit,
        "source_sha256": source,
    }


class Tally:
    """Operations attempted and failed; a failed one is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def _fingerprint(rec: dict) -> dict:
    return {"digest": rec["digest"], "counters": rec["counters"]}


def check_state(state: str, key: str, fp: dict, tally: Tally) -> None:
    """Same source, workload and seed must give the same outputs in every run."""
    os.makedirs(state, exist_ok=True)
    path = os.path.join(state, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        tally.op("repeat-across-runs", [] if before == fp else [f"{before} != {fp}"])
    else:
        with open(path, "w") as f:
            json.dump(fp, f)


def run_workload(root: str, source: str, workload: str, seed: int, seconds: int,
                 traced: bool, deadline: float) -> dict:
    runner = Runner(root, deadline)
    tally = Tally()
    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]

    plain = []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(runner.run_pass(workload, seed, traced=False))
    passes = list(plain)
    traced_rec = runner.run_pass(workload, seed, traced=True) if traced else None
    if traced_rec is not None:
        passes.append(traced_rec)

    first = _fingerprint(plain[0])
    for i, rec in enumerate(passes):
        for op in rec["ops"]:
            tally.op(op["op"], op["problems"])
        if i:
            fp = _fingerprint(rec)
            tally.op("repeat-across-passes", [] if fp == first else [f"{fp} != {first}"])
        setup.append(rec["setup_s"])
    # keyed by the program and the benchmark, so neither can see stale state
    key = f"{source[:16]}-{tree_sha256(HERE)[:16]}-{workload}-{seed}"
    check_state(STATE_DIR, key, first, tally)

    walls = [r["wall_s"] for r in plain]
    layers = None
    if traced_rec is not None:
        layers = layer_metrics(traced_rec, statistics.median(walls))
        # what the wrappers saw must match the pass's own counters
        counters = traced_rec["counters"]
        seen = {"matrices": layers["oracle.matrices"]}
        if "shift_members" in counters:
            seen["shift_members"] = layers["verify.shift_round_trip.members"]
            seen["naive_matrices"] = layers["oracle.census_naive.matrices"]
        for name, got in seen.items():
            want = counters[name]
            tally.op(f"traced-{name}", [] if got == want else [f"traced {got} != {want}"])

    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "exact_frac": 1 - tally.failed / tally.attempted,
        "matrices_per_s": statistics.median(r["counters"]["matrices"] / r["wall_s"] for r in plain),
    }
    return {
        "workload": workload,
        "passes": len(plain),
        "walls": walls,
        "tally": tally,
        "e2e": e2e,
        "layers": layers,
        "stamp": stamp(root, source, workload, seed, plain[0]["versions"]),
        "counters": plain[0]["counters"],
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_block(res: dict, show_e2e: bool, show_layers: bool) -> None:
    t = res["tally"]
    print(f"== {res['workload']}: {res['passes']} untraced passes, "
          f"{t.attempted} operations, {t.failed} failed")
    print(f"   stamp {json.dumps(res['stamp'], sort_keys=True)}")
    print(f"   counters {json.dumps(res['counters'], sort_keys=True)}")
    print(f"   pass walls {' '.join(f'{w:.4f}' for w in res['walls'])}")
    for problem in t.problems:
        print(f"   FAILED {problem}")
    if show_e2e:
        for name, unit in END_TO_END:
            print(f"   {name:40} {_fmt(res['e2e'][name]):>14} {unit}")
        print(f"   {'failed_frac':40} {_fmt(t.failed / t.attempted):>14} frac")
    if show_layers:
        for name, unit in PER_LAYER:
            print(f"   {name:40} {_fmt(res['layers'][name]):>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still ends the passes it started (see _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gl3census", "__init__.py")):
        print(f"no gl3census source under {root}/src; run from a checkout root", file=sys.stderr)
        return 2

    budget = RUN_BUDGET_S * (len(WORKLOADS) if args.workload == "all" else 1)
    deadline = time.monotonic() + budget
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = args.workload == "all" or args.trace == 1
    try:
        source = tree_sha256(os.path.join(root, "src"))
        results = [run_workload(root, source, w, args.seed, args.seconds, traced, deadline)
                   for w in workloads]
    except RuntimeError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    show_e2e = args.workload == "all" or not traced
    for res in results:
        print_block(res, show_e2e, traced)
        prefix = f"{res['workload']}." if args.workload == "all" else ""
        table = []
        if show_e2e:
            table += [(n, u, res["e2e"][n]) for n, u in END_TO_END]
        if traced:
            table += [(n, u, res["layers"][n]) for n, u in PER_LAYER]
        for name, unit, value in table:
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
