"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root).

They run small census calls and the quick verify profile in-process, so they
take about half a minute; the benchmark's workloads themselves run only
through run.py.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gl3census as gl  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

# multi-chunk calls (11^6 and 12^6 prefixes span two and three chunks)
SMALL_CALLS = (
    ("census_tiered", (11,), workload.NPROC),
    ("class_census", (11,), 1),
    ("case_census", (7,), workload.NPROC),
    ("census_tiered", (12,), 1),
)


@pytest.fixture(scope="module")
def census_passes():
    passes = [workload.run_pass(gl, SMALL_CALLS, 0, False) for _ in range(2)]
    gl.oracle._form_tables.cache_clear()  # cold, as in the fresh interpreter of a real pass
    return passes + [workload.run_pass(gl, SMALL_CALLS, 0, True)]


@pytest.fixture(scope="module")
def suite_passes():
    return [workload.run_pass(gl, "quick", 7, traced) for traced in (False, True)]


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_census_ops_are_exact_and_counters_repeat(census_passes):
    plain, again, traced = census_passes
    for rec in census_passes:
        assert rec["ops"] and all(not op["problems"] for op in rec["ops"])
    assert plain["counters"] == again["counters"] == traced["counters"]
    assert plain["digest"] == again["digest"] == traced["digest"]
    assert plain["counters"] == {
        "calls": 4,
        "chunks": 2 + 2 + 1 + 3,
        "prefixes": 2 * 11**6 + 7**6 + 12**6,
        "matrices": 2 * 11**9 + 7**9 + 12**9,
    }


def test_gate_reports_a_wrong_census():
    table = gl.census_tiered(5)
    wrong = dataclasses.replace(table, counts=(table.counts[0] + 1, *table.counts[1:]))
    assert workload._gate_census(gl, "census_tiered", (5,), table, {}) == []
    assert workload._gate_census(gl, "census_tiered", (5,), wrong, {})
    cases = gl.case_census(5)
    bad_rows = (dataclasses.replace(cases.rows[0], count=0), *cases.rows[1:])
    bad_cases = dataclasses.replace(cases, rows=bad_rows)
    assert workload._gate_census(gl, "case_census", (5,), bad_cases, {})
    classes = gl.class_census(5)
    earlier = {("census_tiered", (5,)): wrong}
    assert workload._gate_census(gl, "class_census", (5,), classes, earlier)


def test_traced_layers_account_for_the_pass(census_passes):
    traced = census_passes[2]
    m = run.layer_metrics(traced, census_passes[0]["wall_s"])
    assert set(m) == {name for name, _ in run.PER_LAYER}
    assert 0.9 <= m["trace.attributed_frac"] <= 1.1
    assert m["oracle.matrices"] == traced["counters"]["matrices"]
    assert m["oracle.prefixes"] == traced["counters"]["prefixes"]
    assert m["oracle.chunks"] == traced["counters"]["chunks"]
    assert m["oracle.census_tiered.calls"] == 2 and m["oracle.class_census.calls"] == 1
    assert m["oracle.form_tables.n12.s"] > 0 and m["oracle.prefix_pass.chunk_s"] > 0
    parts = ("form_tables.s", "prefix_pass.s", "bucket_solve.s", "class_leftover.s")
    inclusive = sum(m[f"oracle.{e}.s"] for e in ("census_tiered", "class_census", "case_census"))
    assert sum(m[f"oracle.{p}"] for p in parts) == pytest.approx(inclusive)


def test_tracer_restores_public_attributes():
    before = {(mod, attr): getattr(getattr(gl, mod), attr) for mod, attr in workload.WRAPPED}
    with workload.Tracer(gl):
        assert gl.oracle.census_tiered is not before[("oracle", "census_tiered")]
    assert all(getattr(getattr(gl, mod), attr) is fn for (mod, attr), fn in before.items())


def test_suite_pass_repeats_and_is_traced(suite_passes):
    plain, traced = suite_passes
    assert all(not op["problems"] for op in plain["ops"] + traced["ops"])
    assert plain["digest"] == traced["digest"]
    assert plain["counters"] == traced["counters"]
    assert plain["counters"]["matrices"] == workload.suite_matrices(gl.verify.QUICK)
    m = run.layer_metrics(traced, plain["wall_s"])
    assert m["verify.results"] == plain["counters"]["results"] == len(plain["ops"])
    assert m["verify.shift_round_trip.members"] == plain["counters"]["shift_members"]
    assert m["oracle.census_naive.matrices"] == plain["counters"]["naive_matrices"] > 0
    assert m["oracle.matrices"] == plain["counters"]["matrices"]
    assert 0.9 <= m["trace.attributed_frac"] <= 1.1
    tags = [tag for _, tag in traced["checks"][:-1]]
    assert tags == list(run.CHECK_TAGS)


def test_missing_suite_results_count_as_failed(monkeypatch):
    monkeypatch.setitem(workload.MIN_RESULTS, "quick", 10**4)
    monkeypatch.setattr(gl.verify, "PROFILES", {**gl.verify.PROFILES, "quick": _tiny_profile()})
    rec = workload.run_suite(gl, "quick", 1)
    failed = [op for op in rec["ops"] if op["problems"]]
    assert len(failed) == 10**4 - rec["counters"]["results"]


def _tiny_profile():
    return dataclasses.replace(
        gl.verify.QUICK,
        census_moduli=(1, 2, 3, 4, 5, 6, 7, 8, 9),
        engine_moduli=(2, 3),
        emptiness_moduli=((2, 1), (3, 1)),
        identity_samples=100,
        shift_pairs=((3, 1),),
        shift_sample=100,
    )


def test_state_catches_a_changed_output(tmp_path):
    tally = run.Tally()
    fp = {"digest": "a", "counters": {"results": 1}}
    run.check_state(str(tmp_path), "k", fp, tally)
    run.check_state(str(tmp_path), "k", fp, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.check_state(str(tmp_path), "k", {**fp, "digest": "b"}, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".state")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-prime", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
