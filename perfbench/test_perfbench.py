"""Tests of the benchmark itself: oracle, input generator, checks and smoke run.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import oracle
import run
import spans
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# First coefficients as printed by `molien series` / `molien verify` on the
# unchanged library (exact backend; float for H3 and D_m).
PRINTED = [
    (oracle.symmetric(4), [1, 1, 2, 3, 5, 6, 9, 11]),
    (oracle.imprimitive(2, 1, 3), [1, 0, 1, 0, 2, 0, 3, 0, 4]),
    (oracle.imprimitive(4, 4, 3), [1, 0, 0, 1, 1, 0, 1, 1, 2, 1, 1, 2, 3]),
    (oracle.imprimitive(4, 2, 3), [1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3]),
    (oracle.q8(), [1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4]),
    (oracle.binary_tetrahedral(), [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 0, 1]),
    (oracle.h3(), [1, 0, 1, 0, 1, 0, 2, 0, 2]),
    (oracle.dihedral(12), [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2]),
]


@pytest.mark.parametrize("form,printed", PRINTED, ids=[f.name for f, _ in PRINTED])
def test_closed_forms_match_printed_coefficients(form, printed):
    assert form.series(len(printed) - 1) == printed
    form.check_order()


def test_expand_fraction_agrees_with_product_form():
    # (1 + l^6) / (1 - l^4)^2 written out as polynomials
    got = oracle.expand_fraction([1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, -2, 0, 0, 0, 1], 20)
    assert got == oracle.q8().series(20)


def test_seed_fixes_the_inputs_and_only_the_inputs():
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.build(workload, s) for s in (5, 5, 6))
        assert [(j.name, j.argv, j.spec, j.generators) for j in a] == [
            (j.name, j.argv, j.spec, j.generators) for j in b
        ]
        assert sorted((j.name, j.kind, j.degree, j.form.order) for j in a) == sorted(
            (j.name, j.kind, j.degree, j.form.order) for j in c
        )
        assert [(j.name, j.argv, j.spec, j.generators) for j in a] != [
            (j.name, j.argv, j.spec, j.generators) for j in c
        ]


def test_float_defect_jobs_keep_their_size():
    jobs = {j.name: j for j in workloads.build("float_mixed", 0)}
    assert jobs["D30-verify-D16"].degree == 16 and jobs["D60-verify-D16"].degree == 16


def test_checker_reports_a_wrong_coefficient(tmp_path):
    molien = run.import_molien()
    job = next(j for j in workloads.build("smoke", 0) if j.name == "Q8-verify-D4")
    workloads.write_specs([job], str(tmp_path))
    wrong = list(job.form.series(job.degree))
    wrong[4] += 1
    outcome = run.run_job(molien, job, wrong)
    assert outcome.degree == 4 and "d=4" in outcome.reason


def test_only_silent_wrong_answers_make_a_run_incorrect():
    r = run.Run("smoke", 0, "unused")
    job = workloads.build("smoke", 0)[0]
    r.account(0, job, run.Outcome(1.0, "a", "exit 2 (mismatch)", 14, reported=True))
    assert r.silent_wrong == 0 and r.failures[0]["degree"] == 14
    r.account(1, job, run.Outcome(1.0, "b", None, None))
    assert r.silent_wrong == 1 and r.failures[1]["reason"] == "output differs from the first pass"
    assert r.attempted == 2


def test_job_span_check_compares_with_the_measured_job_time():
    tracer = spans.Tracer()
    tracer.spans = [["job", 0.0, 1.0, -1, "J", 0.4], ["cli.main", 0.1, 0.7, 0, "J", 0.6]]
    run.check_job_spans(tracer, {"jobs": {"J": run.Outcome(1.0005, None, None, None)}})
    with pytest.raises(RuntimeError, match="job J"):
        run.check_job_spans(tracer, {"jobs": {"J": run.Outcome(1.5, None, None, None)}})


def test_install_refuses_a_function_bound_nowhere(monkeypatch):
    molien = run.import_molien()

    class Ghostly(types.ModuleType):
        def __getattr__(self, name):
            return lambda: None

    monkeypatch.setitem(sys.modules, "molien.ghost", Ghostly("molien.ghost"))
    monkeypatch.setattr(spans, "COARSE", spans.COARSE + [("molien.ghost", "vanishing", "ghost.vanishing")])
    main = molien.cli.main
    with pytest.raises(RuntimeError, match="escape tracing"):
        spans.Tracer().install()
    assert molien.cli.main is main


def test_setup_time_is_sampled_before_the_first_pass_only(tmp_path):
    r = run.Run("smoke", 0, str(tmp_path / "specs"))
    r.setups(run.SETUP_SAMPLES)
    r.one_pass()
    assert len(r.setup_durations) == len(r.setup_ratios) == run.SETUP_SAMPLES
    assert all(ratio > 0 for ratio in r.setup_ratios)
    assert r.passes[0]["calib_s"] > 0 and r.passes[0]["calib_idle_s"] > 0


def _declared():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        bench = json.load(handle)
    return bench["end_to_end"], bench["per_layer"]


def test_smoke_emits_every_metric_and_tracing_changes_no_output(tmp_path):
    end_to_end, per_layer = _declared()
    plain, _meta, plain_run = run.measure("smoke", 1, 0, traced=False, out_dir=str(tmp_path))
    traced, _meta, traced_run = run.measure("smoke", 1, 0, traced=True, out_dir=str(tmp_path))
    for result, declared in ((plain, end_to_end), (traced, per_layer)):
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["correct"] and result["failed"] == 0
    # the traced pass is compared with the untraced one inside the run, and
    # both runs must print the same bytes for every job
    assert traced["attempted"] == 2 * plain["attempted"]
    assert traced_run.first_output == plain_run.first_output
    assert os.path.exists(tmp_path / "trace-smoke-1.json")


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
