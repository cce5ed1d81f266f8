"""Self-tests of the benchmark: deterministic inputs, checks that reject bad
outputs, and printable metric names.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from strongodd import graphs, ktree, solver, treewidth  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.fingerprint(workloads.make(name, 7))
    assert workloads.fingerprint(workloads.make(name, 7)) == first
    if name != "acceptance":  # fixed corpora; the seed only orders them
        assert workloads.fingerprint(workloads.make(name, 8)) != first


def recolor_one_vertex(c: graphs.Coloring, g: graphs.Graph) -> graphs.Coloring:
    """Give one endpoint of an edge its neighbor's color."""
    u, v = min(g.edges)
    assignment = dict(c.assignment)
    assignment[u] = assignment[v]
    return graphs.Coloring(assignment)


def single_op_workload(name: str) -> workloads.Workload:
    w = workloads.make(name, 1)
    return workloads.Workload(name, w.warmup, [w.warmup])


def corrupted_output(name: str):
    w = single_op_workload(name)
    out = w.warmup.call()
    assert workloads.check_pass(w, [out], None) == [None]
    if name == "layered":
        _, seq, _, _ = w.warmup.inputs
        return w, recolor_one_vertex(out, ktree.build_ktree(seq))
    if name == "outerplanar":
        _, _, mask = w.warmup.inputs
        return w, recolor_one_vertex(out, mask)
    if name == "solver":
        _, g = w.warmup.inputs
        value, witness = out
        return w, (value, recolor_one_vertex(witness, g))
    return w, dict(out, status="fail")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_reject_a_corrupted_output(name):
    w, bad = corrupted_output(name)
    assert workloads.check_pass(w, [bad], None)[0] is not None
    tally = run.Tally(w, None)
    tally.add([(bad, 0.01)])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_raising_and_slow_ops_count_as_failed():
    w = single_op_workload("solver")
    out = w.warmup.call()
    tally = run.Tally(w, None)
    tally.add([(ValueError("boom"), 0.01)])
    tally.add([(out, run.OP_BUDGET_S + 1)])
    assert (tally.attempted, tally.failed) == (2, 2)


def test_changed_solver_value_fails_against_the_pin():
    w = single_op_workload("solver")
    out = w.warmup.call()
    assert workloads.check_pass(w, [out], {w.warmup.name: out[0]}) == [None]
    assert workloads.check_pass(w, [out], {w.warmup.name: out[0] + 1})[0] is not None


def test_inflated_solver_value_fails_without_a_pin():
    w = single_op_workload("solver")
    value, witness = w.warmup.call()
    assert workloads.check_pass(w, [(value + 1, witness)], None)[0] is not None


def test_broken_chain_fails_all_three_ops():
    g = graphs.Graph.cycle(5)
    ops = [workloads.solver_op(f"c5_{label}", fn.__name__, g, verifier)
           for label, fn, verifier in workloads.SOLVERS]
    w = workloads.Workload("solver", ops[0], ops, [(0, 1, 2)])
    outs = [op.call() for op in ops]
    assert workloads.check_pass(w, outs, None) == [None] * 3
    _, chi_witness = outs[0]
    outs[0] = (outs[2][0] + 1, chi_witness)  # chi above chi_so
    assert all(workloads.check_pass(w, outs, None))


def test_pins_cover_the_default_seed():
    pins = json.loads(run.PINS.read_text())
    assert pins["seed"] == run.DEFAULT_SEED
    w = workloads.make("solver", run.DEFAULT_SEED)
    assert list(pins["solver_values"]["solver"]) == [op.name for op in w.ops]
    for name in workloads.WORKLOADS:
        assert len(pins["colors"][name]) == len(workloads.make(name, run.DEFAULT_SEED).ops)


def test_tail_latency_needs_ten_ops_beyond():
    assert run.tail_latency([1.0] * 19) is None
    p, value = run.tail_latency(list(range(100)))
    assert (p, value) == (90, 89)


def test_tracer_counts_repeat_and_wrappers_come_off():
    w = workloads.make("layered", 3)
    original = treewidth.color_tw
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert treewidth.color_tw is not original
            w.warmup.call()
            solver.chi_so_exact(graphs.Graph.cycle(5))
        finally:
            tracer.remove()
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items()
                       if k.endswith((".calls", ".distinct")) or k == "solver.nodes"})
    assert treewidth.color_tw is original
    assert counts[0] == counts[1]
    assert counts[0]["ktree.layer_completion.calls"] > 0
    assert counts[0]["solver.nodes"] > 0


def test_printed_names_and_units_are_well_formed():
    units = dict(run.END_TO_END_UNITS, **tracing.metric_units())
    for name, unit in units.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
    for name in workloads.WORKLOADS:
        w = workloads.make(name, 1)
        for op in [w.warmup] + w.ops:
            assert NAME.fullmatch(op.name), op.name


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    expected = json.loads((BENCH_DIR / "expectations.json").read_text())
    assert list(expected["workloads"]) == list(workloads.WORKLOADS)
    listed = [m for entry in expected["per_module"] for m in entry["metrics"]]
    assert sorted(listed) == sorted(tracing.metric_units())


def test_end_to_end_run_prints_one_result_line():
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "solver", "--seed", "2", "--seconds", "1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for line in lines[:-1]:
        if line.startswith("metric "):
            assert NAME.fullmatch(line.split()[1]), line
