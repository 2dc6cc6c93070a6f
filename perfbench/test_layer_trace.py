"""Tests of the layer tracer.

    python3 -m pytest perfbench/test_layer_trace.py -q

Run from the repository root; semiflow is imported from ./src.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import semiflow  # noqa: E402
import layer_trace  # noqa: E402
import workloads  # noqa: E402


def _traced_task(tmp_path, name="props_diag", index=0):
    wl = workloads.WORKLOADS[name](5, str(tmp_path))
    inputs = wl.prepare(index)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        out = tracer.run(layer_trace.ROOT, wl.task, inputs)
        outer = time.perf_counter() - start
    finally:
        tracer.uninstall()
    wl.check(inputs, out)
    wl.close()
    return tracer, outer


def test_self_times_sum_to_traced_total(tmp_path):
    tracer, outer = _traced_task(tmp_path)
    total = tracer.total_s()
    layers = total - tracer.self_s[layer_trace.ROOT]
    assert layers > 0.5 * total  # the task's time is inside semiflow's layers
    assert 0.0 <= outer - total < 1e-3
    assert all(v >= -1e-9 for v in tracer.self_s.values())


def test_two_traced_runs_give_identical_counts(tmp_path):
    a, _ = _traced_task(tmp_path / "a", "props_dense")
    b, _ = _traced_task(tmp_path / "b", "props_dense")
    assert dict(a.calls) == dict(b.calls)
    assert dict(a.counts) == dict(b.counts)
    assert a.calls["solver.solve"] > 0 and a.counts["solver.windows"] > 0
    assert a.calls["semigroup.dense_propagators"] > 0
    assert a.calls["admissibility.convolve"] == 0


def test_reexported_names_feed_one_layer(tmp_path):
    tracer, _ = _traced_task(tmp_path)
    # props_diag calls solve through the package and through flow_props
    assert tracer.calls["solver.solve"] > tracer.calls["flow_props.checks"] > 0
    assert tracer.counts["solver.select_step.candidates"] >= \
        tracer.calls["solver.select_step"] == tracer.counts["solver.windows"]


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layer_trace, "FUNCTIONS",
                        layer_trace.FUNCTIONS + [("solver", "no_such_function", "x")])
    monkeypatch.setattr(layer_trace, "METHODS",
                        layer_trace.METHODS + [("core", "InputSignal", "no_such", "y")])
    original = semiflow.flow_props.solve
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        assert semiflow.flow_props.solve is not original
        assert semiflow.solver.solve is semiflow.solve
    finally:
        tracer.uninstall()
    assert tracer.absent == ["solver.no_such_function", "core.InputSignal.no_such"]
    assert semiflow.flow_props.solve is original
    assert tracer.metrics()["solver.solve.calls"] == (0, "count")
