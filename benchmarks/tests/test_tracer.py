import itertools

import pytest

import tracer
from tracer import Recorder, Span, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] -> b [1, 4] -> c [2, 3]; a -> d [5, 9]
    spans = [
        Span("a", 0.0, 10.0, parent=-1),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0  # self times tile the root span


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_recorder_nesting_and_reentry():
    rec = Recorder(clock=_ticking_clock())

    def inner():
        return 1

    def outer(depth):
        if depth:
            rec.call("transfer.solve_calibrated", outer, (depth - 1,), {})
        return rec.call("torus.sample", inner, (), {})

    rec.call("transfer.solve_calibrated", outer, (1,), {})
    names = [(s.name, s.parent, s.outer) for s in rec.spans]
    assert names == [
        ("transfer.solve_calibrated", -1, True),
        ("transfer.solve_calibrated", 0, False),
        ("torus.sample", 1, True),
        ("torus.sample", 0, True),
    ]
    # clock ticks: outer 0..7, reentry 1..4, sample 2..3, sample 5..6
    m = layer_metrics(rec.spans)
    assert m["transfer.solve_calibrated.calls"] == 2
    assert m["transfer.solve_calibrated.time_s"] == 7.0  # outermost span only
    assert m["transfer.solve_calibrated.self_s"] == (7 - 3 - 1) + (3 - 1)
    assert m["torus.sample.calls"] == 2
    assert m["torus.sample.time_s"] == 2.0
    assert m["torus.sample.self_s"] == 2.0


def test_recorder_closes_span_when_call_raises():
    rec = Recorder(clock=_ticking_clock())

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.call("cli.main", boom, (), {})
    assert rec.spans[0].end == 1.0 and rec._stack == []


def test_every_metric_name_present_and_routes_split():
    spans = [Span("convexity.convexity_defect", 0.0, 2.0, tag="fd", counts={"fd.shift_evals": 8}),
             Span("convexity.convexity_defect", 2.0, 3.0, tag="sd")]
    m = layer_metrics(spans)
    assert set(m) == set(tracer.layer_metric_names())
    assert m["convexity.convexity_defect.calls"] == 2
    assert m["convexity.convexity_defect.fd.time_s"] == 2.0
    assert m["convexity.convexity_defect.sd.calls"] == 1
    assert m["convexity.convexity_defect.fd.shift_evals"] == 8


def test_instrument_wraps_every_binding_and_restores():
    import circleopt
    from circleopt import criteria, torus, transfer, validate

    orig = transfer.solve_calibrated
    orig_call = torus.FunctionSpec.__call__
    bindings = [(circleopt, "solve_calibrated"), (criteria, "solve_calibrated"),
                (validate, "solve_calibrated"), (transfer, "solve_calibrated")]
    rec = Recorder()
    with tracer.instrument(rec):
        for mod, name in bindings:
            assert getattr(mod, name) is not orig
            assert getattr(mod, name).__wrapped__ is orig
        sol = criteria.solve_calibrated(circleopt.Cosine(1, 0.0), grid_n=64)
    for mod, name in bindings:
        assert getattr(mod, name) is orig
    assert torus.FunctionSpec.__call__ is orig_call
    m = layer_metrics(rec.spans)
    assert m["transfer.solve_calibrated.calls"] == 1
    assert m["transfer.solve_calibrated.sweeps"] == sol.iterations
    assert m["transfer.solve_calibrated.node_sweeps"] == sol.iterations * 2 * 64
    assert m["torus.sample.points"] == 64 + 128
    assert m["transfer.calibration_residual.calls"] == 1
