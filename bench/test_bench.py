"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import statistics
import sys

import pytest

import run
import tracing


class FakeClock:
    """Wall clock advanced only by the operations under test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 1.0)]) == 1.0
    assert tracing.union_length([(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)]) == pytest.approx(2.5)
    assert tracing.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0  # contained interval
    assert tracing.union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0  # touching intervals


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),  # overlaps a: the union is [1, 6], not 3 + 3
        ("c", 1, 2.0, 3.0),  # grandchild: charged to a, not to root
        ("d", 0, 9.0, 12.0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])


def test_layer_metrics_counts_and_ratio():
    spans = [
        ("numerics.quadrature.integrate_semi_infinite", -1, 0.0, 2.0),
        ("numerics.quadrature.integrate_semi_infinite", -1, 2.0, 3.0),
        ("numerics.linalg.eig_sym", -1, 3.0, 7.0),
    ]
    counts = {"numerics.quadrature.integrate.calls": 4, "numerics.linalg.eig_sym.n3_sum": 8}
    m = tracing.layer_metrics(spans, counts)
    assert set(m) == {name for name, _ in tracing.PER_LAYER}
    assert m["numerics.quadrature.integrate_semi_infinite.calls"] == 2
    assert m["numerics.quadrature.integrate_semi_infinite.self_s"] == pytest.approx(3.0)
    assert m["numerics.quadrature.integrate.calls"] == 4
    assert m["numerics.quadrature.rules_per_integral"] == 2.0
    assert m["numerics.linalg.eig_sym.n3_sum"] == 8
    assert m["deuteron.solve_depth.calls"] == 0
    assert tracing.layer_metrics([], {})["numerics.quadrature.rules_per_integral"] == 0.0


def test_failed_frac():
    assert run.failed_frac(0, 5) == 0.0
    assert run.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        run.failed_frac(0, 0)
    tally = run.Tally()
    tally.record([])
    tally.record(["wrong", "also wrong"])
    tally.record([])
    tally.record(["wrong again"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert run.failed_frac(tally.failed, tally.attempted) == 0.5
    assert tally.problems == ["wrong", "also wrong", "wrong again"]


@pytest.mark.parametrize(
    "op_s, seconds, expected",
    [(3.0, 8.0, 2), (3.0, 9.0, 3), (3.0, 11.5, 3), (3.0, 12.0, 4), (10.0, 8.0, 1), (3.0, 0.0, 1)],
)
def test_timed_ops_sample_count(op_s, seconds, expected):
    wall, cpu = FakeClock(), FakeClock()

    def op():
        wall.now += op_s
        cpu.now += 2 * op_s  # two busy threads

    samples = run.timed_ops(op, seconds, wall=wall, cpu=cpu)
    assert len(samples) == expected
    assert samples == [(op_s, 2 * op_s)] * expected


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert run.quartiles(values) == (q1, q2, q3)
    assert run.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_tracer_patches_every_binding_and_restores():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import fuzzyqm
    from fuzzyqm import deuteron
    from fuzzyqm.numerics import grids, solvers

    original = solvers.golden_section
    post_init = grids.OperatorMatrix.__post_init__
    with tracing.Tracer() as tracer:
        assert deuteron.golden_section is solvers.golden_section is fuzzyqm.numerics.golden_section
        assert deuteron.golden_section is not original
        x, _ = deuteron.golden_section(lambda v: (v - 1.0) ** 2, 0.0, 3.0, tol=1e-6)
        grid = grids.MomentumGrid.symmetric(16, 1.0)
        fuzzyqm.numerics.derivative_matrix(grid, 1)
    assert x == pytest.approx(1.0, abs=1e-6)
    assert deuteron.golden_section is original and solvers.golden_section is original
    assert grids.OperatorMatrix.__post_init__ is post_init
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert m["numerics.solvers.golden_section.calls"] == 1
    assert m["numerics.solvers.golden_section.fevals"] > 2
    assert m["numerics.linalg.derivative_matrix.calls"] == 1
    assert m["numerics.grids.OperatorMatrix.calls"] == 1
    assert m["numerics.grids.OperatorMatrix.bytes"] == 16 * 16 * 8
