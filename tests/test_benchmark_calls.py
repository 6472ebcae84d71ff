"""One operation of each benchmark workload, so that a change to the calls it makes fails here first.

The workloads in ``bench/workloads.py`` call the package with keywords of
their own (``scheme="central"``, ``n_points=``, ``check_refinement=``); a
signature change that drops one would otherwise fail only the benchmark.
``verify_commutator_xf_p``'s ``scheme`` keyword survives only for
``bench/workloads.py``: the CLI calls it without, and a test here holds the
two calls to the same bits, so the benchmark measures what the CLI runs.
``random_smooth_state`` reads only its grid's cutoff; it keeps the ``grid``
parameter because ``OperatorChecks.run`` passes one.
The fields of ``UncertaintyReport`` are pinned to the ones that
``OperatorChecks.run`` and ``cmd_commutators`` read, so a field that no
caller reads shows up as a diff here.
The directory is put on ``sys.path`` for the test and nothing in it is written.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from fuzzyqm.numerics import MomentumGrid
from fuzzyqm.operators import SmearingParams, UncertaintyReport, random_smooth_state, verify_commutator_xf_p

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["deuteron-chain", "operator-checks", "oscillator-spectra"])
def test_workload_operation_passes_its_checks(workloads, name, tmp_path):
    assert sorted(workloads.WORKLOADS) == ["deuteron-chain", "operator-checks", "oscillator-spectra"]
    assert workloads.WORKLOADS[name](seed=20241019, tmp=tmp_path).run() == []


def test_commutator_scheme_keyword_is_the_keyword_free_call():
    s = SmearingParams(1.0)
    for n in (128, 1024):
        grid = MomentumGrid.symmetric(n, 8.0)
        assert verify_commutator_xf_p(grid, s, scheme="central") == verify_commutator_xf_p(grid, s)


def test_uncertainty_report_holds_the_fields_its_callers_read():
    assert [f.name for f in dataclasses.fields(UncertaintyReport)] == ["dxf", "dp", "bound"]


def test_random_smooth_state_reads_only_the_grid_cutoff():
    """Two grids with the same cutoff and different n give the same states.

    The state reads only the cutoff; ``grid`` stays because the benchmark passes one.
    """
    coarse, fine = MomentumGrid.symmetric(64, 8.0), MomentumGrid.symmetric(2048, 8.0)
    rng, other = np.random.default_rng(4545), np.random.default_rng(4545)
    for _ in range(5):
        assert random_smooth_state(coarse, rng) == random_smooth_state(fine, other)
