"""The benchmark's calls into the package, run in the package's own suite.

bench/workloads.py calls reduce_spectrum(..., poisson_errors=),
fit_roto_recoil(m_free=), calibration_audit with PeakFit(...) stand-ins and
the weak-value entry points.  One tiny unit of each in-process workload runs
here, so a change that breaks one of those calls fails these tests, not only
the benchmark.  cli_cold is left out: it starts a process per subcommand
(about 2 s), and test_cli.py's full chain runs the same subcommands.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", ["mc_h2", "bank_io", "wv_sweep"])
def test_one_tiny_unit_has_no_failed_operation(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path), tiny=True)
    rec = workloads.Recorder(NullTracer())
    wl.run(0, rec)
    assert rec.attempted > 0
    assert rec.failures == []
