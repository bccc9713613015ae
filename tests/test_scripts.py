"""The experiment scripts run to the end on instances the solver refuses."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
    )


def test_batch_experiment_marks_precondition_rows():
    proc = run_script("batch_experiment.py", "--count", "12", "--rmin", "0", "--rmax", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = proc.stdout.splitlines()[2:-2]
    assert len(rows) == 12
    verdicts = [row.split()[-1] for row in rows]
    skipped = verdicts.count("pre")
    assert 0 < skipped < 12
    assert set(verdicts) == {"pre", "yes"}
    assert proc.stdout.splitlines()[-1] == (
        f"12 instances, 0 verification failures, {skipped} skipped (precondition)"
    )


def test_oracle_sweep_counts_precondition_skips():
    proc = run_script("oracle_sweep.py", "--count", "40", "--rmin", "0", "--rmax", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    summary = proc.stdout.splitlines()[-1]
    assert summary.startswith("40 instances in ")
    skipped = int(summary.split(", ")[1].split()[0])
    assert 0 < skipped < 40
    assert summary.endswith(f", {skipped} skipped (precondition): all agree")
