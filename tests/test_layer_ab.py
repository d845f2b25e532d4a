import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layer_ab.py"
_spec = importlib.util.spec_from_file_location("layer_ab", _PATH)
layer_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_ab)

_LAYERS = {"heat-bath sweep N=16", "heat-bath sweep N=32", "independence sweep N=16",
           "independence sweep N=32", "reflection sweep N=16", "reflection sweep N=32",
           "run_chain sweep N=16", "run_chain sweep N=32", "spectral sample N=32",
           "green table N=32", "green solve N=32", "f oracle m=0.5", "harmonic extension N=32",
           "ladder point N=8", "coupling ladder N=16", "coupling ladder N=32", "bridge block",
           "stack margin N=256", "penalty N=16"}


def _in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "-C", str(layer_ab.ROOT), "rev-parse", "--verify", "--quiet",
                               "HEAD"], capture_output=True).returncode == 0
    except OSError:  # no git at all
        return False


def test_every_layer_has_a_row_and_its_per_site_column():
    # the working tree's package on both sides of measure, in process, so this check
    # runs in any tree, a git checkout or not
    tree = layer_ab.load("gffpin")
    names = [name for name, *_ in layer_ab.layers(1)]
    assert len(names) == 19 and set(names) == _LAYERS
    rows = layer_ab.summary_rows(layer_ab.measure(tree, tree, 2, 1))
    assert len(rows) == 1 + len(names)
    for name in names:
        row = next(r for r in rows if r.startswith(name + " "))
        assert row.split()[-1].endswith("/2"), row
        # the sweep layers carry a per-site cost, the others a dash
        per_site = row.split()[-6]
        assert (per_site == "-") != ("sweep" in name), row


@pytest.mark.skipif(not _in_git_checkout(),
                    reason="exports HEAD, so it needs a git checkout; outside one the tool exits "
                           "2 (tests/test_bench_pairs.py::test_outside_a_git_checkout_each_tool_"
                           "exits_2)")
def test_tiny_budget_against_head_names_every_layer():
    proc = subprocess.run([sys.executable, str(_PATH), "--parent", "HEAD", "--repeats", "2",
                           "--sweeps", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[1] == ("BLAS threads: OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, "
                       "MKL_NUM_THREADS=1")
    names = [name for name, *_ in layer_ab.layers(1)]
    assert len(names) == 19
    assert set(names) == _LAYERS
    for name in names:
        row = next(r for r in rows if r.startswith(name + " "))
        assert row.split()[-1].endswith("/2"), row
        # the sweep layers carry a per-site cost, the others a dash
        per_site = row.split()[-6]
        assert (per_site == "-") != ("sweep" in name), row


def test_refuses_an_empty_budget():
    proc = subprocess.run([sys.executable, str(_PATH), "--parent", "HEAD", "--repeats", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--repeats and --sweeps must be >= 1" in proc.stderr
