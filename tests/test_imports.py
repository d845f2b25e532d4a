"""Import footprint: a gffpin process loads only the scipy subpackages its path calls.

Each check runs in a fresh interpreter, because this test process has long
since imported every module the suite touches.
"""

import json
import subprocess
import sys
from pathlib import Path

import gffpin

SRC = str(Path(gffpin.__file__).resolve().parent.parent)

CHAIN = """
from gffpin import cli, disorder, lattice, pinning, rng
geom = lattice.build_box(8)
omega = disorder.sample_disorder(geom, disorder.GAUSSIAN, rng.stream(0, "imports", "omega"))
params = pinning.PinningParams(beta=0.5, h=0.1)
chain_rng = rng.stream(0, "imports", "chain")
chain = pinning.make_chain(geom, params, omega, chain_rng)
pinning.run_chain(geom, params, omega, chain_rng, sweeps=4, thinning=2, chain=chain)
"""

DOUBLING = """
from gffpin import freeenergy
freeenergy.doubling_gap(0.5, 0.3, 0.3, 0.0, 0.05, 4, 245, replicas=2, sweeps=4, burn_in=2)
"""

STACK = """
from gffpin import fields, freeenergy, kernels, lattice, rng
geom = lattice.build_box(256)
m = freeenergy.desk_mass(256)
grid = kernels.scale_time_grid(m, min_scales=1)
assert grid.k == 1
stack = fields.sample_scale_stack(geom, m, rng.stream(0, "imports", "stack"), grid=grid)
fields.stack_barrier_margin(stack.stack, lattice.sub_box_mask(geom, 2.0), freeenergy.GAMMA)
"""


def _loaded_after(code: str, modules: list[str]) -> list[str]:
    probe = (f"import json, sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_chain_path_loads_no_heavy_scipy_subpackage():
    heavy = ["scipy.ndimage", "scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.sparse.linalg", "concurrent.futures.process"]
    assert _loaded_after(CHAIN, heavy + ["scipy.special"]) == ["scipy.special"]


def test_doubling_path_loads_no_quadrature_solver_or_filter():
    # its random massive boundaries are extended in the sine basis, with no sparse solve
    heavy = ["scipy.ndimage", "scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.sparse.linalg"]
    assert _loaded_after(DOUBLING, heavy + ["scipy.special", "scipy.fft"]) == ["scipy.special",
                                                                               "scipy.fft"]


def test_one_scale_stack_path_loads_no_root_finder():
    # only a grid with k > 1 root-finds; every laboratory mass gives k = 1
    assert _loaded_after(STACK, ["scipy.optimize"]) == []
