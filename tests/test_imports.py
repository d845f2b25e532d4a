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

SAMPLERS = """
from gffpin import disorder, fields, freeenergy, kernels, lattice, rng
g8, g16, g256 = (lattice.build_box(n) for n in (8, 16, 256))
fields.sample_dirichlet_interior(g8, 0.0, 4, rng.stream(0, "imports", "dirichlet", 8))
fields.sample_dirichlet_interior(g8, 0.3, 4, rng.stream(0, "imports", "dirichlet", 8, "m"))
m = freeenergy.desk_mass(256)
grid = kernels.scale_time_grid(m, min_scales=1)
stack = fields.sample_scale_stack(g256, m, rng.stream(0, "imports", "stack"), grid=grid)
fields.stack_barrier_margin(stack.stack, lattice.sub_box_mask(g256, 2.0), freeenergy.GAMMA)
fields.bridge_positivity_probability([1.0] * 10, 2.0, 64, rng.stream(0, "imports", "bridge"))
kernels.green_dirichlet(g8, 0.3)
kernels.green_dirichlet_solve(g8, 0.3)
kernels.green_dirichlet_diag(g16, 0.0)
kernels.f_of_m(0.5)
kernels.f_of_m_adaptive(0.5)
omega = disorder.sample_disorder(g16, disorder.GAUSSIAN, rng.stream(0, "imports", "omega"))
disorder.penalty_f(omega, lattice.cell_tiling(g16, 4), 1.0)
"""


SE_CALIBRATION = """
from gffpin import experiments
experiments.run_experiment("se-calibration-coupling", {"seeds": 4, "sweeps": 20, "burn_in": 4})
"""


def _loaded_after(code: str, modules: list[str]) -> list[str]:
    probe = (f"import json, sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_chain_path_loads_no_heavy_scipy_subpackage():
    # the probe imports gffpin.cli, and through it gffpin.experiments
    heavy = ["scipy.ndimage", "scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.sparse.linalg", "scipy.stats", "concurrent.futures.process"]
    assert _loaded_after(CHAIN, heavy + ["scipy.special"]) == ["scipy.special"]


def test_doubling_path_loads_no_quadrature_solver_or_filter():
    # its random massive boundaries are extended in the sine basis, with no sparse solve
    heavy = ["scipy.ndimage", "scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.sparse.linalg", "scipy.stats"]
    assert _loaded_after(DOUBLING, heavy + ["scipy.special", "scipy.fft"]) == ["scipy.special",
                                                                               "scipy.fft"]


def test_one_scale_stack_path_loads_no_root_finder():
    # only a grid with k > 1 root-finds; every laboratory mass gives k = 1
    assert _loaded_after(STACK, ["scipy.optimize", "scipy.stats"]) == []


def test_exact_sampler_path_loads_no_sparse_solver_quadrature_or_root_finder():
    # both oracle routes (the Green table's block elimination, f(m)'s closed inner
    # integral) run on numpy alone
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg",
             "scipy.stats"]
    assert _loaded_after(SAMPLERS, heavy + ["scipy.special", "scipy.fft"]) == ["scipy.special",
                                                                               "scipy.fft"]


def test_se_calibration_loads_no_statistics_package():
    # its 90% interval takes the chi-square quantiles from scipy.special
    assert _loaded_after(SE_CALIBRATION, ["scipy.stats", "scipy.special"]) == ["scipy.special"]
