import ast
import itertools
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

import msrecover
from msrecover import testfuncs
from msrecover.grid import DomainSpec, build_partition, build_subsample
from msrecover.measurements import build_functionals, measure_all
from msrecover.testfuncs import KMAX, flattened_profile, fourier_free, fourier_h01

SPECS = [(1, 64), (2, 32), (3, 12)]
SEEDS = [0, 1, 2024]


def _modes(dim, kmax):
    return np.array(list(itertools.product(range(kmax + 1), repeat=dim)))


def reference_fourier_h01(spec, seed, kmax):
    """Meshgrid reference: every sine factor evaluated on the full node grid.

    Returns the values and sum |c_k|, which bounds every term's magnitude sum.
    """
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*spec.node_coordinates(), indexing="ij")
    vals, coef_l1 = np.zeros(spec.node_shape), 0.0
    for k in _modes(spec.dim, kmax):
        if np.any(k == 0):
            continue
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        term = np.ones(spec.node_shape)
        for axis in range(spec.dim):
            term = term * np.sin(np.pi * k[axis] * grids[axis])
        vals += c * term
        coef_l1 += abs(c)
    return vals, coef_l1


def reference_fourier_free(spec, seed, kmax):
    """Meshgrid reference: draws before the constant-mode skip, as the generator must."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*spec.node_coordinates(), indexing="ij")
    vals, coef_l1 = np.zeros(spec.node_shape), 0.0
    for k in _modes(spec.dim, kmax):
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        if np.all(k == 0):
            continue
        term = np.ones(spec.node_shape)
        for axis in range(spec.dim):
            term = term * np.cos(np.pi * k[axis] * grids[axis])
        vals += c * term
        coef_l1 += abs(c)
    return vals, coef_l1


def assert_matches_reference(got, reference, kmax):
    """Bit-equal in 1D.  In 2D and 3D the generator sums the same terms one axis
    at a time, so the two differ only by rounding: each is within
    gamma_(N+d) sum |c_k| of the exact series, N = (kmax+1)^d terms of d
    factors |sin|, |cos| <= 1 (Higham, Accuracy and Stability, sec. 3.1)."""
    ref, coef_l1 = reference
    assert got.shape == ref.shape
    if got.ndim == 1:
        assert np.array_equal(got, ref)
    else:
        steps = (kmax + 1) ** got.ndim + got.ndim
        unit = 0.5 * np.finfo(float).eps
        gamma = steps * unit / (1.0 - steps * unit)
        assert np.abs(got - ref).max() <= 2.0 * gamma * coef_l1


@pytest.mark.parametrize("dim,n", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kmax", [1, KMAX])
def test_fourier_h01_matches_meshgrid_reference(dim, n, seed, kmax, monkeypatch):
    monkeypatch.setattr(testfuncs, "KMAX", kmax)  # the contraction holds at any cutoff
    spec = DomainSpec(dim, n)
    got = fourier_h01(spec, seed).values
    assert got.shape == spec.node_shape
    assert_matches_reference(got, reference_fourier_h01(spec, seed, kmax), kmax)


@pytest.mark.parametrize("dim,n", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kmax", [1, KMAX])
def test_fourier_free_matches_meshgrid_reference(dim, n, seed, kmax, monkeypatch):
    monkeypatch.setattr(testfuncs, "KMAX", kmax)
    spec = DomainSpec(dim, n)
    got = fourier_free(spec, seed).values
    assert got.shape == spec.node_shape
    assert_matches_reference(got, reference_fourier_free(spec, seed, kmax), kmax)


@pytest.mark.parametrize("dim,n", SPECS)
def test_fourier_h01_vanishes_on_the_boundary(dim, n):
    vals = fourier_h01(DomainSpec(dim, n), seed=5).values
    scale = np.abs(vals).max()
    assert scale > 0.0
    for axis in range(dim):
        for end in (0, -1):
            face = np.take(vals, end, axis=axis)
            # sin(pi k) is zero only to rounding at x = 1
            assert np.abs(face).max() <= 1e-14 * scale


def test_fourier_free_is_not_boundary_zero():
    vals = fourier_free(DomainSpec(2, 16), seed=5).values
    assert np.abs(vals[0]).max() > 1e-3


def _loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter has loaded after running ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(msrecover.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = f"import sys\n{code}\nprint(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


SOLVER_STACK = ("scipy.linalg", "scipy.sparse.linalg")
# 3D n=16 m=4: 64 patches, measured, assembled and recovered
CHAIN_SETUP = """
import msrecover as M
spec = M.DomainSpec(3, 16)
part = M.build_partition(spec, 4)
funs = M.build_functionals(M.build_subsample(part, "cube", 0.5))
u = M.GridFunction.from_callable(spec, lambda x, y, z: x * (1 - x) * y * (1 - y) * z * (1 - z))
data = M.measure_all(u, funs)
op = M.assemble(spec, M.constant_coefficient(spec))
"""


class ImportRun(NamedTuple):
    """Code run in a fresh interpreter, after which exactly ``loaded`` of the
    modules ``probed`` are loaded."""

    code: str
    probed: tuple
    loaded: tuple = ()


IMPORT_RUNS = {
    # "scipy" itself is loaded by any of its submodules: the import loads numpy only
    "package": ImportRun("import msrecover", ("scipy", "scipy.sparse", "scipy.integrate",
                                              "scipy.special", "scipy.optimize")),
    # the benchmark's import line: the command-line module loads argparse and
    # the harness only when main runs, while the modules whose functions the
    # bench traces are loaded by the package itself
    "recovery": ImportRun(
        "from msrecover import cli, elliptic, grid, measurements, recovery, testfuncs",
        ("msrecover.harness", "argparse", "msrecover.weights", "msrecover.analytic"),
        ("msrecover.analytic", "msrecover.weights")),
    # piecewise-constant recovery solves nothing and its energy error is summed
    # cell by cell, so it never builds a sparse matrix and loads no scipy at all
    "pc-chain": ImportRun(CHAIN_SETUP + """
rec = M.pc_recover(data, part)
M.recovery_error_report(u, rec, {"basis": "pc"}, a=op, partition=part)
""", ("scipy", "scipy.sparse") + SOLVER_STACK),
    # the closed form sums per-axis cosines: it builds no matrix, factors
    # nothing and needs no FFT, so it loads no scipy module at all
    "sharp-constant": ImportRun("""
import msrecover as M
part = M.build_partition(M.DomainSpec(2, 32), 1)
assert M.sharp_constant_estimate(M.build_subsample(part, "cube", 0.25)) > 0.0
""", ("scipy", "scipy.fft", "scipy.sparse") + SOLVER_STACK),
    # measuring contracts node weights axis by axis, and the envelope is a closed
    # form: neither integrates, so no quadrature (or any scipy module) is loaded
    "envelope": ImportRun("""
import msrecover as M
spec = M.DomainSpec(2, 16)
funs = M.build_functionals(M.build_subsample(M.build_partition(spec, 4), "cube", 0.5))
assert M.measure_all(M.GridFunction.from_callable(spec, lambda x, y: x * y), funs).values.size
assert M.alpha_envelope("cube", 2, 1.0, 0.1, 0.05) > 0.0
""", ("scipy", "scipy.integrate", "scipy.sparse")),
    "ms-chain": ImportRun(CHAIN_SETUP + """
rec = M.constrained_minimizer(op, funs, data)
assert M.recovery_error_report(u, rec, {"basis": "ms"}, a=op).energy_stable
""", SOLVER_STACK, SOLVER_STACK),
}


@pytest.mark.parametrize("run", IMPORT_RUNS)
def test_a_fresh_interpreter_loads_what_the_run_needs(run):
    code, probed, loaded = IMPORT_RUNS[run]
    assert _loaded_after(code, probed) == str(sorted(loaded))


def test_every_source_file_parses_at_the_python_floor():
    """The package, its tests and the benchmark use no grammar newer than the
    ``requires-python`` floor, which this interpreter may be above."""
    root = pathlib.Path(__file__).resolve().parents[1]
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (root / "pyproject.toml").read_text(),
                      re.M)
    paths = [path for pattern in ("src/msrecover/*.py", "tests/*.py", "bench/**/*.py")
             for path in root.glob(pattern)]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


def test_every_test_and_table_the_readme_cites_exists():
    """Each backticked ``test_...`` id in README is a test function under tests/ or
    bench/tests/, each backticked ALL-CAPS name a name the code there or in the library
    uses, and each dotted package name (``harness.STUDIES``) resolves; no table row is
    cited by number or count, both of which shift as rows are added."""
    root = pathlib.Path(__file__).resolve().parents[1]
    trees = [(path.parts[-2] == "tests", ast.parse(path.read_text())) for pattern in (
        "tests/*.py", "bench/tests/*.py", "src/msrecover/*.py") for path in root.glob(pattern)]
    tests = {node.name for in_tests, tree in trees if in_tests for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    used = {getattr(node, field, None) for _, tree in trees for node in ast.walk(tree)
            for field in ("id", "arg", "attr", "name")}
    readme = (root / "README.md").read_text()
    ids, tables = (set(re.findall(f"`({name})`", readme))
                   for name in (r"test_\w+", "[A-Z][A-Z0-9_]+"))
    assert ids and tables  # the patterns still match README's backticked names
    assert sorted(ids - tests) == [] and sorted(tables - used) == []
    modules = "|".join(path.stem for path in root.glob("src/msrecover/[!_]*.py"))
    dotted = set(re.findall(rf"`((?:msrecover|{modules})(?:\.\w+)+)", readme))
    assert dotted  # the pattern still matches README's dotted names
    for name in sorted(dotted):  # raises ImportError or AttributeError on a stale name
        pkgutil.resolve_name(name if name.startswith("msrecover.") else f"msrecover.{name}")
    assert re.findall(r"\brows? \d+|\b\d+ rows\b", readme) == []


def test_the_readme_library_sketch_runs_as_written():
    """README's Python blocks, in order, in one fresh interpreter; its hand-run
    chain gives the same bits as ``recover`` and ``constrained_minimizer``."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) >= 2  # the pattern still matches the sketch
    check = """
from msrecover import constrained_minimizer
assert np.array_equal(recovered.values, recover(u, sub, op).values)
assert np.array_equal(recovered.values, constrained_minimizer(op, functionals, data).values)
"""
    _loaded_after("".join(blocks) + check, ())


# every center is a node; for m = 3 the centers are inexact in floating point
@pytest.mark.parametrize("dim,n,m", [(1, 48, 2), (2, 24, 2), (3, 12, 2),
                                     (1, 36, 3), (2, 18, 3), (3, 18, 3)])
def test_flattened_profile_plateau_is_the_center_point_value(dim, n, m):
    part = build_partition(DomainSpec(dim, n), m)
    vals = flattened_profile(part, seed=4).values.reshape(-1)
    sub = build_subsample(part, "point")
    values = measure_all(fourier_h01(part.spec, 4), build_functionals(sub)).values
    grids = np.meshgrid(*part.spec.node_coordinates(), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    # the centers in patch (row-major) order
    centers = itertools.product(*(sub.axis_intervals(axis)[0] for axis in range(dim)))
    for center, value in zip(centers, values):
        plateau = np.linalg.norm(pts - np.array(center), axis=1) <= 0.05 * part.H
        assert np.any(plateau)
        assert np.all(vals[plateau] == value)


# the anchor is pc_recover of the center values, which averages two patches on a
# face: the blend must be exactly 1 there, and from 0.25*H on everywhere
@pytest.mark.parametrize("dim,n,m", [(1, 48, 2), (2, 24, 2), (3, 12, 2),
                                     (1, 36, 3), (2, 18, 3), (3, 18, 3)])
def test_flattened_profile_is_the_base_field_from_a_quarter_patch_on(dim, n, m):
    part = build_partition(DomainSpec(dim, n), m)
    vals = flattened_profile(part, seed=4).values.reshape(-1)
    base = fourier_h01(part.spec, 4).values.reshape(-1)
    sub = build_subsample(part, "point")
    grids = np.meshgrid(*part.spec.node_coordinates(), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    centers = itertools.product(*(sub.axis_intervals(axis)[0] for axis in range(dim)))
    nearest = np.min([np.linalg.norm(pts - np.array(c), axis=1) for c in centers], axis=0)
    far = nearest >= 0.25 * part.H
    on_face = np.any(np.isclose((pts * m) % 1.0, 0.0), axis=1)
    assert np.all(far[on_face]) and not np.all(far)
    assert np.array_equal(vals[far], base[far])
