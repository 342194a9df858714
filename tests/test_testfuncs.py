import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import msrecover
from msrecover.grid import DomainSpec, build_partition, build_subsample
from msrecover.measurements import build_functionals, measure_all
from msrecover.testfuncs import flattened_profile, fourier_free, fourier_h01

SPECS = [(1, 64), (2, 32), (3, 12)]
SEEDS = [0, 1, 2024]


def _modes(dim, kmax):
    return np.array(list(itertools.product(range(kmax + 1), repeat=dim)))


def reference_fourier_h01(spec, seed, kmax=3):
    """Meshgrid reference: every sine factor evaluated on the full node grid."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*spec.node_coordinates(), indexing="ij")
    vals = np.zeros(spec.node_shape)
    for k in _modes(spec.dim, kmax):
        if np.any(k == 0):
            continue
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        term = np.ones(spec.node_shape)
        for axis in range(spec.dim):
            term = term * np.sin(np.pi * k[axis] * grids[axis])
        vals += c * term
    return vals


def reference_fourier_free(spec, seed, kmax=3):
    """Meshgrid reference: draws before the constant-mode skip, as the generator must."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*spec.node_coordinates(), indexing="ij")
    vals = np.zeros(spec.node_shape)
    for k in _modes(spec.dim, kmax):
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        if np.all(k == 0):
            continue
        term = np.ones(spec.node_shape)
        for axis in range(spec.dim):
            term = term * np.cos(np.pi * k[axis] * grids[axis])
        vals += c * term
    return vals


@pytest.mark.parametrize("dim,n", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kmax", [1, 3])
def test_fourier_h01_matches_meshgrid_reference(dim, n, seed, kmax):
    spec = DomainSpec(dim, n)
    got = fourier_h01(spec, seed, kmax).values
    assert got.shape == spec.node_shape
    assert np.array_equal(got, reference_fourier_h01(spec, seed, kmax))


@pytest.mark.parametrize("dim,n", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kmax", [1, 3])
def test_fourier_free_matches_meshgrid_reference(dim, n, seed, kmax):
    spec = DomainSpec(dim, n)
    got = fourier_free(spec, seed, kmax).values
    assert got.shape == spec.node_shape
    assert np.array_equal(got, reference_fourier_free(spec, seed, kmax))


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


def test_package_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(msrecover.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, msrecover; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.special', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# every center is a node; for m = 3 the centers are inexact in floating point
@pytest.mark.parametrize("dim,n,m", [(1, 48, 2), (2, 24, 2), (3, 12, 2),
                                     (1, 36, 3), (2, 18, 3), (3, 18, 3)])
def test_flattened_profile_plateau_is_the_center_point_value(dim, n, m):
    part = build_partition(DomainSpec(dim, n), m)
    vals = flattened_profile(part, seed=4).values.reshape(-1)
    point = build_functionals(build_subsample(part, "point"))
    centers = measure_all(fourier_h01(part.spec, 4), point).values
    grids = np.meshgrid(*part.spec.node_coordinates(), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    for i in range(part.num_patches):
        plateau = np.linalg.norm(pts - part.center(i), axis=1) <= 0.05 * part.H
        assert np.any(plateau)
        assert np.all(vals[plateau] == centers[i])
