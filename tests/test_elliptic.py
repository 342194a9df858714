import itertools
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from msrecover import elliptic
from msrecover.elliptic import (CoefficientField, assemble, checkerboard_coefficient,
                                constant_coefficient, energy_inner, l2_inner,
                                layered_coefficient, load_vector, lognormal_coefficient, solve)
from msrecover.errors import SolverError
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            cell_center_values, gradient_lp_norm, lp_norm)
from msrecover.measurements import build_functionals, measure
from msrecover.testfuncs import fourier_h01


@pytest.mark.parametrize("dim,n,values", [
    (1, 4, [1.0, 2.0, 3.0, 4.0]),
    (2, 16, 5e-324),  # in 2D the element scale a h^(d-2) is a itself
    (1, 256, 1e305),  # a h^-1 = 2.56e307 stays below the float range
])
def test_coefficient_field_accepts_its_values_and_spans_them(dim, n, values):
    spec = DomainSpec(dim, n)
    a = CoefficientField(spec, np.broadcast_to(values, spec.cell_shape))
    assert (a.a_min, a.a_max) == (np.min(values), np.max(values))


@pytest.mark.parametrize("dim,by_distance", [
    (1, [1.0, -1.0]),
    (2, [2.0 / 3.0, -1.0 / 6.0, -1.0 / 3.0]),
    (3, [1.0 / 3.0, 0.0, -1.0 / 12.0, -1.0 / 12.0]),
])
def test_reference_stiffness_is_the_exact_q1_element(dim, by_distance):
    # entry (i, j) depends only on how many coordinates corners i and j differ in,
    # and is the exact value rounded once: the 3D edge coupling is exactly 0
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    distance = np.abs(corners[:, None] - corners[None]).sum(axis=-1)
    expected = np.asarray(by_distance)[distance]
    assert np.array_equal(elliptic._reference_stiffness(dim), expected)


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_q1_spectrum_diagonalizes_the_1d_forms(n):
    # the assembled stiffness, the consistent mass and the midpoint mass (l2_inner
    # of the nodal hats) against the lumped mass L, on the cosine modes
    spec = DomainSpec(1, n)
    theta, consistent, midpoint, c, cos = elliptic.q1_spectrum(n)
    k = np.arange(n + 1)
    modes = cos[np.outer(k, k) % (2 * n)]  # node j, mode k
    hats = np.eye(n + 1)
    lumped = np.diag(np.r_[0.5, np.ones(n - 1), 0.5]) / n
    forms = {
        "stiffness": (assemble(spec, constant_coefficient(spec)).full_matrix.toarray(), theta),
        "consistent": ((np.diag(np.r_[2.0, np.full(n - 1, 4.0), 2.0]) + np.eye(n + 1, k=1)
                        + np.eye(n + 1, k=-1)) / (6 * n), consistent),
        "midpoint": (np.array([[l2_inner(GridFunction(spec, a), GridFunction(spec, b))
                                for b in hats] for a in hats]), midpoint),
    }
    for name, (form, eigenvalues) in forms.items():
        np.testing.assert_allclose(form @ modes, lumped @ modes * eigenvalues, rtol=0,
                                   atol=1e-13 * np.abs(form).max(), err_msg=name)
    np.testing.assert_allclose((modes * c).T @ lumped @ (modes * c), np.eye(n + 1),
                               rtol=0, atol=1e-13)


def _sines(*x):
    """prod_i sin(pi x_i), which -Laplace maps to d pi^2 times itself."""
    return np.prod(np.sin(np.pi * np.array(x)), axis=0)


def _unit(spec):
    """The a = 1 operator on ``spec``."""
    return assemble(spec, constant_coefficient(spec))


def _on(spec, f):
    return GridFunction.from_callable(spec, f)


def _unit_solve(spec, f):
    """Nodal values of the a = 1 Dirichlet solve against the nodal field f(x)."""
    return solve(_unit(spec), _on(spec, f)).values


def _sine_solve(spec):
    """The a = 1 solve whose exact solution is ``_sines``."""
    return _unit_solve(spec, lambda *x: spec.dim * np.pi**2 * _sines(*x))


def _poisson(spec):
    """The a = 1 solve of -u'' = 1 in 1D."""
    return _unit_solve(spec, np.ones_like)


def _parabola(x):
    """x(1 - x)/2, the solution of -u'' = 1 on (0, 1)."""
    return x * (1 - x) / 2


def _norm(norm, f, p):
    """``norm(u, p)`` of the nodal field u of f on the row's grid."""
    return lambda spec: norm(_on(spec, f), p)


class ClosedForm(NamedTuple):
    """``computed(DomainSpec(*grid))`` equals ``exact`` (a value, or a callable of
    the coordinates whose nodal values are meant) to ``rtol`` and ``atol``."""

    grid: tuple
    computed: Callable
    exact: object
    rtol: float = 0.0
    atol: float = 0.0


# every value of the operator and the grid norms known in closed form, each on
# the grid and at the tolerance of the single check it replaced
CLOSED_FORMS = {
    # the a = 1 Dirichlet stiffness: the 3-point stencil over h, the Q1 element's 8/3
    "stiffness-1d": ClosedForm((1, 4), lambda spec: _unit(spec).matrix.toarray(), 4.0 * np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]), rtol=1e-14),
    "stiffness-2d-one-node": ClosedForm((2, 2), lambda spec: _unit(spec).matrix.toarray(),
                                        [[8.0 / 3.0]], rtol=1e-14),
    # -u'' = 1: within 2h^2 at the nodes, 1/8 at x = 1/2, and exactly 0 at both ends
    "poisson-parabola": ClosedForm((1, 64), _poisson, _parabola, atol=2.0 / 64**2),
    "poisson-parabola-center": ClosedForm((1, 64), lambda spec: _poisson(spec)[32], 0.125,
                                          atol=1e-4),
    "poisson-parabola-ends": ClosedForm((1, 64), lambda spec: _poisson(spec)[[0, -1]], [0.0, 0.0]),
    "poisson-sines-2d": ClosedForm((2, 32), _sine_solve, _sines, atol=0.01),
    # int (1/2 - x)^2 = 1/12; int 1 = 1; int sin^2(pi x) = 1/2
    "energy-parabola": ClosedForm((1, 128), lambda spec: energy_inner(
        *[_on(spec, _parabola)] * 2, _unit(spec)), 1.0 / 12.0, atol=2e-4),
    "l2-one": ClosedForm((1, 256), lambda spec: l2_inner(*[_on(spec, np.ones_like)] * 2), 1.0,
                         rtol=1e-13),
    "l2-sine": ClosedForm((1, 256), lambda spec: l2_inner(*[_on(spec, _sines)] * 2), 0.5,
                          atol=1e-4),
    "lp-constant": ClosedForm((2, 8), _norm(lp_norm, lambda x, y: np.full_like(x, -3.0), 2.0),
                              3.0, rtol=1e-14),
    "lp-sine": ClosedForm((1, 256), _norm(lp_norm, _sines, 2.0), np.sqrt(0.5), atol=1e-3),
    "lp-linear-l1": ClosedForm((1, 256), _norm(lp_norm, lambda x: x, 1.0), 0.5, rtol=1e-12),
    "gradient-constant": ClosedForm(
        (1, 64), _norm(gradient_lp_norm, lambda x: np.full_like(x, 4.0), 2.0), 0.0),
    "gradient-linear": ClosedForm((1, 64), _norm(gradient_lp_norm, lambda x: x, 2.0), 1.0,
                                  rtol=1e-12),
    "gradient-weighted": ClosedForm((1, 8), lambda spec: gradient_lp_norm(
        _on(spec, lambda x: x), 2.0, weight=constant_coefficient(spec, 4.0)), 2.0),
    "gradient-sine": ClosedForm((1, 256), _norm(gradient_lp_norm, _sines, 2.0),
                                np.pi / np.sqrt(2.0), atol=1e-2),
    # the bilinear interpolant of x + 2y at the four cell centers
    "cell-centers-bilinear": ClosedForm((2, 2), lambda spec: cell_center_values(
        _on(spec, lambda x, y: x + 2 * y)), [[0.75, 1.75], [1.25, 2.25]], rtol=1e-6),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_value(name):
    row = CLOSED_FORMS[name]
    spec = DomainSpec(*row.grid)
    exact = _on(spec, row.exact).values if callable(row.exact) else row.exact
    np.testing.assert_allclose(row.computed(spec), exact, rtol=row.rtol, atol=row.atol,
                               strict=True)


# errors that shrink like h^2: each halving of h divides them by 3 to 5
H2_SEQUENCES = {
    # the nodal error of the 1D sine solve at n = 32, 64, 128
    "solve-sine": lambda: [np.abs(_sine_solve(spec) - _on(spec, _sines).values).max()
                           for spec in map(DomainSpec, (1, 1, 1), (32, 64, 128))],
    # the midpoint rule's ||sin(pi x)||_2: its increments from n = 16 to 128
    "lp-norm-sine": lambda: np.abs(np.diff([lp_norm(_on(DomainSpec(1, n), _sines), 2.0)
                                            for n in (16, 32, 64, 128)])),
}


@pytest.mark.parametrize("sequence", H2_SEQUENCES)
def test_second_order_in_h(sequence):
    errors = np.asarray(H2_SEQUENCES[sequence]())
    ratios = errors[:-1] / errors[1:]
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), ratios


def test_stiffness_operator_reads_its_grid_off_its_coefficient():
    spec = DomainSpec(2, 6)
    a = checkerboard_coefficient(spec, 10.0)
    op = elliptic.StiffnessOperator(a)
    assert op.spec is a.spec
    nodes = np.indices(spec.node_shape).reshape(spec.dim, -1)
    np.testing.assert_array_equal(
        op.interior_indices, np.flatnonzero(np.all((nodes > 0) & (nodes < spec.n), axis=0)))
    ref = assemble(spec, a)
    assert (op.matrix != ref.matrix).nnz == 0
    f = fourier_h01(spec, 1)
    np.testing.assert_array_equal(solve(op, f).values, solve(ref, f).values)


def test_l2_inner_reproduces_measurement():
    # the measurement equals integrating against the normalized indicator density
    spec = DomainSpec(2, 16)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 0.5)
    phi = build_functionals(sub)[2]
    rng = np.random.default_rng(9)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    centers = np.meshgrid(*spec.cell_center_coordinates(), indexing="ij")
    inside = np.ones(spec.cell_shape, dtype=bool)
    for axis, k in enumerate(np.unravel_index(2, (part.m,) * spec.dim)):
        lo, hi = sub.axis_intervals(axis)
        inside &= (centers[axis] > lo[k]) & (centers[axis] < hi[k])
    density_cells = inside / sub.h**2
    # evaluate sum over cells of u_c * density * vol, the midpoint pairing
    val = float(np.sum(cell_center_values(u) * density_cells) * spec.cell_volume)
    assert measure(u, phi) == pytest.approx(val, abs=1e-12)


def test_cg_stops_at_a_tenth_of_the_backward_tolerance(monkeypatch):
    # the first iterate whose residual meets 0.1*BACKWARD_TOL*||b|| is returned,
    # and the one before it does not meet it
    tol = 1e-4  # far above rounding, where the recursive residual is the true one
    monkeypatch.setattr(elliptic, "BACKWARD_TOL", tol)
    spec = DomainSpec(2, 16)
    op = assemble(spec, lognormal_coefficient(spec, sigma=1.0, seed=3))
    b = load_vector(GridFunction.constant(spec, 1.0))[op.interior_indices]
    for maxiter in range(1, 200):
        try:
            x = elliptic._jacobi_cg(op.matrix, b, maxiter)
            break
        except SolverError as exc:
            stalled = exc
    assert maxiter > 1 and f"target {0.1 * tol:.1e}" in str(stalled)
    before = float(re.search(r"relative residual (\S+),", str(stalled)).group(1))
    assert before > 0.1 * tol
    assert np.linalg.norm(op.matrix @ x - b) <= 0.1 * tol * np.linalg.norm(b)


def test_each_form_is_factored_once_per_operator(monkeypatch):
    import scipy.sparse.linalg

    calls = []
    factor = scipy.sparse.linalg.splu

    def counted(matrix):
        calls.append(matrix.shape)
        return factor(matrix)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    spec = DomainSpec(2, 8)
    op = assemble(spec, lognormal_coefficient(spec, sigma=1.0, seed=3))
    rng = np.random.default_rng(5)
    for _ in range(3):
        op.solve_interior(rng.standard_normal(op.num_interior))
    assert calls == [(op.num_interior,) * 2]
    for _ in range(3):
        b = rng.standard_normal(spec.num_nodes)
        op.solve_neumann(b - b.mean())
    assert calls == [(op.num_interior,) * 2, (spec.num_nodes,) * 2]


# moderate contrasts, where a dense solve is an oracle to 1e-8
COEFFICIENTS = {
    "constant": lambda spec: constant_coefficient(spec),
    "checkerboard-100": lambda spec: checkerboard_coefficient(spec, 100.0),
    "lognormal-1": lambda spec: lognormal_coefficient(spec, sigma=1.0, seed=7),
}
# every coefficient a solve path must meet its bound on
SOLVE_COEFFICIENTS = {
    **COEFFICIENTS,
    "checkerboard-1e12": lambda spec: checkerboard_coefficient(spec, 1e12),
    "layered-1e6": lambda spec: layered_coefficient(spec, 1e6),
    "lognormal-10": lambda spec: lognormal_coefficient(spec, sigma=10.0, seed=1),
}
GRIDS = [(1, 32), (2, 16), (3, 6)]
LU_GRIDS = GRIDS + [(1, 512), (2, 48), (3, 12)]  # a path with a factor also runs these
FACTORS = ("_lu", "_lu_pinned")  # every factor an operator may keep


# each solver path as name: (setup(monkeypatch), which sends solves down it; the
# bound on its normwise backward error; the form it solves, interior (Dirichlet)
# or natural (zero-sum right-hand sides, x[0] pinned to 0); the factors it keeps);
# a new path is one line, a new way for a solve to fail one SOLVE_FAILURES row
SOLVE_PATHS = {
    "direct": (lambda mp: None, 1e-13, "interior", ("_lu",)),
    "cg": (lambda mp: mp.setattr(elliptic, "DIRECT_SOLVE_MAX_NODES", 0), elliptic.BACKWARD_TOL,
           "interior", ()),
    "neumann": (lambda mp: None, elliptic.BACKWARD_TOL, "natural", ("_lu_pinned",)),
}


def _system(op, form):
    """(matrix, solve, right-hand side map) of ``form`` on ``op``."""
    if form == "natural":
        return op.full_matrix, op.solve_neumann, lambda b: b - b.mean()
    return op.matrix, op.solve_interior, lambda b: b


def _dense_solve(matrix, rhs, form):
    """The solutions of ``form`` for the columns of ``rhs``, by a dense LU."""
    dense = matrix.toarray()
    if form == "interior":
        return np.linalg.solve(dense, rhs)
    # K + c 11^T is nonsingular and, for zero-sum b, solves K y = b with sum(y) = 0
    y = np.linalg.solve(dense + np.abs(dense).sum(axis=1).max() / len(dense), rhs)
    return y - y[0]


@pytest.mark.parametrize("coefficient", SOLVE_COEFFICIENTS)
@pytest.mark.parametrize("path,dim,n", [(name, *grid) for name, (*_, factors) in SOLVE_PATHS.items()
                                        for grid in (LU_GRIDS if factors else GRIDS)])
def test_solve_meets_its_backward_error(monkeypatch, path, dim, n, coefficient):
    setup, tol, form, factors = SOLVE_PATHS[path]
    setup(monkeypatch)
    spec = DomainSpec(dim, n)
    op = assemble(spec, SOLVE_COEFFICIENTS[coefficient](spec))
    K, solve, rhs_map = _system(op, form)
    size = K.shape[0]
    assert np.array_equal(solve(np.zeros(size)), np.zeros(size))  # zero in, zero out
    rng = np.random.default_rng(dim)
    scales = np.exp(10.0 * rng.standard_normal(size))  # a badly scaled right-hand side too
    rhs = np.stack([rhs_map(rng.standard_normal(size)),
                    rhs_map(scales * rng.standard_normal(size))], axis=1)
    dense = _dense_solve(K, rhs, form) if coefficient in COEFFICIENTS else None
    norm, norm_k = np.linalg.norm, np.abs(K).sum(axis=1).max()
    for j, b in enumerate(rhs.T):
        x = solve(b)
        res = norm(K @ x - b)
        pin = abs(x[0]) if form == "natural" else 0.0
        # the normwise backward error; the pin holds as well as the equations do
        assert max(res, pin) <= tol * (norm(b) + norm_k * norm(x))
        if dense is not None:  # a moderate contrast: x is the dense solution
            assert norm(x - dense[:, j]) <= 1e-8 * norm(dense[:, j])
            assert res <= 1e-8 * norm(b) and pin <= tol * norm(x)
    assert [f for f in FACTORS if f in vars(op)] == list(factors)  # this path ran


def _singular(matrix):
    raise RuntimeError("Factor is exactly singular")


def _patch(*target_and_value):
    return lambda mp, op: mp.setattr(*target_and_value)


def _stub(factor):  # a factor whose solves are NaN
    return lambda mp, op: setattr(op, factor, SimpleNamespace(solve=lambda b: b * np.nan))


class SolveFailure(NamedTuple):
    """A solve down SOLVE_PATHS[``path``] that raises ``SolverError`` starting ``start``
    once ``breaks(monkeypatch, op)`` ran.  Its right-hand side is standard normal,
    mapped by the path's form and by ``rhs``.  The operator keeps ``kept``."""

    path: str
    start: str
    breaks: Callable = lambda mp, op: None
    grid: tuple = (2, 8)
    coefficient: str = "constant"  # of SOLVE_COEFFICIENTS
    rhs: Callable = lambda b: b
    kept: tuple = ()


BACKWARD = "solve backward error"
NAN = BACKWARD + " nan"  # a NaN residual
SINGULAR = "sparse LU factorization failed: Factor is exactly singular"
CG_CAP = "conjugate gradients did not converge in 4000 iterations"
CG_STALL = "conjugate gradients stagnated: no new least residual in 4000 iterations"
SOLVE_FAILURES = [
    # a NaN factor or iterate on each path: a stub is kept, never a real factor
    SolveFailure("direct", NAN, _stub("_lu"), kept=("_lu",)),
    SolveFailure("cg", NAN, _patch(elliptic, "_jacobi_cg", lambda K, b, maxiter: b * np.nan)),
    SolveFailure("neumann", "Neumann " + NAN, _stub("_lu_pinned"), kept=("_lu_pinned",)),
    # SuperLU refuses the interior or the pinned matrix: no factor is kept
    SolveFailure("direct", SINGULAR, _patch("scipy.sparse.linalg.splu", _singular)),
    SolveFailure("neumann", SINGULAR, _patch("scipy.sparse.linalg.splu", _singular)),
    # a bound below double-precision rounding
    SolveFailure("direct", BACKWARD, _patch(elliptic, "BACKWARD_TOL", 1e-30),
                 coefficient="lognormal-1", kept=("_lu",)),
    # CG runs out of its max(4000, unknowns) iterations at contrast 1 and 1.7e25
    SolveFailure("cg", CG_CAP, grid=(1, 12000)),
    SolveFailure("cg", CG_CAP, grid=(1, 512), coefficient="lognormal-10"),
    # a right-hand side of nonzero sum: the natural form has no solution
    SolveFailure("neumann", "Neumann " + BACKWARD, rhs=lambda b: b + 1.0, kept=("_lu_pinned",)),
    # a cap of 19,999 iterations, but the residual's least value comes in the first
    # few: 4000 iterations later CG stops
    SolveFailure("cg", CG_STALL, grid=(1, 20000), coefficient="lognormal-10"),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=f"{row.path}-{i}")
                                 for i, row in enumerate(SOLVE_FAILURES)])
def test_a_failed_solve_is_a_solver_error(monkeypatch, row):
    setup, _, form, _ = SOLVE_PATHS[row.path]
    setup(monkeypatch)
    spec = DomainSpec(*row.grid)
    op = assemble(spec, SOLVE_COEFFICIENTS[row.coefficient](spec))
    K, solve, rhs_map = _system(op, form)
    b = row.rhs(rhs_map(np.random.default_rng(0).standard_normal(K.shape[0])))
    row.breaks(monkeypatch, op)
    with pytest.raises(SolverError) as exc:
        solve(b)
    assert str(exc.value).startswith(row.start), exc.value
    assert [f for f in FACTORS if f in vars(op)] == list(row.kept)


def _count_assembly(monkeypatch):
    """Count the builds of the sparse natural form from here on."""
    calls = []
    build = elliptic._assemble_full

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(elliptic, "_assemble_full", counted)
    return calls


def _eager_assembly(spec, a):
    """Reference COO -> CSR assembly of (natural form, Dirichlet form), built at once."""
    from scipy.sparse import coo_matrix

    dim = spec.dim
    kref = elliptic._reference_stiffness(dim)
    corners = list(itertools.product((0, 1), repeat=dim))
    base = np.indices(spec.cell_shape).reshape(dim, -1)
    ids = np.stack([np.ravel_multi_index(base + np.asarray(c)[:, None], spec.node_shape)
                    for c in corners], axis=1)
    scale = a.values.reshape(-1) * spec.spacing ** (dim - 2)
    rows = np.repeat(ids, len(corners), axis=1).reshape(-1)
    cols = np.tile(ids, (1, len(corners))).reshape(-1)
    vals = (scale[:, None] * kref.reshape(-1)[None, :]).reshape(-1)
    nn = spec.num_nodes
    full = coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()
    full.sum_duplicates()
    nodes = np.indices(spec.node_shape).reshape(dim, -1)
    interior = np.flatnonzero(np.all((nodes > 0) & (nodes < spec.n), axis=0))
    return full, full[interior][:, interior].tocsr()


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 12), (3, 6)])
@pytest.mark.parametrize("coefficient", COEFFICIENTS)
def test_operator_forms_are_one_spd_galerkin_operator(monkeypatch, dim, n, coefficient):
    """Every form is one SPD Galerkin operator: a new way to build or apply it (a
    stencil-built CSR, a matrix-free apply) runs this battery."""
    spec = DomainSpec(dim, n)
    a = COEFFICIENTS[coefficient](spec)
    op = assemble(spec, a)
    builds = _count_assembly(monkeypatch)
    rng = np.random.default_rng(dim)
    u, v = (GridFunction(spec, rng.standard_normal(spec.node_shape)) for _ in range(2))
    uv = energy_inner(u, v, op)
    assert energy_inner(v, u, op) == pytest.approx(uv, rel=1e-14)
    z = GridFunction.constant(spec, 2.5)
    for w in (v, z):  # the constants are the natural form's null space
        assert energy_inner(z, w, op) == pytest.approx(0.0, abs=1e-12 * a.a_max)
    # positive off the constants, and between a_min and a_max times the a = 1 energy
    e1 = energy_inner(u, u, _unit(spec))
    ea = energy_inner(u, u, op)
    assert 0.0 < ea and a.a_min * e1 <= ea <= a.a_max * e1
    assert builds == []  # the cellwise form needs no matrix
    full = op.full_matrix
    for x, y in ((u, v), (u, u), (v, v)):
        ref = x.values.reshape(-1) @ (full @ y.values.reshape(-1))
        assert abs(energy_inner(x, y, op) - ref) <= 1e-12 * abs(ref)
    # the Dirichlet form: an exactly symmetric, positive definite M-matrix, linear in a
    K = op.matrix
    assert (K != K.T).nnz == 0
    dense = K.toarray()
    assert np.all(dense[~np.eye(len(dense), dtype=bool)] <= 0.0)
    np.linalg.cholesky(dense)  # raises unless positive definite
    tripled = assemble(spec, CoefficientField(spec, 3.0 * a.values)).matrix.toarray()
    np.testing.assert_allclose(tripled, 3.0 * dense, rtol=1e-14)
    # Galerkin with the midpoint product, and a nonnegative source gives u >= 0
    f = GridFunction(spec, rng.random(spec.node_shape))
    u_f = solve(op, f)
    w = GridFunction(spec, op.embed_interior(rng.standard_normal(op.num_interior))
                     .reshape(spec.node_shape))
    assert abs(energy_inner(u_f, w, op) - l2_inner(f, w)) <= 1e-9
    assert u_f.values.min() >= 0.0


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 5)])
@pytest.mark.parametrize("coefficient", COEFFICIENTS)
def test_lazy_matrices_equal_an_eager_assembly(monkeypatch, dim, n, coefficient):
    spec = DomainSpec(dim, n)
    a = COEFFICIENTS[coefficient](spec)
    eager = _eager_assembly(spec, a)
    builds = _count_assembly(monkeypatch)
    op = assemble(spec, a)
    assert builds == []  # assemble builds nothing; the first matrix use does
    for lazy, ref in zip((op.full_matrix, op.matrix), eager):
        assert lazy.format == "csr" and lazy.shape == ref.shape
        np.testing.assert_array_equal(lazy.indptr, ref.indptr)
        np.testing.assert_array_equal(lazy.indices, ref.indices)
        assert np.all(lazy.data == ref.data)
    assert op.matrix is op.matrix and op.full_matrix is op.full_matrix
    assert builds == [1]  # built once, then cached
