"""The benchmark's workloads: inputs, the timed op, and the output check.

Every op calls msrecover's public functions through their modules, looked up
at call time, so the traced run's wrappers see the same calls.  Inputs are
made from the workload seed and the op index before the op's clock starts.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np

from msrecover import cli, elliptic, grid, measurements, recovery, testfuncs
from stats import CheckFailed, OpFailures

# output-check thresholds of the acceptance suite (criterion 01)
BIORTHOGONALITY_TOL = 1e-8
REMEASURE_TOL = 1e-8


def op_seed(seed: int, k: int) -> int:
    """Seed of op k's inputs, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Recover:
    """One-shot recovery of a seeded fourier_h01 field, as `msrecover recover` does it.

    partition -> subsample -> functionals -> measure -> assemble -> (Theta ->
    basis ->) recover -> error report, with a constant coefficient and cube
    subsamples.
    """

    def __init__(self, dim, n, m, r, basis):
        self.dim, self.n, self.m, self.r, self.basis = dim, n, m, r, basis

    def prepare(self, seed, k):
        return testfuncs.fourier_h01(grid.DomainSpec(self.dim, self.n), op_seed(seed, k))

    def run(self, u, span):
        part = grid.build_partition(u.spec, self.m)
        sub = grid.build_subsample(part, "cube", self.r)
        functionals = measurements.build_functionals(sub)
        data = measurements.measure_all(u, functionals)
        op = elliptic.assemble(u.spec, elliptic.constant_coefficient(u.spec))
        theta = basis = None
        if self.basis == "pc":
            rec = recovery.pc_recover(data, part)
        else:
            theta = recovery.build_theta(functionals, op)
            basis = recovery.multiscale_basis(theta)
            rec = recovery.ms_recover(data, basis)
        report = recovery.recovery_error_report(
            u, rec, {"basis": self.basis, "dim": self.dim, "h": sub.h, "H": part.H},
            a=op, partition=part)
        return SimpleNamespace(part=part, functionals=functionals, data=data, op=op,
                               theta=theta, basis=basis, rec=rec, report=report)

    def check(self, u, out) -> dict:
        if self.basis == "pc":
            self._check_pc(out)
        else:
            self._check_ms(out)
        report = out.report
        errors = [report.l2_error, report.energy_error, *report.per_patch_l2]
        if not np.all(np.isfinite(errors)):
            raise CheckFailed("non-finite error in the recovery report")
        counts = {"measurements.functionals": len(out.functionals),
                  "elliptic.nnz": int(out.op.matrix.nnz)}
        if out.basis is not None:
            counts["recovery.theta_size"] = int(out.theta.size)
            counts["recovery.basis_bytes"] = len(out.basis) * u.spec.num_nodes * 8
        return {"l2_error": report.l2_error, "counts": counts}

    @staticmethod
    def _check_ms(out):
        stack = out.basis.stack
        gram = np.empty((len(out.basis), len(out.functionals)))
        for i, phi in enumerate(out.functionals):
            gram[:, i] = stack[:, phi.node_indices] @ phi.node_weights
        dev = float(np.abs(gram - np.eye(len(out.basis))).max())
        if dev > BIORTHOGONALITY_TOL:
            raise CheckFailed(f"biorthogonality max|Phi psi - I| = {dev:.3e}")
        again = measurements.measure_all(out.rec, out.functionals).values
        dev = float(np.abs(again - out.data.values).max())
        if dev > REMEASURE_TOL:
            raise CheckFailed(f"re-measured recovery differs from the data by {dev:.3e}")

    @staticmethod
    def _check_pc(out):
        vals = out.rec.values
        for i in range(out.part.num_patches):
            inner = tuple(slice(s.start + 1, s.stop - 1) for s in out.part.patch_nodes(i))
            if not np.all(vals[inner] == out.data.values[i]):
                raise CheckFailed(f"patch {i} interior differs from its datum")

    def release(self, u):
        pass


class Studies:
    """One in-process pass of the six CLI studies at their default configs.

    Each study runs through ``msrecover.cli.main`` with the op's seed and a
    temporary ``--out``; all six run even if one raises.
    """

    names = ("converge", "rates", "critical", "degeneracy", "weighted", "pointwise")

    def __init__(self, scratch_dir):
        self.scratch_dir = scratch_dir

    def prepare(self, seed, k):
        os.makedirs(self.scratch_dir, exist_ok=True)
        return SimpleNamespace(seed=op_seed(seed, k),
                               out=tempfile.mkdtemp(prefix="studies-", dir=self.scratch_dir))

    def run(self, inputs, span):
        codes, causes, sink = {}, [], io.StringIO()
        for name in self.names:
            argv = [name, "--seed", str(inputs.seed), "--out", inputs.out]
            try:
                with span(f"harness.{name}"), redirect_stdout(sink), redirect_stderr(sink):
                    codes[name] = cli.main(argv)
            except Exception as exc:  # every study runs even if one fails
                causes.append(type(exc).__name__)
                if len(causes) == 1:
                    first = exc
        if causes:
            raise OpFailures(causes, f"{len(causes)} of {len(self.names)} studies raised; "
                                     f"first: {first!r}") from first
        return codes

    def check(self, inputs, codes) -> dict:
        bad = {name: code for name, code in codes.items() if code != 0}
        if bad:
            raise CheckFailed(f"studies exited non-zero: {bad}")
        reports, missing = {}, []
        for name in self.names:
            try:
                with open(os.path.join(inputs.out, f"{name}_report.json"), "rb") as fh:
                    reports[name] = hashlib.sha256(fh.read()).hexdigest()
            except FileNotFoundError:
                missing.append(name)
        if missing:
            raise CheckFailed(f"no _report.json written by: {missing}")
        # the reports are seeded and hold no timings or paths, so their digests
        # let the traced run show that tracing changed no study's output
        return {"reports": reports, "counts": {}}

    def release(self, inputs):
        shutil.rmtree(inputs.out, ignore_errors=True)


def make(name, scratch_dir):
    if name == "ms-2d":
        return Recover(dim=2, n=256, m=16, r=0.5, basis="ms")
    if name == "pc-3d":
        return Recover(dim=3, n=64, m=16, r=0.5, basis="pc")
    if name == "studies":
        return Studies(scratch_dir)
    raise ValueError(f"unknown workload {name!r}")
