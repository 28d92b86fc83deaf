"""Spans and counts around the public functions of each maxhom module.

The wrappers are installed from outside the program, at the names its code
looks up at call time: `harness` binds `homogenize` by name, `cells` calls
its cell solvers and level tensors as module globals, and every other module
calls `fem.<name>`, `wave.<name>` and `corrector.<name>` through the module.
Spans are kept in memory; `Tracer.metrics` turns them into the per-layer
metrics once the run has ended.
"""

import functools
import time
from collections import Counter


class _CountingMatrix:
    """Sparse matrix stand-in that counts products `A @ x`."""

    def __init__(self, A, tracer):
        self.A = A
        self.tracer = tracer
        self.nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes

    def __matmul__(self, x):
        counts = self.tracer.counts
        counts["fem.matvecs"] += 1
        # computed traffic of one CSR product: the matrix, x read once, y written
        counts["fem.matvec_bytes"] = max(counts["fem.matvec_bytes"],
                                         self.nbytes + 2 * x.nbytes)
        return self.A @ x


class _CountingSystem:
    """What `solve_spd` reads of a SparseSymSystem, with a counting operator."""

    def __init__(self, system, tracer):
        self.system = system
        self.n = system.n
        self.nullspace = system.nullspace
        self.A = _CountingMatrix(system.A, tracer)

    @property
    def diag(self):
        return self.system.diag  # keeps the original's cached diagonal


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.open_layers = Counter()

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(tracer, args, kwargs, result) runs after it."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            self.open_layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
                self.open_layers[layer] -= 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def calls(self):
        return Counter(s[0] for s in self.spans)

    def _times(self):
        """Total and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own = Counter(), Counter()
        for (name, t0, t1, _), c in zip(self.spans, child):
            total[name] += t1 - t0
            own[name] += t1 - t0 - c
        return total, own

    def metrics(self, out_bytes):
        """Per-layer metric values {name: value} of the finished run."""
        total, own = self._times()
        calls = self.calls()
        c = self.counts

        def tsum(*names):
            return sum(total[n] for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        assemble = ("fem.assemble_scalar_stiffness", "fem.assemble_curl_stiffness",
                    "fem.assemble_vector_mass", "fem.assemble_load")
        evals = ("fem.eval_edge_field", "fem.eval_edge_curl", "fem.eval_nodal_gradient",
                 "fem.eval_nodal_field")
        solves = ("cells.solve_scalar_cell", "cells.solve_curl_cell")
        writers = ("harness.export_text", "harness.write_csv", "harness.write_summary_json",
                   "harness.export_trajectory_csv", "harness.export_snapshots")
        stamp_s = tsum("corrector.corrector_error", "corrector.multiscale_corrector_error")
        integrate_s = total["wave.integrate"]
        return {
            "cells.homogenize_s": total["cells.homogenize"],
            "cells.level_tensor_s": tsum("cells.scalar_level_tensor",
                                         "cells.curl_level_tensor"),
            "cells.cell_solves": sum(calls[n] for n in solves),
            "cells.cell_solve_s": tsum(*solves),
            "fem.solve_calls": calls["fem.solve_spd"],
            "fem.solve_s": total["fem.solve_spd"],
            "fem.matvecs": c["fem.matvecs"],
            "fem.matvecs_per_solve": ratio(c["fem.matvecs"], calls["fem.solve_spd"]),
            "fem.matvec_bytes": c["fem.matvec_bytes"],
            "fem.assemble_s": tsum(*assemble),
            "fem.assemble_s_per_mcell": ratio(tsum(*assemble), c["fem.assembled_cells"] / 1e6),
            "fem.eval_calls": sum(calls[n] for n in evals),
            "fem.eval_points": c["fem.eval_points"],
            "fem.eval_s": tsum(*evals),
            "wave.setup_s": total["wave.setup_problem"],
            "wave.integrate_s": integrate_s,
            "wave.integrate_self_s": own["wave.integrate"],
            "wave.steps": c["wave.steps"],
            "wave.step_ms": 1e3 * ratio(integrate_s, c["wave.steps"]),
            "wave.dof_steps_per_s": ratio(c["wave.dof_steps"], integrate_s),
            "corrector.folded_s": total["corrector.multiscale_corrector_error"],
            "corrector.reconstruct_s": total["corrector.reconstruct_corrector"],
            "corrector.error_s": total["corrector.corrector_error"],
            "corrector.stamps": c["corrector.stamps"],
            "corrector.stamp_ms": 1e3 * ratio(stamp_s, c["corrector.stamps"]),
            "corrector.eval_calls": c["corrector.eval_calls"],
            "corrector.eval_points_per_stamp_point": ratio(c["corrector.eval_points"],
                                                           c["corrector.stamp_points"]),
            "mesh.cellmesh_builds": c["mesh.cellmesh_builds"],
            "mesh.locate_calls": calls["mesh.locate"],
            "mesh.locate_s": total["mesh.locate"],
            "coeffs.eval_calls": calls["coeffs.eval_a"] + calls["coeffs.eval_b"],
            "coeffs.eval_s": tsum("coeffs.eval_a", "coeffs.eval_b"),
            "harness.write_s": tsum(*writers),
            "harness.output_bytes": out_bytes,
        }


# count hooks: (tracer, args, kwargs, result)

def _count_assembly(tr, args, kwargs, result):
    tr.counts["fem.assembled_cells"] += args[0].n_cells


def _count_eval(tr, args, kwargs, result):
    tr.counts["fem.eval_points"] += len(result)
    if tr.open_layers["corrector"]:
        tr.counts["corrector.eval_calls"] += 1
        tr.counts["corrector.eval_points"] += len(result)


def _count_integrate(tr, args, kwargs, result):
    problem = args[0]
    steps = problem.data.n_steps
    tr.counts["wave.steps"] += steps
    tr.counts["wave.dof_steps"] += steps * problem.M.n


def _count_stamps(tr, stamps, mesh, rule):
    tr.counts["corrector.stamps"] += stamps
    tr.counts["corrector.stamp_points"] += stamps * mesh.n_cells * rule ** mesh.d


def _count_corrector_error(tr, args, kwargs, result):
    fine_traj, corr = args[:2]
    _count_stamps(tr, len(corr.times), fine_traj.mesh, corr.rule)


def _count_folded(tr, args, kwargs, result):
    fine_traj = args[0]
    _count_stamps(tr, fine_traj.n_snaps, fine_traj.mesh, kwargs.get("rule", 2))


def install(tr):
    """Wrap the public entry points of every pipeline module in spans."""
    from maxhom import cells, coeffs, corrector, fem, harness, mesh, wave

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tr.wrap(name, getattr(owner, attr), count))

    patch(harness, "homogenize", "cells.homogenize")
    for f in ("solve_scalar_cell", "solve_curl_cell", "scalar_level_tensor",
              "curl_level_tensor"):
        patch(cells, f, "cells." + f)

    solve = fem.solve_spd

    @functools.wraps(solve)
    def counted_solve(system, *args, **kwargs):
        return solve(_CountingSystem(system, tr), *args, **kwargs)

    fem.solve_spd = tr.wrap("fem.solve_spd", counted_solve)
    for f in ("assemble_scalar_stiffness", "assemble_curl_stiffness",
              "assemble_vector_mass", "assemble_load"):
        patch(fem, f, "fem." + f, _count_assembly)
    for f in ("eval_edge_field", "eval_edge_curl", "eval_nodal_gradient", "eval_nodal_field"):
        patch(fem, f, "fem." + f, _count_eval)

    patch(wave, "setup_problem", "wave.setup_problem")
    patch(wave, "integrate", "wave.integrate", _count_integrate)

    patch(corrector, "reconstruct_corrector", "corrector.reconstruct_corrector")
    patch(corrector, "corrector_error", "corrector.corrector_error", _count_corrector_error)
    patch(corrector, "multiscale_corrector_error", "corrector.multiscale_corrector_error",
          _count_folded)

    patch(mesh.CellMesh, "locate", "mesh.locate")
    patch(mesh.DomainMesh, "locate", "mesh.locate")
    build = cells.HomogenizationResult.mesh.fget

    def counted_mesh(self):
        tr.counts["mesh.cellmesh_builds"] += 1
        return build(self)

    cells.HomogenizationResult.mesh = property(counted_mesh)

    patch(coeffs.CoefficientSpec, "eval_a", "coeffs.eval_a")
    patch(coeffs.CoefficientSpec, "eval_b", "coeffs.eval_b")

    patch(cells.HomogenizationResult, "export_text", "harness.export_text")
    patch(harness.ConvergenceReport, "write_csv", "harness.write_csv")
    patch(harness.ConvergenceReport, "write_summary_json", "harness.write_summary_json")
    patch(wave, "export_trajectory_csv", "harness.export_trajectory_csv")
    patch(wave, "export_snapshots", "harness.export_snapshots")
