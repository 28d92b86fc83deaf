"""First-order corrector errors against a fine-scale run, with the rate fit.

A reduced version of the layered two-scale benchmark: for each eps the fine
problem resolves the microstructure (h = eps/16 here), the homogenized run
provides du0/dt and curl u0, and the corrector fields

    du0/dt + grad_y w(x/eps) (du0/dt - g1),   (1 + curl_y N(x/eps)) curl u0

are compared in L2(D) per stored stamp.  The fitted slope sits near the
theoretical 1/2.  Runs in about a minute; the full-size study is driven
by the `sweep` CLI mode (see README).
"""

import numpy as np

from maxhom import wave
from maxhom import corrector as corr
from maxhom.cells import homogenize
from maxhom.coeffs import CoefficientPart, CoefficientSpec, ScaleSchedule, fine_coefficients
from maxhom.harness import fit_slope
from maxhom.mesh import DomainMesh


def g1(x):
    return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                     np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)


forcing = wave.Forcing(
    lambda p: np.stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])] * 2, axis=1),
    lambda t: np.cos(2.0 * t))

lay = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}
spec = CoefficientSpec(2, 1, a=CoefficientPart("layered", dict(lay)),
                       b=CoefficientPart("layered", dict(lay)), alpha=1.0, beta=3.0)
hom = homogenize(spec, cell_N=64)
print(f"homogenized tensors: a0 = {hom.a0[0, 0, 0]:.6f}, "
      f"b0 = diag({hom.b0[0][0, 0]:.6f}, {hom.b0[0][1, 1]:.6f})")

pairs = []
for eps in (1 / 4, 1 / 8, 1 / 16):
    sched = ScaleSchedule(eps)
    fine_mesh = DomainMesh(2, int(round(16 / eps)))
    steps = int(round(0.25 * 8 / eps))
    data = wave.WaveData(T=0.25, dt=eps / 8, g1=g1, f=forcing,
                         store_every=max(1, steps // 8), tol=1e-11)
    fine = wave.integrate(wave.setup_problem(fine_mesh, data, fine_coefficients(spec, sched)))
    hmesh = DomainMesh(2, 64)
    h0 = wave.integrate(wave.setup_problem(hmesh, data, hom.coefficients()))
    field = corr.reconstruct_corrector(h0, hom, sched, g1=g1, fine_mesh=fine_mesh)
    errs = corr.corrector_error(fine, field)
    ems = corr.multiscale_corrector_error(fine, h0, hom, sched, g1=g1)
    pairs.append((eps, errs.total))
    print(f"eps = 1/{int(1/eps):<3d} E_vel = {errs.max_vel:.4f}  "
          f"E_curl = {errs.max_curl:.4f}  total = {errs.total:.4f}  "
          f"E_ms = {ems.max_ms:.4f}")

print(f"fitted slope of E_vel + E_curl vs eps: {fit_slope(pairs):.3f} "
      f"(corrector bound predicts 1/2)")
