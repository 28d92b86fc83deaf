"""Two-level homogenization and the folded multiscale corrector.

A separable three-scale medium (x plays no role, two microscopic scales with
integer ratio) is homogenized level by level; the intermediate tensor carries
the closed form (2 + sin 2 pi y11) diag(sqrt3, 2) and the final tensors land
at diag(3, 4) / 3.  The folded corrector error E_ms then decreases along an
eps sweep with the ratio held fixed.
"""

import numpy as np

from maxhom import wave
from maxhom import corrector as corr
from maxhom.cells import homogenize
from maxhom.coeffs import CoefficientPart, CoefficientSpec, ScaleSchedule, fine_coefficients
from maxhom.mesh import DomainMesh

fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0},
       {"offset": 2.0, "amplitude": 1.0, "axis": 0}]
spec = CoefficientSpec(2, 2, a=CoefficientPart("separable-product", {"factors": fac}),
                       b=CoefficientPart("separable-product", {"factors": fac}),
                       alpha=1.0, beta=9.0)

hom = homogenize(spec, cell_N=32, slow_y=8)
b1 = hom.tensors[("b", 1)][0]
pts = np.stack(np.unravel_index(np.arange(64), (8, 8)), axis=1) / 8.0
f = 2.0 + np.sin(2 * np.pi * pts[:, 0])
print("level-1 tensor b1(y1) vs closed form (2 + sin 2 pi y11) diag(sqrt3, 2):")
print(f"  max error in b1_11: {np.abs(b1[:, 0, 0] - np.sqrt(3) * f).max():.2e}")
print(f"  max error in b1_22: {np.abs(b1[:, 1, 1] - 2.0 * f).max():.2e}")
print(f"final tensors: b0 = diag({hom.b0[0][0, 0]:.4f}, {hom.b0[0][1, 1]:.4f}) "
      f"(limit diag(3, 4)), a0 = {hom.a0[0, 0, 0]:.4f} (limit 3)")


def g1(x):
    return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                     np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)


forcing = wave.Forcing(
    lambda p: np.stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])] * 2, axis=1),
    lambda t: np.cos(2.0 * t))

print("\nfolded corrector error along eps = 1/4, 1/8 with r2 = 4:")
for eps in (1 / 4, 1 / 8):
    sched = ScaleSchedule(eps, (4,))
    eps2 = sched.epsilons[-1]
    mesh = DomainMesh(2, int(round(8 / eps2)))
    steps = int(round(0.125 * 4 / eps2))
    data = wave.WaveData(T=0.125, dt=eps2 / 4, g1=g1, f=forcing,
                         store_every=max(1, steps // 8), tol=1e-10)
    fine = wave.integrate(wave.setup_problem(mesh, data, fine_coefficients(spec, sched)))
    h0 = wave.integrate(wave.setup_problem(DomainMesh(2, 64), data, hom.coefficients()))
    ems = corr.multiscale_corrector_error(fine, h0, hom, sched, g1=g1)
    print(f"  eps = 1/{int(1/eps):<2d} (eps2 = 1/{int(1/eps2)}, fine N = {mesh.N}): "
          f"E_ms = {ems.max_ms:.4f}")
