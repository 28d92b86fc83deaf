"""Time-domain edge-element wave solves: cavity-mode accuracy and conservation.

The constant-coefficient cavity mode u = cos(sqrt2 pi t) g0 is an exact
solution with vanishing tangential trace; the run shows first-order spatial
convergence under simultaneous (h, dt) halving and the exact discrete energy
conservation of the average-acceleration integrator.
"""

import numpy as np

from maxhom import fem, wave
from maxhom.cells import homogenize
from maxhom.coeffs import CoefficientPart, CoefficientSpec
from maxhom.mesh import DomainMesh

OMEGA = np.pi * np.sqrt(2.0)


def mode(x):
    return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                     np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)


spec = CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": 1.0}),
                       b=CoefficientPart("constant", {"value": 1.0}),
                       alpha=0.5, beta=2.0)
hom = homogenize(spec, cell_N=4)

print("=== cavity mode, omega^2 = 2 pi^2, error at T = 0.5 ===")
prev = None
for N in (8, 16, 32, 64):
    mesh = DomainMesh(2, N)
    data = wave.WaveData(T=0.5, dt=mesh.h / 2, g0=mode, store_every=10 ** 9)
    traj = wave.integrate(wave.setup_problem(mesh, data, hom.coefficients()))
    xq, wts = fem.quad_points(mesh, 2)
    flat = xq.reshape(-1, 2)
    wq = np.tile(wts, mesh.n_cells) * mesh.h ** 2
    uh = fem.eval_edge_field(mesh, fem.expand_interior(mesh, traj.U[-1]), flat)
    ue = np.cos(OMEGA * 0.5) * mode(flat)
    err = np.sqrt(np.sum(wq * np.sum((uh - ue) ** 2, axis=1)))
    err /= np.sqrt(np.sum(wq * np.sum(ue ** 2, axis=1)))
    rate = "" if prev is None else f"   order {np.log2(prev / err):.2f}"
    print(f"  N = {N:3d}  dt = 1/{2 * N:<4d} rel L2 error {err:.4e}{rate}")
    prev = err

print("\n=== energy conservation over 1000 free steps ===")
mesh = DomainMesh(2, 16)
data = wave.WaveData(T=1000 / 64.0, dt=1 / 64.0, g0=mode, store_every=10 ** 9,
                     tol=1e-12)
traj = wave.integrate(wave.setup_problem(mesh, data, hom.coefficients()))
drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
print(f"  E(0) = {traj.energies[0]:.10f}")
print(f"  max relative drift = {drift:.2e}")

print("\n=== time reversal ===")
data = wave.WaveData(T=0.5, dt=1 / 64.0, g0=mode, store_every=10 ** 9, tol=1e-12)
prob = wave.setup_problem(mesh, data, hom.coefficients())
fwd = wave.integrate(prob)
back = wave.integrate(prob, u0=fwd.U[-1], v0=-fwd.V[-1])
u0 = prob.interpolate_initial(mode, "g0")
print(f"  return error |u_back(T) - u(0)| / |u(0)| = "
      f"{np.linalg.norm(back.U[-1] - u0) / np.linalg.norm(u0):.2e}")
