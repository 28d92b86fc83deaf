"""Cell problems and effective tensors on closed-form microstructures.

Walks through the basic homogenization pipeline: solve the periodic scalar
and curl cell problems for a layered coefficient, recover the classic
harmonic/arithmetic-mean effective tensors, then let the recursion handle a
macroscopically modulated coefficient a(x, y).
"""

import numpy as np

from maxhom import fem
from maxhom.cells import (curl_level_tensor, homogenize, scalar_level_tensor,
                          solve_curl_cell, solve_scalar_cell)
from maxhom.coeffs import CoefficientPart, CoefficientSpec
from maxhom.mesh import CellMesh

SQRT3 = np.sqrt(3.0)

print("=== layered medium b(y) = (2 + sin 2 pi y1) I ===")
mesh = CellMesh(2, 64)
layered = lambda y: (2.0 + np.sin(2 * np.pi * y[:, 0]))[:, None, None] * np.eye(2)
W, cbar = solve_scalar_cell(layered, mesh)
b0 = scalar_level_tensor(mesh, cbar, W)
print(f"b0 =\n{b0}")
print(f"harmonic mean sqrt(3) = {SQRT3:.12f} -> error {abs(b0[0,0]-SQRT3):.2e}")
print(f"arithmetic mean 2     -> error {abs(b0[1,1]-2.0):.2e}")

# the corrector gradient follows the 1D closed form c/b(y) - 1
centers = mesh.cell_centers[:8]
grads = fem.eval_nodal_gradient(mesh, W[0], centers)
bvals = 2.0 + np.sin(2 * np.pi * centers[:, 0])
print("dw1/dy1 vs closed form (first cells):")
for g, b in zip(grads[:4, 0], bvals[:4]):
    print(f"  computed {g:+.6f}   closed form {SQRT3/b - 1.0:+.6f}")

print("\n=== 2D curl cell problem, one-component coefficient a(y) = 2 + sin 2 pi y1 ===")
# the 2D curl has m = 1 component: a, abar and a0 are (..., 1, 1) arrays
scal = lambda y: (2.0 + np.sin(2 * np.pi * y[:, 0]))[:, None, None]
Nc, abar = solve_curl_cell(scal, mesh)
a0 = curl_level_tensor(mesh, abar, Nc)[0, 0]
print(f"a0 = {a0:.12f} (harmonic mean, error {abs(a0-SQRT3):.2e})")
s = fem.edge_ref(2)["CVEC"][0]
flux = abar[:, 0, 0] * (1.0 + (Nc[0][mesh.cell_edges] @ s) / mesh.h ** 2)
print(f"constant-flux identity: a (1 + curl_y N) has std {flux.std():.2e}")

print("\n=== macroscopically modulated a(x, y): recursion with x sampling ===")
fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0}]
par = {"factors": fac, "x_amplitude": 0.5}
spec = CoefficientSpec(2, 1, a=CoefficientPart("separable-product", dict(par)),
                       b=CoefficientPart("separable-product", dict(par)),
                       alpha=0.4, beta=4.6)
res = homogenize(spec, cell_N=32, slow_x=4)
print("a0(x) at the x sample grid (rows: sample, value, closed form):")
for i, x in enumerate(res.x_grid.points[:6]):
    factor = 1.0 + 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1])
    print(f"  x = ({x[0]:.3f}, {x[1]:.3f})  a0 = {res.a0[i, 0, 0]:.8f}  "
          f"sqrt3 * m(x) = {SQRT3 * factor:.8f}")
