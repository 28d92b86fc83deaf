"""Multiscale coefficient fields a(x, y_1..y_n), b(x, y_1..y_n) and scale schedules.

Coefficients are symmetric d x d matrix fields (the curl coefficient `a` is a
scalar field when d=2, since the 2D curl is scalar).  Every builtin family is
smooth and 1-periodic in each microscopic variable.  Evaluation is vectorized:
points are passed as (npts, d) arrays and a stack of matrices (npts, d, d)
(or (npts,) scalars) comes back.
"""

import ast
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("constant", "layered", "trigonometric", "separable-product", "expression")


class CoefficientError(ValueError):
    """Inconsistent coefficient specification or out-of-bounds evaluation."""


def _as_matrix(value, d):
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = m * np.eye(d)
    if m.shape != (d, d):
        raise CoefficientError(f"expected a {d}x{d} matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-14):
        raise CoefficientError("coefficient matrix must be symmetric")
    return 0.5 * (m + m.T)


def sym_eigenvalues(mats):
    """Eigenvalues of a stack of symmetric 1x1/2x2/3x3 matrices, closed form.

    mats: (npts, d, d).  Returns (npts, d), ascending.
    """
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if d == 1:
        return mats[..., 0]
    if d == 2:
        tr = mats[..., 0, 0] + mats[..., 1, 1]
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
        disc = np.sqrt(np.maximum((tr / 2) ** 2 - det, 0.0))
        return np.stack([tr / 2 - disc, tr / 2 + disc], axis=-1)
    if d == 3:
        # trigonometric closed form for symmetric 3x3
        q = np.trace(mats, axis1=-2, axis2=-1) / 3.0
        b = mats - q[..., None, None] * np.eye(3)
        p2 = np.einsum("...ij,...ij->...", b, b) / 6.0
        p = np.sqrt(np.maximum(p2, 0.0))
        safe = p > 0
        r = np.zeros_like(q)
        detb = np.linalg.det(b[safe]) if np.any(safe) else np.empty(0)
        r[safe] = detb / (2.0 * p[safe] ** 3)
        r = np.clip(r, -1.0, 1.0)
        phi = np.arccos(r) / 3.0
        e1 = q + 2 * p * np.cos(phi)
        e3 = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
        e2 = 3 * q - e1 - e3
        return np.sort(np.stack([e1, e2, e3], axis=-1), axis=-1)
    raise CoefficientError(f"unsupported dimension {d}")


_EXPRESSION_NAMES = ("x", "ys", "np", "pi")


def _expression_names(code):
    """The variable names an expression-family code string reads.

    Evaluation without builtins is no sandbox (().__class__ chains reach every
    loaded class), so the code may read only x, ys, np and pi, use attributes
    only as np.<ufunc>, np.pi or np.e, and pass no keywords (no out= writes).
    """
    try:
        tree = ast.parse(code, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise CoefficientError(f"cannot parse coefficient expression {code!r}: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ok = node.id in _EXPRESSION_NAMES
        elif isinstance(node, ast.Attribute):
            ok = (isinstance(node.value, ast.Name) and node.value.id == "np"
                  and not node.attr.startswith("_")
                  and (node.attr in ("pi", "e")
                       or isinstance(getattr(np, node.attr, None), np.ufunc)))
        else:
            ok = not isinstance(node, ast.keyword)
        if not ok:
            raise CoefficientError(f"coefficient expression may not use {ast.unparse(node)!r} "
                                   f"(allowed: {', '.join(_EXPRESSION_NAMES)}, np.<ufunc>, "
                                   "np.pi, np.e; no keyword arguments)")
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@dataclass(frozen=True)
class CoefficientPart:
    """One coefficient field (either `a` or `b`) of a CoefficientSpec.

    params by family:
      constant           value (scalar or d x d matrix)
      layered            scale (1-based), axis, offset, amplitude, frequency,
                         phase, base (matrix, default identity)
      trigonometric      scale, offset, amplitude, frequency, axes (default all),
                         phases, base -- profile offset + amp * prod_a sin(2 pi k y_a + phase_a)
      separable-product  factors: one {offset, amplitude, axis, frequency, phase}
                         per scale; x_offset/x_amplitude for an optional smooth
                         macroscopic modulation x_off + x_amp * prod_a sin(pi x_a); base
      expression         code: python expression over x, ys, np returning
                         (npts,) or (npts, d, d)
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CoefficientError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "expression":
            if "code" not in self.params:
                raise CoefficientError("the expression family needs params['code']")
            _expression_names(self.params["code"])

    def depends_on_x(self):
        if self.family == "separable-product":
            return self.params.get("x_amplitude", 0.0) != 0.0
        if self.family == "expression":
            return "x" in _expression_names(self.params["code"])
        return False

    def _profile(self, x, ys, n_scales):
        """Scalar profile (npts,) for the scalar-profile families."""
        p = self.params
        if self.family == "layered":
            i = p.get("scale", 1) - 1
            y = ys[i][:, p.get("axis", 0)]
            k = p.get("frequency", 1)
            return p["offset"] + p["amplitude"] * np.sin(2 * np.pi * k * y + p.get("phase", 0.0))
        if self.family == "trigonometric":
            i = p.get("scale", 1) - 1
            axes = p.get("axes", list(range(ys[i].shape[1])))
            phases = p.get("phases", [0.0] * len(axes))
            k = p.get("frequency", 1)
            prod = np.ones(ys[i].shape[0])
            for a, ph in zip(axes, phases):
                prod = prod * np.sin(2 * np.pi * k * ys[i][:, a] + ph)
            return p["offset"] + p["amplitude"] * prod
        if self.family == "separable-product":
            factors = p["factors"]
            if len(factors) != n_scales:
                raise CoefficientError("separable-product needs one factor per scale")
            prod = np.ones(x.shape[0])
            for i, f in enumerate(factors):
                y = ys[i][:, f.get("axis", 0)]
                k = f.get("frequency", 1)
                prod = prod * (f["offset"] + f["amplitude"]
                               * np.sin(2 * np.pi * k * y + f.get("phase", 0.0)))
            xo, xa = p.get("x_offset", 1.0), p.get("x_amplitude", 0.0)
            if xa != 0.0:
                xmod = np.ones(x.shape[0])
                for a in range(x.shape[1]):
                    xmod = xmod * np.sin(np.pi * x[:, a])
                prod = prod * (xo + xa * xmod)
            return prod
        raise CoefficientError(f"{self.family} has no scalar profile")

    def evaluate(self, x, ys, d, scalar=False):
        """Evaluate at points x: (npts, d), ys: list of n (npts, d) arrays.

        Returns (npts,) when scalar (the 2D curl coefficient), else (npts, d, d).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ys = [np.atleast_2d(np.asarray(y, dtype=float)) for y in ys]
        npts = x.shape[0]
        if self.family == "constant":
            if scalar:
                v = np.asarray(self.params["value"], dtype=float)
                return np.full(npts, float(v))
            m = _as_matrix(self.params["value"], d)
            return np.broadcast_to(m, (npts, d, d)).copy()
        if self.family == "expression":
            env = {"np": np, "x": x, "ys": ys, "pi": np.pi}
            out = np.asarray(eval(self.params["code"], {"__builtins__": {}}, env), dtype=float)
            if scalar:
                return np.broadcast_to(out, (npts,)).astype(float)
            if out.ndim <= 1:
                return np.broadcast_to(out, (npts,))[:, None, None] * np.eye(d)
            return np.broadcast_to(out, (npts, d, d)).copy()
        prof = self._profile(x, ys, len(ys))
        if scalar:
            return prof
        base = _as_matrix(self.params.get("base", 1.0), d)
        return prof[:, None, None] * base


@dataclass(frozen=True)
class CoefficientSpec:
    """The coefficient pair (a, b) with declared spectral bounds [alpha, beta]."""

    d: int
    n_scales: int
    a: CoefficientPart
    b: CoefficientPart
    alpha: float
    beta: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise CoefficientError("dimension must be 2 or 3")
        if self.n_scales < 1:
            raise CoefficientError("need at least one microscopic scale")
        if not (0 < self.alpha <= self.beta):
            raise CoefficientError("bounds must satisfy 0 < alpha <= beta")

    @property
    def a_is_scalar(self):
        return self.d == 2

    def eval_a(self, x, ys):
        """Fast path: (npts,) scalars in 2D, (npts, 3, 3) in 3D. No bounds check."""
        return self.a.evaluate(x, ys, self.d, scalar=self.a_is_scalar)

    def eval_b(self, x, ys):
        """Fast path: (npts, d, d). No bounds check."""
        return self.b.evaluate(x, ys, self.d, scalar=False)

    def depends_on_x(self):
        return self.a.depends_on_x() or self.b.depends_on_x()


@dataclass(frozen=True)
class ScaleSchedule:
    """Microscopic scales eps_i = eps / (r_2 ... r_i), with integer ratios.

    epsilon: base scale eps_1; ratios: (r_2, ..., r_n), each an integer >= 2.
    require_integer_inverse demands 1/eps integral (needed by the unfolding
    operators and by lattice-aligned domain meshes).
    """

    epsilon: float
    ratios: tuple = ()
    require_integer_inverse: bool = True

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise CoefficientError("epsilon must lie in (0, 1)")
        for r in self.ratios:
            if int(r) != r or r < 2:
                raise CoefficientError("scale ratios must be integers >= 2")
        object.__setattr__(self, "ratios", tuple(int(r) for r in self.ratios))
        if self.require_integer_inverse:
            inv = 1.0 / self.epsilon
            if abs(inv - round(inv)) > 1e-12:
                raise CoefficientError(f"1/epsilon = {inv} is not an integer")

    @property
    def n_scales(self):
        return 1 + len(self.ratios)

    @property
    def epsilons(self):
        eps = [self.epsilon]
        for r in self.ratios:
            eps.append(eps[-1] / r)
        return tuple(eps)

    def fast_variables(self, x):
        """y_i = x / eps_i mod 1 for points x: (npts, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = []
        for eps in self.epsilons:
            z = x / eps
            out.append(z - np.floor(z))
        return out


def eval_coefficient(spec, x, ys, which):
    """Evaluate a or b at (x, y_1..y_n); returns symmetric matrices (npts, d, d).

    The 2D curl coefficient comes back as (npts, 1, 1).  Raises CoefficientError
    when an evaluated matrix violates the declared bounds (inconsistent spec).
    """
    if which not in ("a", "b"):
        raise CoefficientError("which must be 'a' or 'b'")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.d:
        raise CoefficientError(f"points have dimension {x.shape[1]}, spec has {spec.d}")
    ys = [np.atleast_2d(np.asarray(y, dtype=float)) for y in ys]
    if len(ys) != spec.n_scales:
        raise CoefficientError(f"expected {spec.n_scales} fast variables, got {len(ys)}")
    ys = [y - np.floor(y) for y in ys]
    if which == "a" and spec.a_is_scalar:
        vals = spec.eval_a(x, ys)[:, None, None]
    else:
        vals = spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)
    eigs = sym_eigenvalues(vals).reshape(vals.shape[0], -1)
    tol = 1e-10 * max(1.0, spec.beta)
    if eigs.min() < spec.alpha - tol or eigs.max() > spec.beta + tol:
        raise CoefficientError(
            f"coefficient {which!r} eigenvalues in [{eigs.min():.6g}, {eigs.max():.6g}] "
            f"violate declared bounds [{spec.alpha}, {spec.beta}]")
    return vals


def eval_fine(spec, schedule, x, which):
    """a^eps(x) = a(x, x/eps_1, ..., x/eps_n); returns (npts, d, d) ((npts,1,1) for 2D a)."""
    if schedule.n_scales != spec.n_scales:
        raise CoefficientError("schedule and spec disagree on the number of scales")
    return eval_coefficient(spec, x, schedule.fast_variables(x), which)


def fine_callable(spec, schedule, which):
    """Vectorized x -> coefficient sampler used by assembly (no bounds check)."""
    def fn(x):
        ys = schedule.fast_variables(x)
        return spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)

    return fn


def validate_bounds(spec, samples_per_axis):
    """Scan eigenvalues of a and b on a dense (x, y) grid.

    Returns (alpha_hat, beta_hat) and emits a warning when the sampled range
    leaves the declared [alpha, beta].
    """
    if samples_per_axis < 2:
        raise CoefficientError("need at least 2 samples per axis")
    m = samples_per_axis
    ax = np.linspace(0.0, 1.0, m)
    # sample x and each y on the same grid, crossed pairwise to keep the scan
    # dense but affordable for n >= 2
    grids = np.meshgrid(*([ax] * spec.d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    lo, hi = np.inf, -np.inf
    rng = np.random.default_rng(20240811)
    for which in ("a", "b"):
        scalar = which == "a" and spec.a_is_scalar
        for _ in range(max(1, spec.n_scales)):
            x = pts
            ys = [pts[rng.permutation(len(pts))] for _ in range(spec.n_scales)]
            ys[0] = pts  # always include the aligned diagonal sweep
            vals = spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)
            if scalar:
                eigs = vals
            else:
                eigs = sym_eigenvalues(vals)
            lo = min(lo, float(np.min(eigs)))
            hi = max(hi, float(np.max(eigs)))
    if lo < spec.alpha - 1e-12 or hi > spec.beta + 1e-12:
        import warnings

        warnings.warn(
            f"sampled eigenvalue range [{lo:.6g}, {hi:.6g}] leaves declared "
            f"[{spec.alpha}, {spec.beta}]", stacklevel=2)
    return lo, hi
