"""Multiscale coefficient fields a(x, y_1..y_n), b(x, y_1..y_n) and scale schedules.

Coefficients are symmetric m x m matrix fields: b acts on vectors (m = d) and
the curl coefficient a on curls, which have m = d(d-1)/2 components (one in
2D, three in 3D).  Every builtin family is smooth and 1-periodic in each
microscopic variable.  Evaluation is vectorized: points are passed as
(npts, d) arrays and a stack of matrices (npts, m, m) comes back.
"""

import ast
from dataclasses import dataclass, field

import numpy as np

from .mesh import grid_points

# one sine factor offset + amplitude * sin(2 pi frequency y_axis + phase): its
# required keys and its optional keys with their defaults
_FACTOR_KEYS = ({"offset", "amplitude"}, {"axis", "frequency", "phase"})
_FACTOR_DEFAULTS = {"axis": 0, "frequency": 1, "phase": 0.0}
_UNIT_FACTOR = {"offset": 1.0, "amplitude": 0.0, **_FACTOR_DEFAULTS}
# params of each family: (required, optional)
_PARAMS = {
    "constant": ({"value"}, set()),
    "layered": (_FACTOR_KEYS[0], _FACTOR_KEYS[1] | {"scale", "base"}),
    "separable-product": ({"factors"}, {"x_amplitude", "base"}),
    "expression": ({"code"}, set()),
}
FAMILIES = tuple(_PARAMS)


class CoefficientError(ValueError):
    """Inconsistent coefficient specification or out-of-bounds evaluation."""


def _as_matrix(value, m):
    """A scalar (c I) or m * m entries (row-major) as a symmetric m x m matrix."""
    v = np.asarray(value, dtype=float)
    if v.size == 1:
        v = v.reshape(()) * np.eye(m)
    elif v.size == m * m:
        v = v.reshape(m, m)
    else:
        raise CoefficientError(f"expected a scalar or {m * m} entries (a {m}x{m} matrix, "
                               f"row-major), got {v.size}")
    if not np.allclose(v, v.T, atol=1e-14):
        raise CoefficientError("coefficient matrix must be symmetric")
    return 0.5 * (v + v.T)


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


def _check_keys(params, keys, what):
    """Refuse params that miss a required key or hold one outside (required, optional)."""
    required, optional = keys
    missing = sorted(required - params.keys())
    unknown = sorted(params.keys() - required - optional)
    if missing:
        raise CoefficientError(f"{what}: missing {', '.join(missing)}")
    if unknown:
        raise CoefficientError(f"{what}: unknown {', '.join(map(repr, unknown))} (accepted: "
                               f"{', '.join(sorted(required | optional))})")


def _is_int_in(v, lo, hi):
    """Whether v is an integer (not a float or bool) with lo <= v < hi."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v < hi


@dataclass(frozen=True)
class CoefficientPart:
    """One coefficient field (either `a` or `b`) of a CoefficientSpec.

    params by family (an unknown or a missing one raises CoefficientError):
      constant           value (scalar, or m x m matrix as m * m row-major entries)
      layered            offset, amplitude; scale (1-based), axis, frequency, phase, base
      separable-product  factors: one {offset, amplitude; axis, frequency, phase} per
                         scale; x_amplitude, base
      expression         code: python expression over x, ys, np returning
                         (npts,) scalars (times I) or (npts, m, m)

    layered and separable-product share one profile: the product over the scales
    of offset + amplitude * sin(2 pi frequency y_i[axis] + phase), times the
    macroscopic modulation 1 + x_amplitude * prod_a sin(pi x_a), times base (a
    scalar or m x m matrix; defaults: scale 1, axis 0, frequency 1, phase 0,
    x_amplitude 0, base identity).
    layered is its own factor at `scale` and the unit factor (offset 1, amplitude 0)
    at every other scale.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CoefficientError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _check_keys(self.params, _PARAMS[self.family], f"{self.family} params")
        if self.family == "separable-product":
            for i, f in enumerate(self.params["factors"]):
                _check_keys(f, _FACTOR_KEYS, f"factor {i + 1}")
        if self.family == "expression":
            _expression_names(self.params["code"])

    def depends_on_x(self):
        if self.family == "expression":
            return "x" in _expression_names(self.params["code"])
        return self.params.get("x_amplitude", 0.0) != 0.0

    def _factors(self, n_scales):
        """The sine factors of the profile, one per scale, defaults filled in."""
        p = self.params
        if self.family == "layered":
            out = [_UNIT_FACTOR] * n_scales
            out[p.get("scale", 1) - 1] = {k: v for k, v in p.items() if k not in ("scale", "base")}
        elif len(p["factors"]) != n_scales:
            raise CoefficientError(f"separable-product has {len(p['factors'])} factors "
                                   f"for {n_scales} scales; it needs one per scale")
        else:
            out = p["factors"]
        return [{**_FACTOR_DEFAULTS, **f} for f in out]

    def _check(self, d, n_scales):
        """Refuse factors that do not fit d dimensions and n_scales scales."""
        if self.family not in ("layered", "separable-product"):
            return
        scale = self.params.get("scale", 1)
        if self.family == "layered" and not _is_int_in(scale, 1, n_scales + 1):
            raise CoefficientError(f"layered scale {scale!r} is not an integer in [1, {n_scales}]")
        for i, f in enumerate(self._factors(n_scales)):
            axis, k = f["axis"], f["frequency"]
            if not _is_int_in(axis, 0, d):
                raise CoefficientError(f"factor {i + 1}: axis {axis!r} is not an integer "
                                       f"in [0, {d})")
            if not _is_int_in(k, 1, np.inf):
                raise CoefficientError(f"factor {i + 1}: frequency {k!r} is not an integer >= 1")

    def _profile(self, x, ys):
        """Scalar profile (npts,): the product of the sine factors, then the x modulation."""
        prod = np.ones(x.shape[0])
        for y, f in zip(ys, self._factors(len(ys))):
            prod = prod * (f["offset"] + f["amplitude"] * np.sin(
                2 * np.pi * f["frequency"] * y[:, f["axis"]] + f["phase"]))
        xa = self.params.get("x_amplitude", 0.0)
        if xa != 0.0:
            xmod = np.ones(x.shape[0])
            for a in range(x.shape[1]):
                xmod = xmod * np.sin(np.pi * x[:, a])
            prod = prod * (1.0 + xa * xmod)
        return prod

    def evaluate(self, x, ys, m):
        """Evaluate at points x: (npts, d), ys: list of n (npts, d) arrays: (npts, m, m)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ys = [np.atleast_2d(np.asarray(y, dtype=float)) for y in ys]
        npts = x.shape[0]
        if self.family == "constant":
            return np.broadcast_to(_as_matrix(self.params["value"], m), (npts, m, m)).copy()
        if self.family == "expression":
            env = {"np": np, "x": x, "ys": ys, "pi": np.pi}
            out = np.asarray(eval(self.params["code"], {"__builtins__": {}}, env), dtype=float)
            if out.ndim <= 1:
                return np.broadcast_to(out, (npts,))[:, None, None] * np.eye(m)
            return np.broadcast_to(out, (npts, m, m)).copy()
        base = _as_matrix(self.params.get("base", 1.0), m)
        return self._profile(x, ys)[:, None, None] * base


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
        for which, part, m in (("a", self.a, self.d * (self.d - 1) // 2), ("b", self.b, self.d)):
            try:
                part._check(self.d, self.n_scales)
            except CoefficientError as exc:
                raise CoefficientError(f"coefficient {which}: {exc}") from None
            for key in set(part.params) & {"value", "base"}:
                try:
                    _as_matrix(part.params[key], m)
                except CoefficientError as exc:
                    # named as the config key of the param
                    raise CoefficientError(f"coeff.{which}.{key}: {exc}") from None

    def eval_a(self, x, ys):
        """Fast path: (npts, m, m) with m = d(d-1)/2 curl components. No bounds check."""
        return self.a.evaluate(x, ys, self.d * (self.d - 1) // 2)

    def eval_b(self, x, ys):
        """Fast path: (npts, d, d). No bounds check."""
        return self.b.evaluate(x, ys, self.d)

    def depends_on_x(self):
        return self.a.depends_on_x() or self.b.depends_on_x()


@dataclass(frozen=True)
class ScaleSchedule:
    """Microscopic scales eps_i = eps / (r_2 ... r_i), with integer ratios.

    epsilon: base scale eps_1; ratios: (r_2, ..., r_n), each an integer >= 2.
    require_integer_inverse demands 1/eps integral, i.e. an eps-lattice that
    tiles the unit box.  The lattice users check their own tiling with
    unfolding.lattice_cells: the unfolding operators on the unit box, the
    folded corrector on the domain [0, extent]^d.
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
    """Evaluate a or b at (x, y_1..y_n); returns symmetric matrices (npts, m, m).

    Raises CoefficientError when an evaluated matrix violates the declared
    bounds (inconsistent spec).
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
    vals = spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)
    eigs = np.linalg.eigvalsh(vals)
    tol = 1e-10 * max(1.0, spec.beta)
    if eigs.min() < spec.alpha - tol or eigs.max() > spec.beta + tol:
        raise CoefficientError(
            f"coefficient {which!r} eigenvalues in [{eigs.min():.6g}, {eigs.max():.6g}] "
            f"violate declared bounds [{spec.alpha}, {spec.beta}]")
    return vals


def eval_fine(spec, schedule, x, which):
    """a^eps(x) = a(x, x/eps_1, ..., x/eps_n); returns (npts, m, m)."""
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
    pts = grid_points(*[ax] * spec.d)
    lo, hi = np.inf, -np.inf
    rng = np.random.default_rng(20240811)
    for which in ("a", "b"):
        for _ in range(max(1, spec.n_scales)):
            x = pts
            ys = [pts[rng.permutation(len(pts))] for _ in range(spec.n_scales)]
            ys[0] = pts  # always include the aligned diagonal sweep
            vals = spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)
            eigs = np.linalg.eigvalsh(vals)
            lo = min(lo, float(np.min(eigs)))
            hi = max(hi, float(np.max(eigs)))
    if lo < spec.alpha - 1e-12 or hi > spec.beta + 1e-12:
        import warnings

        warnings.warn(
            f"sampled eigenvalue range [{lo:.6g}, {hi:.6g}] leaves declared "
            f"[{spec.alpha}, {spec.beta}]", stacklevel=2)
    return lo, hi
