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

# one sine factor offset + amplitude * sin(2 pi frequency y_axis + phase): its
# required keys and its optional keys with their defaults
_FACTOR_KEYS = ({"offset", "amplitude"}, {"axis", "frequency", "phase"})
_FACTOR_DEFAULTS = {"axis": 0, "frequency": 1, "phase": 0.0}
# params of each family: (required, optional)
PARAMS = {
    "constant": ({"value"}, set()),
    "layered": (_FACTOR_KEYS[0], _FACTOR_KEYS[1] | {"scale", "base"}),
    "separable-product": ({"factors"}, {"x_amplitude", "base"}),
    "expression": ({"code"}, set()),
}
FAMILIES = tuple(PARAMS)
# the sine factors of each family's profile as (scale, factor) pairs, scales
# 1-based: layered is its own factor at `scale`, separable-product has one
# factor per scale, constant has none (and expression no profile)
_SINE_FACTORS = {
    "constant": lambda p: [],
    "layered": lambda p: [(p.get("scale", 1), p)],
    "separable-product": lambda p: list(enumerate(p["factors"], 1)),
    "expression": lambda p: [],
}


class CoefficientError(ValueError):
    """Inconsistent coefficient specification, or a range outside its declared bounds."""


# relative rounding allowance of the declared bounds against a closed-form range
RANGE_SLACK = 1e-12


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

    constant, layered and separable-product are one profile: the product over
    the sine factors of offset + amplitude * sin(2 pi frequency y_scale[axis] +
    phase), times the macroscopic modulation 1 + x_amplitude * prod_a sin(pi x_a),
    times base (a scalar or m x m matrix; defaults: scale 1, axis 0, frequency 1,
    phase 0, x_amplitude 0, base identity).  constant has no factor and its base
    is value; layered is its one factor at `scale`; separable-product has one
    factor per scale.  A profile's eigenvalue range has a closed form
    (eigenvalue_range); an expression's has none.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CoefficientError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _check_keys(self.params, PARAMS[self.family], f"{self.family} params")
        for i, f in enumerate(self.params.get("factors", ())):
            _check_keys(f, _FACTOR_KEYS, f"factor {i + 1}")
        if self.family == "expression":
            _expression_names(self.params["code"])

    def depends_on_x(self):
        if self.family == "expression":
            return "x" in _expression_names(self.params["code"])
        return self.params.get("x_amplitude", 0.0) != 0.0

    def sine_factors(self):
        """The sine factors of the profile as (scale, factor) pairs, defaults filled in."""
        return [(scale, {**_FACTOR_DEFAULTS, **f})
                for scale, f in _SINE_FACTORS[self.family](self.params)]

    def _check(self, d, n_scales):
        """Refuse sine factors that do not fit d dimensions and n_scales scales."""
        factors = self.params.get("factors")
        if factors is not None and len(factors) != n_scales:
            raise CoefficientError(f"{self.family} has {len(factors)} factors for {n_scales} "
                                   "scales; it needs one per scale")
        for scale, f in self.sine_factors():
            if not _is_int_in(scale, 1, n_scales + 1):
                raise CoefficientError(f"{self.family} scale {scale!r} is not an integer "
                                       f"in [1, {n_scales}]")
            axis, k = f["axis"], f["frequency"]
            if not _is_int_in(axis, 0, d):
                raise CoefficientError(f"factor {scale}: axis {axis!r} is not an integer "
                                       f"in [0, {d})")
            if not _is_int_in(k, 1, np.inf):
                raise CoefficientError(f"factor {scale}: frequency {k!r} is not an integer >= 1")

    def _profile(self, x, ys):
        """Scalar profile (npts,): the product of the sine factors, then the x modulation."""
        prod = np.ones(x.shape[0])
        for scale, f in self.sine_factors():
            prod = prod * (f["offset"] + f["amplitude"] * np.sin(
                2 * np.pi * f["frequency"] * ys[scale - 1][:, f["axis"]] + f["phase"]))
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
        if self.family == "expression":
            npts = x.shape[0]
            env = {"np": np, "x": x, "ys": ys, "pi": np.pi}
            out = np.asarray(eval(self.params["code"], {"__builtins__": {}}, env), dtype=float)
            if out.ndim <= 1:
                return np.broadcast_to(out, (npts,))[:, None, None] * np.eye(m)
            return np.broadcast_to(out, (npts, m, m)).copy()
        return self._profile(x, ys)[:, None, None] * self._base(m)

    def _base(self, m):
        return _as_matrix(self.params.get("base", self.params.get("value", 1.0)), m)

    def eigenvalue_range(self, m):
        """(lo, hi) of the eigenvalues over x in the unit box and every y_i; None for expression.

        The interval product of three parts, each attained at its two ends (in
        either order): the sine factors (one a scale, so they vary
        independently), each between offset - amplitude and offset + amplitude;
        the x modulation 1 + x_amplitude prod_a sin(pi x_a), between 1 (x = 0)
        and 1 + x_amplitude (x = (1/2, ..., 1/2)); and the eigenvalues of base.
        """
        if self.family == "expression":
            return None
        eigs = np.linalg.eigvalsh(self._base(m))
        ends = [(f["offset"] - f["amplitude"], f["offset"] + f["amplitude"])
                for _, f in self.sine_factors()]
        ends += [(1.0, 1.0 + self.params.get("x_amplitude", 0.0)), (eigs[0], eigs[-1])]
        lo = hi = 1.0
        for a, b in ends:
            corners = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(corners), max(corners)
        return float(lo), float(hi)


@dataclass(frozen=True)
class CoefficientSpec:
    """The coefficient pair (a, b) with declared spectral bounds [alpha, beta].

    A profile part whose closed-form eigenvalue range leaves [alpha, beta] (by
    more than RANGE_SLACK relative) is refused when the spec is built; an
    expression part is not checked here.
    """

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
            try:
                rng = part.eigenvalue_range(m)
            except CoefficientError as exc:
                # the base: named as the config key of its param
                key = "base" if "base" in part.params else "value"
                raise CoefficientError(f"coeff.{which}.{key}: {exc}") from None
            if rng is not None and not (self.alpha * (1 - RANGE_SLACK) <= rng[0]
                                        and rng[1] <= self.beta * (1 + RANGE_SLACK)):
                raise CoefficientError(
                    f"coeff.{which}: eigenvalues range over [{rng[0]:.15g}, {rng[1]:.15g}], "
                    f"outside [coeff.alpha, coeff.beta] = [{self.alpha:.15g}, {self.beta:.15g}]")

    def eval_a(self, x, ys):
        """a at (x, y_1..y_n): (npts, m, m) with m = d(d-1)/2 curl components."""
        return self.a.evaluate(x, ys, self.d * (self.d - 1) // 2)

    def eval_b(self, x, ys):
        """b at (x, y_1..y_n): (npts, d, d)."""
        return self.b.evaluate(x, ys, self.d)

    def depends_on_x(self):
        return self.a.depends_on_x() or self.b.depends_on_x()


@dataclass(frozen=True)
class ScaleSchedule:
    """Microscopic scales eps_i = eps / (r_2 ... r_i), with integer ratios.

    epsilon: base scale eps_1; ratios: (r_2, ..., r_n), each an integer >= 2.
    1/eps need not be an integer: the eps-lattice users, the unfolding
    operators and the folded corrector, check their own tiling of the unit box
    with unfolding.lattice_cells.
    """

    epsilon: float
    ratios: tuple = ()

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise CoefficientError("epsilon must lie in (0, 1)")
        for r in self.ratios:
            if int(r) != r or r < 2:
                raise CoefficientError("scale ratios must be integers >= 2")
        object.__setattr__(self, "ratios", tuple(int(r) for r in self.ratios))

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


def fine_coefficients(spec, schedule):
    """(a^eps, b^eps): vectorized x -> a(x, x/eps_1, ..., x/eps_n), (npts, m, m), and
    x -> b(x, x/eps_1, ..., x/eps_n), (npts, d, d)."""
    if schedule.n_scales != spec.n_scales:
        raise CoefficientError(f"schedule has {schedule.n_scales} scales, spec has "
                               f"{spec.n_scales}")

    def a_eps(x):
        return spec.eval_a(x, schedule.fast_variables(x))

    def b_eps(x):
        return spec.eval_b(x, schedule.fast_variables(x))

    return a_eps, b_eps
