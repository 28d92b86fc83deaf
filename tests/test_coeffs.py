import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxhom.coeffs import (FAMILIES, CoefficientError, CoefficientPart, CoefficientSpec,
                           ScaleSchedule, fine_coefficients)

LAYERED = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}


def make_spec(a_fam="layered", a_par=None, b_fam="layered", b_par=None,
              d=2, n=1, alpha=1.0, beta=3.0):
    return CoefficientSpec(
        d, n,
        a=CoefficientPart(a_fam, a_par if a_par is not None else dict(LAYERED)),
        b=CoefficientPart(b_fam, b_par if b_par is not None else dict(LAYERED)),
        alpha=alpha, beta=beta)


def test_expression_x_dependence_from_parsed_names():
    # "x" occurs in np.exp but the expression reads only ys
    y_only = "2.0 + np.exp(-np.sin(2*np.pi*ys[0][:, 0])**2)"
    assert not CoefficientPart("expression", {"code": y_only}).depends_on_x()
    assert CoefficientPart("expression", {"code": "2.0 + x[:, 0]"}).depends_on_x()
    with pytest.raises(CoefficientError, match="parse"):
        CoefficientPart("expression", {"code": "2.0 +"}).depends_on_x()


@pytest.mark.parametrize("code", [
    "[c for c in ().__class__.__base__.__subclasses__()]",
    "np.savetxt('out.txt', x)",
    "__import__('os')",
    "np.add(x, 1.0, out=x)",
    "x.__class__",
    "np._core",
])
def test_expression_outside_whitelist_rejected(code):
    with pytest.raises(CoefficientError, match="coefficient expression"):
        CoefficientPart("expression", {"code": code})


def test_whitelisted_expressions_evaluate():
    pts = np.random.default_rng(2).random((5, 2))
    for code in ("2.0 + np.exp(-np.sin(2*np.pi*ys[0][:, 0])**2)",
                 "np.sin(2*pi*ys[0][:,0]) - 0.2", "2.0 + x[:, 0] * np.e"):
        vals = CoefficientPart("expression", {"code": code}).evaluate(pts, [pts], 2)
        assert vals.shape == (5, 2, 2) and np.all(np.isfinite(vals))


def test_constant_identity():
    spec = make_spec("constant", {"value": 1.0}, "constant", {"value": np.eye(2)},
                     alpha=0.5, beta=2.0)
    x = np.random.default_rng(0).random((7, 2))
    ys = [np.random.default_rng(1).random((7, 2))]
    out = spec.eval_b(x, ys)
    assert np.array_equal(out, np.broadcast_to(np.eye(2), (7, 2, 2)))
    assert np.array_equal(spec.eval_a(x, ys), np.ones((7, 1, 1)))


def test_layered_point_value():
    # b(y1) = (2 + sin 2 pi y11) I at y1 = (0.25, 0): sin(pi/2) = 1 -> 3 I
    spec = make_spec()
    out = spec.eval_b([[0.5, 0.5]], [np.array([[0.25, 0.0]])])
    assert np.allclose(out[0], 3.0 * np.eye(2), atol=1e-14)


def test_bounds_violation_raises():
    # declared alpha=1 but the profile dips to 0.5: refused when the spec is built
    with pytest.raises(CoefficientError, match=r"coeff.a: eigenvalues range over \[0.5, 2.5\], "
                       r"outside \[coeff.alpha, coeff.beta\] = \[1, 3\]"):
        make_spec(a_par={"scale": 1, "axis": 0, "offset": 1.5, "amplitude": 1.0},
                  alpha=1.0, beta=3.0)


def test_dimension_mismatch():
    # the fine coefficient reads one fast variable per scale of the spec
    spec = make_spec()
    with pytest.raises(CoefficientError, match="schedule has 2 scales, spec has 1"):
        fine_coefficients(spec, ScaleSchedule(0.25, (2,)))
    spec2 = make_spec("separable-product", _sep((2.0, 1.0, 0), (2.0, 1.0, 1)),
                      "constant", {"value": 1.0}, n=2, beta=9.0)
    with pytest.raises(CoefficientError, match="schedule has 1 scales, spec has 2"):
        fine_coefficients(spec2, ScaleSchedule(0.25))


def test_eval_fine_constant():
    spec = make_spec("constant", {"value": 1.25}, "constant", {"value": 1.25},
                     alpha=1.0, beta=2.0)
    sched = ScaleSchedule(0.25)
    x = np.random.default_rng(2).random((11, 2))
    a_eps, b_eps = fine_coefficients(spec, sched)
    assert np.allclose(b_eps(x), 1.25 * np.eye(2), atol=0)
    assert np.allclose(a_eps(x), 1.25, atol=0)


def test_eval_fine_layered_quarter():
    # eps = 1/4 at x = (1/8, 0): y = x/eps mod 1 = (1/2, 0)
    spec = make_spec()
    sched = ScaleSchedule(0.25)
    out = fine_coefficients(spec, sched)[1](np.array([[0.125, 0.0]]))
    assert np.allclose(out[0], (2.0 + np.sin(np.pi)) * np.eye(2), atol=1e-14)


def test_eval_fine_two_scale_modular():
    # eps = (1/4, 1/16), x = (3/16, 0): y1 = 3/4, y2 = 3 mod 1 = 0
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0},
           {"offset": 2.0, "amplitude": 0.5, "axis": 0}]
    spec = make_spec("separable-product", {"factors": fac},
                     "separable-product", {"factors": fac}, n=2, alpha=1.0, beta=9.0)
    sched = ScaleSchedule(0.25, (4,))
    out = fine_coefficients(spec, sched)[1](np.array([[3.0 / 16.0, 0.0]]))
    expect = (2.0 + np.sin(2 * np.pi * 0.75)) * (2.0 + 0.5 * np.sin(0.0))
    assert np.allclose(out[0], expect * np.eye(2), atol=1e-13)


def test_validate_bounds_constant():
    # the range is the value's; declared bounds at its exact ends build
    spec = make_spec("constant", {"value": 1.0}, "constant", {"value": 1.0},
                     alpha=1.0, beta=1.0)
    assert spec.a.eigenvalue_range(1) == spec.b.eigenvalue_range(2) == (1.0, 1.0)
    assert CoefficientPart("constant", {"value": (2.0, 1.0, 1.0, 2.0)}).eigenvalue_range(2) \
        == pytest.approx((1.0, 3.0), rel=1e-15)
    with pytest.raises(CoefficientError, match=r"coeff.b: .*\[1.25, 1.25\]"):
        make_spec("constant", {"value": 1.0}, "constant", {"value": 1.25}, alpha=1.0, beta=1.0)


def test_validate_bounds_layered_scan():
    # 2 + sin ranges over exactly [1, 3]; a dense-grid scan approaches it from inside
    spec = make_spec()
    assert spec.b.eigenvalue_range(2) == (1.0, 3.0)
    grid = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 101)] * 2), -1).reshape(-1, 2)
    eigs = np.linalg.eigvalsh(spec.eval_b(grid, [grid]))
    assert 1.0 <= eigs.min() <= 1.0 + 5e-3 and 3.0 - 5e-3 <= eigs.max() <= 3.0


def test_validate_bounds_refuses_negative_region():
    # a profile with a negative region is refused when the spec is built
    with pytest.raises(CoefficientError, match=r"coeff.a: .*\[-0.2, 1.8\]"):
        make_spec(a_par={"offset": 0.8, "amplitude": -1.0}, alpha=0.5, beta=3.0)
    # an expression has no closed-form range: it is left to the tensor and CG checks
    spec = make_spec("expression", {"code": "np.sin(2*pi*ys[0][:,0]) - 0.2"},
                     alpha=0.5, beta=3.0)
    assert spec.a.eigenvalue_range(1) is None


@pytest.mark.parametrize("fam,par", [
    ("layered", LAYERED),
    ("layered", {"axis": 1, "frequency": 2, "offset": 2.0, "amplitude": 0.8, "phase": 0.3}),
    ("separable-product", {"factors": [{"offset": 2.0, "amplitude": 1.0, "axis": 0}]}),
])
def test_periodicity_exact(fam, par):
    spec = make_spec(fam, dict(par), "constant", {"value": 1.0}, alpha=0.1, beta=9.0)
    rng = np.random.default_rng(3)
    x = rng.random((50, 2))
    y = rng.random((50, 2))
    base = spec.eval_a(x, [y])
    for j in range(2):
        shifted = spec.eval_a(x, [y + np.eye(2)[j]])
        assert np.allclose(base, shifted, rtol=0, atol=1e-12)


def test_symmetry_every_evaluation():
    spec = make_spec(b_par={"scale": 1, "axis": 1, "offset": 2.0, "amplitude": 1.0,
                            "base": [[2.0, 0.5], [0.5, 1.0]]}, alpha=0.5, beta=9.0)
    rng = np.random.default_rng(4)
    vals = spec.eval_b(rng.random((40, 2)), [rng.random((40, 2))])
    assert np.abs(vals - vals.transpose(0, 2, 1)).max() == 0.0


def test_fine_scale_consistency_random_points():
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0},
           {"offset": 2.0, "amplitude": 0.5, "axis": 1}]
    spec = make_spec("separable-product", {"factors": fac},
                     "separable-product", {"factors": fac}, n=2, alpha=1.0, beta=9.0)
    sched = ScaleSchedule(0.125, (8,))
    rng = np.random.default_rng(5)
    x = rng.random((1000, 2))
    a_eps, b_eps = fine_coefficients(spec, sched)
    ys = [np.mod(x / e, 1.0) for e in sched.epsilons]
    assert np.allclose(a_eps(x), spec.eval_a(x, ys), rtol=0, atol=1e-14)
    assert np.allclose(b_eps(x), spec.eval_b(x, ys), rtol=0, atol=1e-14)


def test_schedule_invariants():
    s = ScaleSchedule(0.25, (4, 2))
    assert s.epsilons == (0.25, 0.0625, 0.03125)
    with pytest.raises(CoefficientError):
        ScaleSchedule(0.25, (1,))  # ratio < 2
    ScaleSchedule(0.3)  # 1/eps need not be an integer


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_layered_is_its_factor_at_its_scale_bitwise(data):
    # layered runs through the product loop with its one factor at its scale;
    # the profile stays offset + amplitude sin(2 pi k y_scale[axis] + phase).
    # constant is the factor-free profile, bitwise equal to its value
    fam = data.draw(st.sampled_from(["layered", "constant"]))
    d, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
    scale, axis = data.draw(st.integers(1, n)), data.draw(st.integers(0, d - 1))
    k = data.draw(st.integers(1, 3))
    offset = data.draw(st.floats(1.0, 3.0))
    amp, phase = data.draw(st.floats(-0.9, 0.9)), data.draw(st.floats(0.0, 2 * np.pi))
    par = {"scale": scale, "axis": axis, "frequency": k, "offset": offset,
           "amplitude": amp, "phase": phase}
    m = d * (d - 1) // 2  # a is (npts, m, m): (npts, 1, 1) in 2D
    a_base, b_base = np.eye(m), np.eye(d)
    a_par, b_par = dict(par), dict(par)
    if data.draw(st.booleans()):
        a_base, b_base = 2.0 * np.eye(m), 2.0 * np.eye(d)
        a_par["base"], b_par["base"] = a_base, b_base
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    x = rng.random((30, d))
    ys = [rng.random((30, d)) for _ in range(n)]
    prof = offset + amp * np.sin(2 * np.pi * k * ys[scale - 1][:, axis] + phase)
    if fam == "constant":
        a_base, b_base = offset * a_base, offset * b_base
        a_par, b_par = {"value": a_base.ravel()}, {"value": b_base.ravel()}
        prof = np.ones(30)
    spec = make_spec(fam, a_par, fam, b_par, d=d, n=n, alpha=0.01, beta=20.0)
    assert np.array_equal(spec.eval_a(x, ys), prof[:, None, None] * a_base)
    assert np.array_equal(spec.eval_b(x, ys), prof[:, None, None] * b_base)


def _family_params(fam, k, n, data):
    """Params of a family for a k x k coefficient over n scales, drawn from data."""
    fac = {"offset": 2.0, "amplitude": data.draw(st.floats(-0.9, 0.9)), "axis": 0}
    return {"constant": {"value": tuple((2.0 * np.eye(k) + 0.1).ravel())},
            "layered": dict(fac, scale=n),
            "separable-product": {"factors": [fac] * n, "x_amplitude": 0.5},
            "expression": {"code": "2.0 + x[:, 0] * np.sin(2*pi*ys[-1][:, 0])"}}[fam]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_family_evaluates_to_symmetric_m_by_m_stacks(data):
    # a acts on curls (m = d(d-1)/2 components), b on vectors (m = d)
    d, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
    m = d * (d - 1) // 2
    a_fam, b_fam = data.draw(st.sampled_from(FAMILIES)), data.draw(st.sampled_from(FAMILIES))
    spec = make_spec(a_fam, _family_params(a_fam, m, n, data),
                     b_fam, _family_params(b_fam, d, n, data), d=d, n=n, alpha=0.01, beta=20.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    x, ys = rng.random((17, d)), [rng.random((17, d)) for _ in range(n)]
    for vals, k in ((spec.eval_a(x, ys), m), (spec.eval_b(x, ys), d)):
        assert vals.shape == (17, k, k)
        assert np.array_equal(vals, vals.transpose(0, 2, 1))


@pytest.mark.parametrize("d,which,value,match", [
    (2, "a", (2.0, 0.0, 0.0, 2.0), "coeff.a.value: expected a scalar or 1 entries .*got 4"),
    (3, "a", (2.0, 0.0, 0.0, 2.0), "coeff.a.value: expected a scalar or 9 entries .*got 4"),
    (2, "b", (2.0, 1.0, 0.0, 2.0), "coeff.b.value: coefficient matrix must be symmetric"),
])
def test_spec_refuses_constant_values_that_do_not_fit(d, which, value, match):
    # checked when the spec is built: 1 or m * m row-major entries, symmetric
    parts = {"a_fam": "constant", "a_par": {"value": 2.0},
             "b_fam": "constant", "b_par": {"value": 2.0}}
    parts[f"{which}_par"] = {"value": value}
    with pytest.raises(CoefficientError, match=match):
        make_spec(d=d, alpha=0.5, beta=9.0, **parts)


@pytest.mark.parametrize("fam,par,match", [
    ("layered", {"offset": 2.0, "amplitude": 1.0, "phse": 3.0}, "unknown 'phse'"),
    ("layered", {"offset": 2.0}, "missing amplitude"),
    ("constant", {"value": 1.0, "base": 2.0}, "unknown 'base'"),
    ("separable-product", {"factors": [{"offset": 2.0, "amplitude": 1.0}], "scale": 1},
     "unknown 'scale'"),
    ("separable-product", {"factors": [{"offset": 2.0, "amplitde": 1.0}]},
     "factor 1: missing amplitude"),
    ("separable-product", {"factors": [{"offset": 2.0, "amplitude": 1.0, "axes": [0]}]},
     "unknown 'axes'"),
    ("expression", {}, "missing code"),
])
def test_part_params_unknown_or_missing_rejected(fam, par, match):
    with pytest.raises(CoefficientError, match=match):
        CoefficientPart(fam, par)


def _sep(*factors):
    return {"factors": [dict(zip(("offset", "amplitude", "axis", "frequency"), f))
                        for f in factors]}


@pytest.mark.parametrize("part,n,match", [
    (("separable-product", _sep((2.0, 1.0, 5))), 1, "axis 5"),
    (("separable-product", _sep((2.0, 1.0, -1))), 1, "axis -1"),
    (("separable-product", _sep((2.0, 1.0, 0.0))), 1, "axis 0.0"),
    (("separable-product", _sep((2.0, 1.0, 0, 0))), 1, "frequency 0"),
    (("separable-product", _sep((2.0, 1.0, 0, 1.5))), 1, "frequency 1.5"),
    (("separable-product", _sep((2.0, 1.0, 0), (2.0, 1.0, 0))), 1, "2 factors for 1 scales"),
    (("separable-product", _sep((2.0, 1.0, 0))), 2, "1 factors for 2 scales"),
    (("layered", dict(LAYERED, scale=2)), 1, "scale 2"),
    (("layered", dict(LAYERED, scale=0)), 2, "scale 0"),
    (("layered", dict(LAYERED, axis=2)), 1, "axis 2"),
])
def test_spec_refuses_factors_that_do_not_fit(part, n, match):
    # checked when the spec is built, not at the first evaluation
    with pytest.raises(CoefficientError, match=f"coefficient b: .*{match}"):
        make_spec(b_fam=part[0], b_par=part[1], n=n, alpha=0.5, beta=9.0)


@st.composite
def profile_parts(draw):
    """(part, d, n, m): a random constant, layered or separable-product part of an m x m field."""
    d, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    m = draw(st.sampled_from([d * (d - 1) // 2, d]))
    fam = draw(st.sampled_from(["constant", "layered", "separable-product"]))
    if draw(st.booleans()):
        base = draw(st.floats(-3.0, 3.0))
    else:
        B = np.random.default_rng(draw(st.integers(0, 2 ** 16))).uniform(-2.0, 2.0, (m, m))
        base = tuple((B + B.T).ravel())

    def factor():
        return {"offset": draw(st.floats(-3.0, 3.0)), "amplitude": draw(st.floats(-2.0, 2.0)),
                "axis": draw(st.integers(0, d - 1)), "frequency": draw(st.integers(1, 3)),
                "phase": draw(st.floats(0.0, 2 * np.pi))}

    par = {"constant": lambda: {"value": base},
           "layered": lambda: dict(factor(), scale=draw(st.integers(1, n)), base=base),
           "separable-product": lambda: {"factors": [factor() for _ in range(n)], "base": base,
                                         "x_amplitude": draw(st.floats(-2.0, 2.0))}}[fam]()
    return CoefficientPart(fam, par), d, n, m


@settings(max_examples=80, deadline=None)
@given(profile_parts(), st.integers(0, 2 ** 16))
def test_closed_form_range_holds_a_dense_scan_and_is_attained(part_dnm, seed):
    part, d, n, m = part_dnm
    lo, hi = part.eigenvalue_range(m)
    tol = 1e-12 * max(abs(lo), abs(hi), 1e-300)
    rng = np.random.default_rng(seed)
    x = rng.random((4000, d))
    eigs = np.linalg.eigvalsh(part.evaluate(x, [rng.random((4000, d)) for _ in range(n)], m))
    assert lo - tol <= eigs.min() and eigs.max() <= hi + tol
    # both ends at the extrema: each sine factor at +-1, x = 0 or (1/2, ..., 1/2)
    factors = part.sine_factors()
    pts = []
    for signs in np.ndindex(*[2] * len(factors)):
        ys = [np.zeros(d) for _ in range(n)]
        for sgn, (scale, f) in zip(signs, factors):
            arg = (0.5 - sgn) * np.pi - f["phase"]      # sin(arg + phase) = +1, then -1
            ys[scale - 1][f["axis"]] = np.mod(arg / (2 * np.pi * f["frequency"]), 1.0)
        pts += [(np.full(d, xv), ys) for xv in (0.0, 0.5)]
    x = np.array([p[0] for p in pts])
    ys = [np.array([p[1][i] for p in pts]) for i in range(n)]
    eigs = np.linalg.eigvalsh(part.evaluate(x, ys, m))
    assert abs(eigs.min() - lo) <= tol and abs(eigs.max() - hi) <= tol
    # a spec declaring exactly that range builds; one whose bounds end a hair
    # inside it, at either end, is refused
    if lo > 0:
        other = CoefficientPart("constant", {"value": lo})
        ab = {"a": part, "b": other} if m == d * (d - 1) // 2 else {"a": other, "b": part}
        CoefficientSpec(d, n, alpha=lo, beta=hi, **ab)
        for shift in (1 + 1e-9, 1 - 1e-9):
            with pytest.raises(CoefficientError, match="eigenvalues range over"):
                CoefficientSpec(d, n, alpha=lo * shift, beta=hi * shift, **ab)
