import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff_jvp, random_disk_selfmaps
from hypermetric.contraction import dilate_disk
from hypermetric.domains import Disk, Point, Polydisc, unit_disk
from hypermetric.errors import ArgumentError, ParseError, SingularityError
from hypermetric.holomap import (
    INCONCLUSIVE,
    REFUTED,
    SUPPORTED,
    Const,
    Expr,
    HoloMap,
    Var,
    add,
    compose,
    div,
    identity_map,
    mul,
    neg,
    parse,
    pow_,
    range_check,
    sub,
)


class TestParse:
    def test_quadratic(self):
        f = parse("(z1^2 + 1)/4", 1)
        assert f.eval(0).coords == (0.25 + 0j,)

    def test_identity(self):
        f = parse("z1", 1)
        for z in (0.3, -1 + 2j, 0.1j):
            assert f.eval(z).coords == (complex(z),)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("z1 + ", 1)
        assert exc.value.offset == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("z3", 2)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("z1^0.5", 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("z1^-2", 1)

    def test_complex_literals(self):
        f = parse("1+2i", 1)
        assert f.eval(0).coords == (1 + 2j,)
        assert parse("2i", 1).eval(0).coords == (2j,)
        assert parse("i", 1).eval(0).coords == (1j,)

    def test_components(self):
        f = parse("z1*z2; z1+z2", 2)
        assert f.m == 2
        assert f.eval((1, 2j)).coords == (2j, 1 + 2j)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("z1 @ 2", 1)

    def test_unary_plus(self):
        assert parse("+z1 * +2", 1) == parse("z1*2", 1)

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'") as exc:
            parse("(z1 + 1", 1)
        assert exc.value.offset == 7

    def test_trailing_token(self):
        with pytest.raises(ParseError, match="unexpected token 'z2'") as exc:
            parse("z1 z2", 2)
        assert exc.value.offset == 3

    def test_dimension_must_be_positive(self):
        with pytest.raises(ArgumentError):
            parse("1", 0)

    def test_negative_power_rejected_from_code(self):
        with pytest.raises(ArgumentError):
            pow_(Var(0), -1)


class TestNonFiniteConstants:
    """A literal or folded constant that is not finite is an input error:
    a ParseError at the offset of the literal or the operator."""

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("1e999", 0),
            ("z1 + 1e400i", 5),
            ("1e300*1e300*z1", 5),
            ("(1e308+1e308)*0", 6),
            ("2^2000*z1", 1),
        ],
    )
    def test_parse_error_at_offset(self, text, offset):
        with pytest.raises(ParseError, match="not finite") as exc:
            parse(text, 1)
        assert exc.value.offset == offset

    def test_const_rejects_nan(self):
        with pytest.raises(ArgumentError):
            Const(complex(0.0, float("nan")))

    def test_compose_fold_overflows(self):
        with pytest.raises(ArgumentError, match="not finite"):
            compose(parse("z1*z1", 1), parse("1e200", 1))

    def test_dilate_disk_overflows(self):
        # the factor 1 + r/R is infinite
        with pytest.raises(ArgumentError, match="not finite"):
            dilate_disk(parse("z1/2", 1), 1.0, 1e-310)


class TestEval:
    def test_halving(self):
        assert parse("z1/2", 1).eval(0.9).coords == (0.45 + 0j,)

    def test_pole_raises(self):
        with pytest.raises(SingularityError):
            parse("1/z1", 1).eval(0)

    def test_dimension_check(self):
        with pytest.raises(ArgumentError):
            parse("z1", 1).eval((1, 2))


class TestJvp:
    def test_quadratic_derivative(self):
        f = parse("(z1^2+1)/4", 1)
        assert f.jvp(1, 1)[0] == pytest.approx(0.5)

    def test_identity_derivative(self):
        f = parse("z1", 1)
        assert f.jvp(0.3 + 0.1j, 2 - 1j)[0] == 2 - 1j

    def test_jacobian_column(self):
        f = parse("z1*z2; z1+z2", 2)
        out = f.jvp((1, 2j), (1, 0))
        assert out[0] == pytest.approx(2j)
        assert out[1] == pytest.approx(1)

    def test_complex_linearity(self):
        f = parse("(z1^3 - 2*z1)/(1 + z1/3)", 1)
        z, v = np.array([0.4 + 0.2j]), np.array([1 - 0.5j])
        base = f.jvp(z, v)[0]
        for lam in (2j, -0.7 + 0.3j, 5):
            scaled = f.jvp(z, lam * v)[0]
            assert abs(scaled - lam * base) <= 1e-12 * abs(lam * base)

    def test_against_central_differences(self):
        maps = random_disk_selfmaps(25, seed=11)
        rng = np.random.default_rng(42)
        for f in maps:
            z = 0.5 * (rng.normal(2) + 1j * rng.normal())
            z = np.array([0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))])
            v = np.array([rng.normal() + 1j * rng.normal()])
            got = f.jvp(z, v)
            want = central_diff_jvp(f, z, v)
            assert np.linalg.norm(got - want) <= 1e-6 * (1 + np.linalg.norm(got))


class TestCompose:
    def test_eval_agreement(self):
        f = parse("z1/2", 1)
        assert compose(f, f).eval(1).coords == (0.25 + 0j,)

    def test_identity_law(self):
        f = parse("(z1^2+1)/4", 1)
        g = compose(identity_map(1), f)
        for z in (0.1, -0.5, 0.3j):
            assert g.eval(z).coords == f.eval(z).coords

    def test_chain_rule(self):
        f = parse("z1^2 - z1/3", 1)
        g = parse("(z1 + 1)/4", 1)
        h = compose(f, g)
        z, v = 0.3 + 0.2j, 1 - 1j
        direct = h.jvp(z, v)[0]
        chained = f.jvp(g.eval(z), g.jvp(z, v))[0]
        assert abs(direct - chained) <= 1e-12 * (1 + abs(direct))

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            compose(parse("z1; z1", 1), parse("z1; z2", 2))

    def test_every_node_kind(self):
        # constants, variables, unary minus, + - * / and powers in f; g has no
        # constant component, so nothing folds and the values agree bitwise
        f = parse("-(z1 + 2)^3 - 0.5i*z2 + z1/(z2 - 3); (z1 - z2)^2 * z2 + 1", 2)
        g = parse("z1*z2 + 0.1; z1/2 - 0.2i", 2)
        h = compose(f, g)
        for p in ((0.3, 0.1j), (-0.5 + 0.2j, 0.7), (1j, -1)):
            assert h.eval(p).coords == f.eval(g.eval(p)).coords

    def test_constant_inner_map_folds(self):
        f = parse("-(z1 + 2)^3 - z1*z2 + z1/(z2 - 3)", 2)
        g = parse("0.5; -1", 2)
        h = compose(f, g)
        assert h.components[0].to_text() == "-15.125 + 0.5/-4"
        assert h.eval((0, 0)).coords[0] == pytest.approx(f.eval(g.eval((0, 0))).coords[0], abs=1e-15)

    def test_unknown_node(self):
        class Unknown(Expr):
            pass

        with pytest.raises(TypeError, match="unknown node"):
            compose(HoloMap(1, (Unknown(),)), identity_map(1))


# expression strategy in the parser's folded normal form
_consts = st.one_of(
    st.integers(-5, 5).map(lambda k: Const(complex(k))),
    st.tuples(
        st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
    ).map(lambda t: Const(complex(round(t[0], 3), round(t[1], 3)))),
)
_atoms = st.one_of(_consts, st.sampled_from([Var(0), Var(1)]))


def _combine(children):
    a, b = children
    return st.sampled_from(
        [add(a, b), sub(a, b), mul(a, b), div(a, b), neg(a), pow_(a, 3)]
    )


_exprs = st.recursive(_atoms, lambda s: st.tuples(s, s).flatmap(_combine), max_leaves=12)


class TestPrinterRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_roundtrip_structural_identity(self, expr):
        text = expr.to_text()
        reparsed = parse(text, 2)
        assert reparsed.components[0] == expr

    def test_map_roundtrip(self):
        f = parse("z1*z2 - (1+2i)*z2^3; z1/(z2 - 0.5)", 2)
        assert parse(f.to_text(), 2) == f

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(z1 - z2) - (z1 - z2)", "z1 - z2 - (z1 - z2)"),
            ("z1/(z2*z1)", "z1/(z2*z1)"),
            ("(z1/z2)*z1", "z1/z2*z1"),
            ("-(z1 + 1)^2", "-(z1 + 1)^2"),
            ("(-z1)^2 - -z2", "(-z1)^2 - -z2"),
            ("z1 - (2 - 1i)", "z1 - (2-1i)"),
        ],
    )
    def test_precedence_roundtrip(self, text, printed):
        f = parse(text, 2)
        assert f.to_text() == printed
        assert parse(printed, 2) == f


# every node kind: constants, variables, +, -, *, /, unary minus, the
# exponents 0, 1, 2 (a square) and higher, and a constant component
BATCH_MAPS = (
    "z1*z2 - (1+2i)*z2^3; z1/(z2 - 0.5) + z2^0; 0.25",
    "-z1^2 + 3*z1*z2 - z2^1; (z1 - z2)^5/(2 + z1*z1)",
    "(0.3-0.1i)*z1^4 - z2/3i; -(z1 + 1i)^2",
)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_dual_columns(expr, Z, V):
    """Column j of eval_dual over (n, N) arrays is bitwise eval_dual at row j."""
    try:
        singles = [expr.eval_dual(z, v) for z, v in zip(Z, V)]
    except SingularityError:
        with pytest.raises(SingularityError):
            expr.eval_dual(Z.T, V.T)
        return
    val, der = (np.broadcast_to(a, len(Z)) for a in expr.eval_dual(Z.T, V.T))
    for j, (sv, sd) in enumerate(singles):
        assert _bits(val[j]) == _bits(np.complex128(sv))
        assert _bits(der[j]) == _bits(np.complex128(sd))


class TestEvalArray:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BATCH_MAPS),
        st.lists(
            st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 4), min_size=1, max_size=16
        ),
    )
    def test_columns_match_single_points(self, text, rows):
        f = parse(text, 2)
        Z = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows])
        try:
            singles = [f.eval_array(z) for z in Z]
        except SingularityError:
            with pytest.raises(SingularityError):
                f.eval_array(Z.T)
            return
        batch = f.eval_array(Z.T)
        assert batch.shape == (f.m, len(Z))
        for j, single in enumerate(singles):
            assert _bits(batch[:, j]) == _bits(single)

    @settings(max_examples=150, deadline=None)
    @given(_exprs)
    def test_random_expressions_match_single_points(self, expr):
        f = HoloMap(2, (expr,))
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        try:
            singles = [f.eval_array(z) for z in Z]
        except SingularityError:
            return
        batch = f.eval_array(Z.T)
        for j, single in enumerate(singles):
            assert _bits(batch[:, j]) == _bits(single)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BATCH_MAPS), st.integers(0, 2**32 - 1))
    def test_dual_columns_match_single_points(self, text, seed):
        f = parse(text, 2)
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        V = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        for c in f.components:
            _assert_dual_columns(c, Z, V)

    @settings(max_examples=150, deadline=None)
    @given(_exprs)
    def test_random_expressions_dual_match_single_points(self, expr):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        V = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        _assert_dual_columns(expr, Z, V)

    def test_dual_one_singular_column_raises(self):
        div = parse("1/z1", 1).components[0]
        with pytest.raises(SingularityError):
            div.eval_dual(np.array([[0.5, 0, 0.2j]]), np.ones((1, 3)))

    def test_constant_component_broadcasts(self):
        out = parse("0.25; z1", 1).eval_array(np.array([[0.5, 0.1j, 2]]))
        assert out.tolist() == [[0.25, 0.25, 0.25], [0.5, 0.1j, 2]]

    def test_one_singular_column_raises(self):
        with pytest.raises(SingularityError):
            parse("1/z1", 1).eval_array(np.array([[0.5, 0, 0.2j]]))


class TestRangeCheck:
    def test_supported(self):
        f = parse("z1/2", 1)
        ev = range_check(f, unit_disk(), Disk(0, 0.6))
        assert ev.verdict == SUPPORTED
        assert ev.worst_margin > 0

    def test_refuted_identity(self):
        ev = range_check(parse("z1", 1), unit_disk(), Disk(0, 0.5))
        assert ev.verdict == REFUTED

    def test_refuted_witness_is_a_point_of_x(self):
        X, U = Polydisc([0, 0], [1, 1]), Polydisc([0, 0], [0.5, 0.5])
        f = parse("z1/4; z2", 2)
        ev = range_check(f, X, U, samples=64)
        assert ev.verdict == REFUTED
        assert isinstance(ev.witness, Point) and ev.witness.dim == 2
        assert X.contains(ev.witness) and not U.contains(f.eval(ev.witness))

    def test_supported_quadratic(self):
        f = parse("(z1^2+1)/4", 1)
        ev = range_check(f, unit_disk(), Disk(0, 0.6))
        assert ev.verdict == SUPPORTED

    def test_inconclusive_margin(self):
        # image hugs the target boundary: margins fall below the floor
        f = parse("z1", 1)
        ev = range_check(
            f, unit_disk(), Disk(0, 1.0000001), margin_floor=1.0
        )
        assert ev.verdict == INCONCLUSIVE
