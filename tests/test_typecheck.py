"""Type checker tests: inference results and rejected programs."""

import pytest

from repro.lang import parse_procedure
from repro.lang.errors import TypeCheckError
from repro.lang import types as ty
from repro.lang.typecheck import typecheck


def check(src: str):
    proc = parse_procedure(src)
    return proc, typecheck(proc)


def check_body(stmts: str, params: str = "G: Graph"):
    return check(f"Procedure p({params}) {{ {stmts} }}")


def expect_error(stmts: str, fragment: str, params: str = "G: Graph"):
    with pytest.raises(TypeCheckError) as err:
        check_body(stmts, params)
    assert fragment in str(err.value), str(err.value)


class TestAccepted:
    def test_all_bundled_algorithms_typecheck(self):
        from repro.algorithms.sources import ALGORITHMS, load_procedure

        for name in ALGORITHMS:
            typecheck(load_procedure(name))

    def test_numeric_widening_assignment(self):
        check_body("Double d = 3;")

    def test_ternary_joins_numeric(self):
        proc, result = check_body("Double d = True ? 1 : 2.5;")
        decl = proc.body.stmts[0]
        assert decl.init.type == ty.DOUBLE

    def test_node_equality(self):
        check_body("Node a = G.PickRandom(); Bool b = a == NIL;")

    def test_prop_access_types(self):
        proc, result = check_body(
            "Foreach (n: G.Nodes) { Int a = n.age; }", "G: Graph, age: N_P<Int>"
        )
        loop = proc.body.stmts[0]
        assert loop.body.stmts[0].init.type == ty.INT

    def test_graph_methods(self):
        proc, _ = check_body("Long n = G.NumNodes(); Node r = G.PickRandom();")
        assert proc.body.stmts[0].init.type == ty.LONG

    def test_scalars_and_properties_recorded(self):
        _, result = check_body(
            "Int s = 0; N_P<Bool> flag;", "G: Graph, age: N_P<Int>, K: Int"
        )
        assert set(result.properties) == {"age", "flag"}
        assert "s" in result.scalars and "K" in result.scalars

    def test_iterator_shadowing_scopes(self):
        # the same iterator name in two sibling loops is fine
        check_body("Foreach (n: G.Nodes) { } Foreach (n: G.Nodes) { }")

    def test_inf_assignable_to_int_prop(self):
        check_body(
            "Foreach (n: G.Nodes) { n.dist = +INF; }", "G: Graph, dist: N_P<Int>"
        )


class TestRejected:
    def test_undefined_name(self):
        expect_error("Int x = y;", "undefined name 'y'")

    def test_unknown_property(self):
        expect_error("Foreach (n: G.Nodes) { Int a = n.age; }", "unknown property")

    def test_redeclaration(self):
        expect_error("Int x = 0; Int x = 1;", "redeclaration")

    def test_reserved_state_number(self):
        expect_error("Int _state = 7;", "'_state' is reserved")

    def test_reserved_in_neighbour_rows(self):
        expect_error("", "'_in_nbrs' is reserved", params="G: Graph; _in_nbrs: N_P<Int>")

    def test_reserved_merge_flag(self):
        expect_error("Int _is_first_1 = 5;", "'_is_first_1' is reserved")
        check_body("Int _is_first = 5; Int _gm_r1 = 0;")  # only the generated shapes

    def test_duplicate_parameter(self):
        with pytest.raises(TypeCheckError):
            check("Procedure p(G: Graph, a: Int, a: Int) { }")

    def test_no_graph_parameter(self):
        with pytest.raises(TypeCheckError) as err:
            check("Procedure p(K: Int) { }")
        assert "no Graph parameter" in str(err.value)

    def test_two_graph_parameters(self):
        with pytest.raises(TypeCheckError) as err:
            check("Procedure p(G: Graph, H: Graph) { }")
        assert "multiple Graph" in str(err.value)

    def test_bool_condition_required(self):
        expect_error("If (3) { }", "must be Bool")

    def test_while_condition(self):
        expect_error("While (1) { }", "must be Bool")

    def test_filter_must_be_bool(self):
        expect_error("Foreach (n: G.Nodes)[1] { }", "must be Bool")

    def test_arithmetic_on_bool(self):
        expect_error("Int x = True + 1;", "numeric")

    def test_node_ordering_comparison(self):
        expect_error(
            "Node a = G.PickRandom(); Node b = G.PickRandom(); Bool c = a < b;",
            "ordering comparison",
        )

    def test_assign_node_to_int(self):
        expect_error("Node a = G.PickRandom(); Int x = a;", "cannot assign")

    def test_assign_to_iterator(self):
        expect_error("Foreach (n: G.Nodes) { n = n; }", "iterator")

    def test_return_type_mismatch(self):
        with pytest.raises(TypeCheckError):
            check("Procedure p(G: Graph): Int { Return G.PickRandom(); }")

    def test_return_value_without_type(self):
        expect_error("Return 3;", "no return type")

    def test_missing_return_value(self):
        with pytest.raises(TypeCheckError):
            check("Procedure p(G: Graph): Int { Return; }")

    def test_unknown_method(self):
        expect_error("Int x = G.FooBar();", "unknown method")

    def test_method_arity(self):
        expect_error("Long x = G.NumNodes(3);", "argument")

    def test_node_prop_through_edge(self):
        expect_error(
            "Foreach (n: G.Nodes) { Foreach (s: n.Nbrs) { Edge e = s.ToEdge(); Int a = e.age; } }",
            "accessed through",
            "G: Graph, age: N_P<Int>",
        )

    def test_mod_requires_integral(self):
        expect_error("Int x = 5 % 2; Double y = 1.5 % 2.0;", "integral")

    def test_bfs_root_must_be_node(self):
        expect_error("InBFS (v: G.Nodes From 3) { }", "root must be a Node")

    def test_property_initializer_rejected(self):
        expect_error("N_P<Int> p = 0;", "group assignment")

    def test_reduce_body_must_be_numeric(self):
        expect_error("Int x = Sum(u: G.Nodes){u == u};", "numeric")

    def test_exist_requires_predicate(self):
        # Exist with a numeric body is rejected at parse->filter move, so use All
        expect_error("Bool b = Exist(u: G.Nodes){1};", "must be Bool")

    def test_deferred_target_must_be_property(self):
        expect_error("Int x = 0; x <= 3;", "property access")
