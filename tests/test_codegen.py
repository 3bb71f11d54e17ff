"""Code-generation tests: the executable Python backend and the GPS-style
Java emitter (§4.3 artifacts)."""

import pytest

from repro.compiler import compile_algorithm, compile_source
from repro.algorithms.sources import ALGORITHMS
from repro.bench.harness import default_args
from repro.graphgen.registry import load_graph
from repro.pregel import Graph
from repro.pregel.backend import get_backend
from repro.translate.merge import phase_global_reads


class TestPythonBackend:
    def test_generated_source_is_valid_python(self):
        for name in ALGORITHMS:
            compiled = compile_algorithm(name, emit_java=False)
            compile(compiled.program.vertex_source, "<test>", "exec")

    def test_dispatch_covers_all_phases(self):
        compiled = compile_algorithm("bc_approx", emit_java=False)
        src = compiled.program.vertex_source
        for pid in compiled.ir.phases:
            assert f"def _loop_{pid}(" in src

    def test_one_loop_per_phase_without_dispatch(self):
        for name in ALGORITHMS:
            compiled = compile_algorithm(name, emit_java=False)
            src = compiled.program.vertex_source
            for pid in compiled.ir.phases:
                assert src.count(f"def _loop_{pid}(") == 1
            assert src.count("def ") == len(compiled.ir.phases)
            assert "_state" not in src and "globals()" not in src

    def test_phases_read_only_what_the_master_broadcasts(self):
        # a phase's loop reads its broadcast values when the superstep
        # starts: each must be a master field, which every MVPhase
        # broadcasts (the fuzzed programs check the same in _compare)
        for name in ALGORITHMS:
            ir = compile_algorithm(name, emit_java=False).ir
            for phase in ir.phases.values():
                assert phase_global_reads(phase) <= set(ir.master_fields), phase.label

    @pytest.mark.parametrize(
        "alg,backend",
        [("avg_teen_cnt", "sim"), ("pagerank", "sim"), ("sssp", "sim"), ("pagerank", "columnar")],
    )
    @pytest.mark.parametrize("make_order", ((0, 1), (1, 0)))
    def test_engines_of_one_program_keep_their_own_bindings(self, alg, backend, make_order):
        # two engines made from one CompiledProgram, run after both were
        # made: each reads its own broadcast map and columns (on columnar,
        # under voting, pagerank's kernels run over the un-voted vertices)
        program = compile_algorithm(alg, emit_java=False).program
        graphs = [load_graph("twitter", 0.05, seed) for seed in (1, 2)]
        opts = dict(backend=backend, use_voting=backend == "columnar")
        alone = [program.run(g, default_args(alg, g), **opts) for g in graphs]
        engines = {}
        for i in make_order:
            engines[i] = program.make_engine(graphs[i], default_args(alg, graphs[i]), **opts)
        backend_impl = get_backend(backend)
        for i in (0, 1):
            engine, fields, _master = engines[i]
            metrics = engine.run()
            assert metrics.parity_key() == alone[i].metrics.parity_key()
            for name, values in alone[i].outputs.items():
                assert backend_impl.column_values(fields[name]) == values

    def test_degree_zero_vertex_does_not_divide(self):
        # sink vertices must not evaluate pg_rank/degree payloads
        compiled = compile_algorithm("pagerank", emit_java=False)
        g = Graph.from_edges(3, [(0, 2), (1, 2)])  # node 2 is a sink
        run = compiled.program.run(g, {"e": 1e-9, "d": 0.85, "max_iter": 4})
        assert all(v > 0 for v in run.outputs["pg_rank"])

    def test_missing_scalar_argument_raises(self):
        compiled = compile_algorithm("sssp", emit_java=False)
        g = Graph.from_edges(2, [(0, 1)], edge_props={"len": [1]})
        with pytest.raises(ValueError):
            compiled.program.run(g, {})

    def test_missing_edge_property_raises(self):
        compiled = compile_algorithm("sssp", emit_java=False)
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            compiled.program.run(g, {"root": 0})

    def test_property_argument_overrides_graph_prop(self):
        compiled = compile_algorithm("avg_teen_cnt", emit_java=False)
        g = Graph.from_edges(2, [(0, 1)])
        g.add_node_prop("age", [50, 50])
        run = compiled.program.run(g, {"K": 30, "age": [15, 50]})
        assert run.outputs["teen_cnt"] == [0, 1]

    def test_wrong_property_length_raises(self):
        compiled = compile_algorithm("avg_teen_cnt", emit_java=False)
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            compiled.program.run(g, {"K": 30, "age": [15]})

    def test_runs_are_independent(self):
        compiled = compile_algorithm("pagerank", emit_java=False)
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        args = {"e": 1e-9, "d": 0.85, "max_iter": 5}
        first = compiled.program.run(g, args)
        second = compiled.program.run(g, args)
        assert first.outputs["pg_rank"] == second.outputs["pg_rank"]
        assert first.metrics.messages == second.metrics.messages

    def test_gm_div_semantics(self):
        from repro.codegen.executable import gm_div

        assert gm_div(7, 2) == 3
        assert gm_div(-7, 2) == -3  # truncation toward zero, like Java
        assert gm_div(7, -2) == -3
        assert gm_div(7.0, 2) == 3.5
        assert gm_div(1, 2) == 0


class TestJavaBackend:
    def test_emits_for_all_algorithms(self):
        for name in ALGORITHMS:
            compiled = compile_algorithm(name)
            assert "public class" in compiled.java_source

    def test_balanced_braces(self):
        for name in ALGORITHMS:
            src = compile_algorithm(name).java_source
            assert src.count("{") == src.count("}"), name

    def test_message_class_has_serialization(self):
        src = compile_algorithm("pagerank").java_source
        assert "public void write(DataOutput out)" in src
        assert "public void readFields(DataInput in)" in src

    def test_tagged_message_class_switches_on_tag(self):
        src = compile_algorithm("bc_approx").java_source
        assert "byte tag;" in src
        assert "switch (tag)" in src

    def test_untagged_program_has_no_tag_field(self):
        src = compile_algorithm("pagerank").java_source
        assert "byte tag;" not in src

    def test_vertex_switch_covers_phases(self):
        compiled = compile_algorithm("sssp")
        for pid in compiled.ir.phases:
            assert f"do_state_{pid}" in compiled.java_source

    def test_master_state_machine_broadcasts_state(self):
        src = compile_algorithm("avg_teen_cnt").java_source
        assert 'putGlobal("_state"' in src
        assert "haltComputation();" in src

    def test_edge_property_send_iterates_edges(self):
        src = compile_algorithm("sssp").java_source
        assert "for (Edge edge : getOutEdges())" in src

    def test_in_nbrs_program_builds_array(self):
        src = compile_algorithm("conductance").java_source
        assert "_in_nbrs" in src


class TestCompilationResult:
    def test_rule_row_matches_table3_names(self):
        from repro.transform.pipeline import TABLE3_ROWS

        row = compile_algorithm("bc_approx", emit_java=False).rule_row()
        assert set(row) == set(TABLE3_ROWS)
        assert row["BFS Traversal"] and row["Incoming Neighbors"]

    def test_canonical_source_exposed(self):
        result = compile_algorithm("avg_teen_cnt", emit_java=False)
        assert "Foreach" in result.canonical_source

    def test_compile_source_entry_point(self):
        result = compile_source(
            "Procedure tiny(G: Graph; x: N_P<Int>) { G.x = 1; }", emit_java=False
        )
        g = Graph.from_edges(2, [(0, 1)])
        run = result.program.run(g, {})
        assert run.outputs["x"] == [1, 1]

    def test_optimization_flags_respected(self):
        plain = compile_algorithm(
            "pagerank", state_merging=False, intra_loop_merging=False, emit_java=False
        )
        merged = compile_algorithm("pagerank", emit_java=False)
        assert len(plain.ir.phases) > len(merged.ir.phases)
