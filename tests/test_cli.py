"""CLI tests: every subcommand exercised through ``main(argv)``."""

import pytest

from repro.algorithms.sources import source_path
from repro.cli import main


def gm(name: str) -> str:
    return str(source_path(name))


class TestCompileCommand:
    def test_emit_states(self, capsys):
        assert main(["compile", gm("pagerank"), "--emit", "states"]) == 0
        out = capsys.readouterr().out
        assert "PregelIR pagerank" in out
        assert "applied rules" in out

    def test_emit_java(self, capsys):
        assert main(["compile", gm("sssp"), "--emit", "java"]) == 0
        assert "public class Sssp" in capsys.readouterr().out

    def test_emit_canonical(self, capsys):
        assert main(["compile", gm("avg_teen_cnt"), "--emit", "canonical"]) == 0
        assert "Foreach" in capsys.readouterr().out

    def test_emit_python(self, capsys):
        assert main(["compile", gm("bc_approx"), "--emit", "python"]) == 0
        out = capsys.readouterr().out
        assert "PHASE_LOOPS = {" in out
        assert "def MASTER_STEP(ctx, M, pc):" in out

    def test_optimization_flags(self, capsys):
        main(["compile", gm("pagerank"), "--emit", "states"])
        merged = capsys.readouterr().out
        main(["compile", gm("pagerank"), "--emit", "states", "--no-intra-loop", "--no-state-merging"])
        plain = capsys.readouterr().out
        assert plain.count("phase") > merged.count("phase")

    def test_bad_program_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gm"
        bad.write_text(
            "Procedure p(G: Graph): Int { Foreach (n: G.Nodes) { Return 1; } }"
        )
        assert main(["compile", str(bad)]) == 1
        assert "not pregel-canonical" in capsys.readouterr().err


class TestRunCommand:
    def test_run_avg_teen(self, capsys):
        code = main(
            ["run", gm("avg_teen_cnt"), "--arg", "K=30", "--scale", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "result:" in out and "output teen_cnt" in out

    def test_run_on_edge_list_file(self, tmp_path, capsys):
        from repro.graphgen import load_graph, save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(load_graph("twitter", 0.05), path)
        code = main(["run", gm("pagerank"), "--graph-file", str(path),
                     "--arg", "e=1e-9", "--arg", "d=0.85", "--arg", "max_iter=3"])
        assert code == 0
        assert "metrics:" in capsys.readouterr().out


class TestObservabilityFlags:
    ARGS = ["--scale", "0.05", "--arg", "e=1e-9", "--arg", "d=0.85", "--arg", "max_iter=3"]

    def test_metrics_json_is_the_complete_ledger(self, tmp_path):
        import dataclasses
        import json

        from repro.pregel.runtime import RunMetrics

        path = tmp_path / "metrics.json"
        code = main(["run", gm("pagerank"), *self.ARGS, "--metrics-json", str(path)])
        assert code == 0
        ledger = json.loads(path.read_text())
        assert set(ledger) == {f.name for f in dataclasses.fields(RunMetrics)}
        assert ledger["supersteps"] > 0 and ledger["halt_reason"]

    def test_trace_writes_jsonl_event_log(self, tmp_path):
        from repro.obs import load_jsonl

        path = tmp_path / "trace.jsonl"
        code = main(["run", gm("pagerank"), *self.ARGS, "--trace", str(path)])
        assert code == 0
        events = load_jsonl(path)
        names = [e["name"] for e in events]
        # one coherent timeline: compiler passes, then the engine's run
        assert "compile.pass" in names and "compile.rules" in names
        assert "run.begin" in names and "superstep" in names and "run.end" in names
        assert names.index("compile.rules") < names.index("run.begin")

    def test_trace_chrome_writes_valid_trace_json(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code = main(["run", gm("pagerank"), *self.ARGS, "--trace-chrome", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_subcommand_prints_timeline(self, capsys):
        code = main(["trace", gm("pagerank"), *self.ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "step" in out and "vertex ms" in out and "mode" in out
        assert "metrics:" in out

    def test_profile_subcommand_prints_worker_loads(self, capsys):
        code = main(["profile", gm("pagerank"), *self.ARGS, "--workers", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-worker totals" in out
        assert "compute ms" in out and "share" in out
        # one row per worker: the totals table has header + rule + 3 rows
        table = out.split("per-worker totals ==\n")[1].splitlines()
        assert [row.split()[0] for row in table[2:5]] == ["0", "1", "2"]

    def test_traced_faulted_run(self, tmp_path):
        # tracing composes with fault injection on the CLI
        from repro.obs import load_jsonl

        path = tmp_path / "trace.jsonl"
        code = main(
            [
                "run",
                gm("pagerank"),
                *self.ARGS,
                "--checkpoint-every",
                "2",
                "--inject-fault",
                "1@3",
                "--trace",
                str(path),
            ]
        )
        assert code == 0
        names = [e["name"] for e in load_jsonl(path)]
        assert "ft.checkpoint" in names and "ft.crash" in names and "ft.recovery" in names


class TestInterpCommand:
    def test_interp_matches_run(self, capsys):
        main(["interp", gm("avg_teen_cnt"), "--arg", "K=30", "--scale", "0.05"])
        interp_out = capsys.readouterr().out
        main(["run", gm("avg_teen_cnt"), "--arg", "K=30", "--scale", "0.05"])
        run_out = capsys.readouterr().out
        interp_result = next(l for l in interp_out.splitlines() if l.startswith("result:"))
        run_result = next(l for l in run_out.splitlines() if l.startswith("result:"))
        assert interp_result == run_result


class TestArgParsing:
    def test_value_types(self, capsys):
        # booleans, ints and floats all parse
        code = main(["run", gm("pagerank"), "--scale", "0.05",
                     "--arg", "e=0.001", "--arg", "d=0.85", "--arg", "max_iter=2"])
        assert code == 0

    def test_malformed_arg(self):
        with pytest.raises(SystemExit):
            main(["run", gm("pagerank"), "--arg", "notanassignment"])


PAGERANK_ARGS = ["--arg", "e=1e-9", "--arg", "d=0.85", "--arg", "max_iter=3"]


def _usage_error(capsys, argv) -> str:
    """Run argv, assert the exit-2 one-line contract, return the message."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("gm-pregel: error:")
    assert stderr.count("\n") == 1  # one line, no traceback
    return stderr


class TestUsageErrors:
    """Malformed flags die with exit code 2 and a one-line message."""

    def test_malformed_inject_fault(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--checkpoint-every", "2", "--inject-fault", "banana"],
        )
        assert "--inject-fault" in msg

    @pytest.mark.parametrize("scale", ["0", "-1", "17"])
    def test_out_of_range_scale(self, capsys, scale):
        msg = _usage_error(
            capsys, ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", scale]
        )
        assert "--scale" in msg

    @pytest.mark.parametrize("workers", ["0", "-2", "5000"])
    def test_out_of_range_workers(self, capsys, workers):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--workers", workers],
        )
        assert "--workers" in msg

    def test_interp_validates_shape_too(self, capsys):
        _usage_error(
            capsys, ["interp", gm("avg_teen_cnt"), "--arg", "K=30", "--scale", "0"]
        )

    def test_malformed_arg_message(self, capsys):
        msg = _usage_error(
            capsys, ["run", gm("pagerank"), "--arg", "notanassignment"]
        )
        assert "notanassignment" in msg

    def test_bad_net_faults_spec(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--net-faults", "drop=everything"],
        )
        assert "--net-faults" in msg

    def test_bad_heartbeat_spec(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--heartbeat", "phi=verysuspicious"],
        )
        assert "--heartbeat" in msg

    def test_negative_max_restarts(self, capsys):
        _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--heartbeat", "", "--max-restarts", "-1"],
        )

    def test_missing_graph_file(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS,
             "--graph-file", "/no/such/graph.txt"],
        )
        assert "graph.txt" in msg

    def test_corrupt_graph_file_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# nodes: 3\n0 1\n1 nine\n")
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--graph-file", str(bad)],
        )
        assert f"{bad}:3:" in msg

    def test_edge_above_its_node_count_header_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "late_header.txt"
        bad.write_text("0 5\n# nodes: 3\n1 2\n")
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--graph-file", str(bad)],
        )
        assert f"{bad}:1: dangling edge 0 -> 5" in msg

    @pytest.mark.parametrize("bad", ["banana", "0", "64k@9", "4k@x"])
    def test_bad_mem_budget_spec(self, capsys, bad):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", bad],
        )
        assert "--mem-budget" in msg

    def test_duplicate_mem_budget_specs(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "64k", "--mem-budget", "32k"],
        )
        assert "--mem-budget" in msg

    def test_spill_dir_without_budget(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--spill-dir", "/tmp"],
        )
        assert "--spill-dir" in msg

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("kill:banana", "expected kill:WORKER@STEP"),
            ("hang:1", "expected hang:WORKER@STEP"),
            ("boom:1@2", "unknown kind 'boom'"),
        ],
    )
    def test_malformed_real_fault_specs(self, capsys, spec, expected):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--checkpoint-every", "2",
             "--inject-fault", spec],
        )
        assert "--inject-fault" in msg
        assert expected in msg

    @pytest.mark.parametrize(
        "flags",
        [
            ["--inject-fault=0@-3"],
            ["--inject-fault=-1@2"],
            ["--backend", "mp", "--checkpoint-every", "1", "--inject-fault=kill:-1@2"],
            ["--heartbeat", "crash=-1@2"],
        ],
    )
    def test_negative_fault_coordinates(self, capsys, flags):
        # before the graph loads: the bad spec wins over a missing graph file
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--workers", "2",
             "--graph-file", "/nonexistent/never.el", *flags],
        )
        assert "both >= 0" in msg

    @pytest.mark.parametrize(
        "flags,expected",
        [
            (["--backend", "mp", "--checkpoint-every", "1", "--inject-fault", "hang:0@2",
              "--exchange-deadline", "nan"], "--exchange-deadline must be > 0"),
            (["--heartbeat", "interval=nan"], "heartbeat_interval"),
            (["--heartbeat", "phi=nan"], "phi_threshold"),
            (["--heartbeat", "deadline=nan"], "timeouts"),
            (["--heartbeat", "straggle-factor=nan"], "straggle_factor"),
            (["--net-faults", "latency=nan"], "latency_units"),
            (["--net-faults", "jitter=nan"], "jitter_units"),
        ],
    )
    def test_nan_fault_and_deadline_specs(self, capsys, flags, expected):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--graph-file", "/nonexistent/never.el",
             *flags],
        )
        assert expected in msg

    @pytest.mark.parametrize("command", ["run", "trace", "profile", "interp"])
    def test_missing_scalar_arg(self, capsys, command):
        msg = _usage_error(
            capsys,
            [command, gm("pagerank"), "--arg", "e=1e-9", "--arg", "d=0.85", "--scale", "0.05"],
        )
        assert "missing scalar argument 'max_iter'" in msg
        assert "--arg max_iter=" in msg

    @pytest.mark.parametrize("deadline", ["0", "-1.5"])
    def test_nonpositive_exchange_deadline(self, capsys, deadline):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--exchange-deadline", deadline],
        )
        assert "--exchange-deadline must be > 0" in msg

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_real_faults_refused_off_mp(self, capsys, kind):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--checkpoint-every", "2", "--inject-fault", f"{kind}:1@2"],
        )
        assert "real process faults" in msg
        assert "--backend mp" in msg

    def test_real_fault_worker_out_of_range(self, capsys):
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--workers", "2", "--checkpoint-every", "2",
             "--inject-fault", "kill:5@2"],
        )
        assert "names worker 5 but --workers is 2" in msg

    def test_malformed_fault_spec_fails_before_graph_load(self, capsys):
        # Builders run before the graph loads: the bad spec wins over a
        # graph file that does not even exist.
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS,
             "--checkpoint-every", "2", "--inject-fault", "kill:banana",
             "--backend", "mp", "--graph-file", "/nonexistent/never.el"],
        )
        assert "--inject-fault" in msg

    def test_help_documents_real_faults_and_deadline(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--exchange-deadline" in out
        assert "kill:W@S" in out
        assert "hang:W@S" in out


class TestUnreadableProgram:
    @pytest.mark.parametrize("command", ["compile", "run", "trace", "profile", "metrics", "interp"])
    def test_missing_file_or_directory_is_a_usage_error(self, capsys, tmp_path, command):
        for path in (tmp_path / "absent.gm", tmp_path):
            msg = _usage_error(capsys, [command, str(path)])
            assert f"cannot read {path}" in msg


class TestScalarArgumentTypes:
    """A scalar --arg its parameter's declared type cannot take: one line,
    exit 2, naming the parameter and the type — on every command that
    binds arguments."""

    @pytest.mark.parametrize(
        "alg, arg, named",
        [
            ("pagerank", "max_iter=abc", "'max_iter' must be Int"),
            ("pagerank", "max_iter=1.5", "'max_iter' must be Int"),
            ("pagerank", "max_iter=true", "'max_iter' must be Int"),
            ("pagerank", "e=x", "'e' must be Double"),
            ("pagerank", "d=false", "'d' must be Double"),
            ("sssp", "root=999999", "'root' must be Node"),
            ("sssp", "root=-2", "'root' must be Node"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "trace", "profile", "metrics", "interp"])
    def test_mistyped_argument_is_a_usage_error(self, capsys, command, alg, arg, named):
        args = {"pagerank": PAGERANK_ARGS, "sssp": []}[alg]
        msg = _usage_error(capsys, [command, gm(alg), *args, "--arg", arg, "--scale", "0.05"])
        assert named in msg

    @pytest.mark.parametrize("command", ["run", "interp"])
    def test_well_typed_arguments_still_run(self, capsys, command):
        # an int is a Double; NIL is a Node
        assert main([command, gm("pagerank"), "--arg", "e=0", "--arg", "d=1",
                     "--arg", "max_iter=2", "--scale", "0.05"]) == 0
        assert main([command, gm("sssp"), "--arg", "root=-1", "--scale", "0.05"]) == 0


class TestNetAndSupervisorFlags:
    @pytest.mark.parametrize(
        "spec", ["straggler=9", "straggler=-1", "crash=5@3", "crash=0@1+2@4"]
    )
    def test_heartbeat_worker_out_of_range_fails_before_load(self, capsys, spec):
        # the missing graph file is never reached: the flags alone refuse
        msg = _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--workers", "2",
             "--heartbeat", spec, "--graph-file", "/nonexistent/never.el"],
        )
        assert "--heartbeat" in msg

    def test_heartbeat_crash_and_straggler_on_columnar(self, capsys, tmp_path):
        import json

        ledgers, reports = {}, {}
        for backend in ("sim", "columnar"):
            path = tmp_path / f"{backend}.json"
            code = main(
                ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
                 "--backend", backend, "--checkpoint-every", "2",
                 "--heartbeat", "crash=1@2,straggler=2,strikes=1",
                 "--metrics-json", str(path)],
            )
            assert code == 0
            out = capsys.readouterr().out
            reports[backend] = [line for line in out.splitlines() if not line.startswith("metrics:")]
            ledgers[backend] = json.loads(path.read_text())
        assert reports["sim"] == reports["columnar"]
        assert any("declared dead" in line for line in reports["columnar"])
        sim, col = ledgers["sim"], ledgers["columnar"]
        assert sim["restarts"] == col["restarts"] == 1
        assert sim["workers_quarantined"] == col["workers_quarantined"] == 1
        assert col["vectorized_phases"] and not sim["vectorized_phases"]
        for ledger in ledgers.values():
            # provenance, and the pickled size of a checkpoint: the slab
            # plane decodes one message tuple per record where the
            # simulator's outbox shares one per neighbour broadcast
            for key in ("wall_seconds", "backend", "vectorized_phases", "checkpoint_bytes"):
                ledger.pop(key)
        assert sim == col

    def test_net_faults_run_meters_and_roundtrips_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--net-faults", "drop=0.1,dup=0.05,reorder=0.1,seed=7",
             "--metrics-json", str(path)],
        )
        assert code == 0
        ledger = json.loads(path.read_text())
        assert ledger["messages_dropped"] > 0
        assert ledger["messages_duplicated"] > 0
        assert ledger["packets_retransmitted"] > 0
        assert "transport: dropped=" in capsys.readouterr().out

    def test_heartbeat_detected_crash_prints_supervisor_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--checkpoint-every", "2", "--heartbeat", "crash=1@2",
             "--metrics-json", str(path)],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supervisor: worker 1 declared dead at superstep 2" in out
        assert "-> restarted" in out
        ledger = json.loads(path.read_text())
        assert ledger["restarts"] == 1
        assert ledger["heartbeats_missed"] > 0

    def test_exhausted_restart_budget_degrades(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--checkpoint-every", "2", "--heartbeat", "crash=1@2",
             "--max-restarts", "0", "--metrics-json", str(path)],
        )
        assert code == 0  # degraded, not dead: partial results still report
        out = capsys.readouterr().out
        assert "supervisor: DEGRADED (halt_reason=unrecoverable)" in out
        assert json.loads(path.read_text())["halt_reason"] == "unrecoverable"

    def test_trace_carries_net_and_supervisor_events(self, tmp_path):
        from repro.obs import load_jsonl

        path = tmp_path / "trace.jsonl"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--checkpoint-every", "2", "--net-faults", "drop=0.1,seed=7",
             "--heartbeat", "crash=1@2", "--trace", str(path)],
        )
        assert code == 0
        names = [e["name"] for e in load_jsonl(path)]
        assert "net.route" in names
        assert "supervisor.suspect" in names and "supervisor.restart" in names


class TestMemBudgetFlags:
    def test_tight_budget_spills_and_reports(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "8k", "--spill-dir", str(tmp_path),
             "--metrics-json", str(path)],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory: budget=8192" in out
        ledger = json.loads(path.read_text())
        assert ledger["halt_reason"] != "out_of_memory"
        assert ledger["spilled_bytes"] > 0
        # the private spill directory is always removed
        assert not list(tmp_path.glob("gm-pregel-mem-*"))

    def test_unsatisfiable_budget_reports_oom(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "64", "--metrics-json", str(path)],
        )
        assert code == 0  # degraded, not dead: structured report, no traceback
        out = capsys.readouterr().out
        assert "memory: OUT OF MEMORY" in out
        assert json.loads(path.read_text())["halt_reason"] == "out_of_memory"

    def test_targeted_worker_budget_accepted(self, capsys):
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "16k@1"],
        )
        assert code == 0
        assert "memory: budget=" in capsys.readouterr().out

    def test_spill_dir_is_created_if_missing(self, capsys, tmp_path):
        nested = tmp_path / "not" / "yet" / "there"
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "8k", "--spill-dir", str(nested)],
        )
        assert code == 0
        assert nested.is_dir() and not list(nested.iterdir())

    def test_unusable_spill_dir_is_a_usage_error(self, capsys):
        _usage_error(
            capsys,
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--mem-budget", "8k", "--spill-dir", "/dev/null/nope"],
        )


class TestRealFaultFlags:
    """End-to-end real process faults through the CLI (mp backend)."""

    needs_mp = pytest.mark.skipif(
        not __import__("repro.pregel.backend.mp", fromlist=["mp_available"]).mp_available(),
        reason="needs fork start-method and multiprocessing.shared_memory",
    )

    @needs_mp
    def test_kill_run_recovers_and_reports(self, capsys):
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--workers", "2", "--checkpoint-every", "2",
             "--inject-fault", "kill:1@1", "--exchange-deadline", "10"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=mp" in out
        assert "survived 1 worker crash(es)" in out

    @needs_mp
    def test_hang_run_times_out_and_recovers(self, capsys):
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--workers", "2", "--checkpoint-every", "2",
             "--recovery", "confined", "--inject-fault", "hang:0@1",
             "--exchange-deadline", "0.75"],
        )
        assert code == 0
        assert "survived 1 worker crash(es)" in capsys.readouterr().out

    @needs_mp
    def test_supervised_kill_prints_cause(self, capsys):
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--workers", "2", "--checkpoint-every", "2",
             "--heartbeat", "interval=1,phi=4,deadline=5",
             "--inject-fault", "kill:1@1", "--exchange-deadline", "10"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cause=died" in out
        assert "-> restarted" in out

    @needs_mp
    def test_unsupervised_degraded_run_says_so(self, capsys):
        # no --heartbeat: the mp parent detected the death and spent the
        # plan's budget, so recovery reports the partial result — the
        # latest checkpoint's superstep
        code = main(
            ["run", gm("pagerank"), *PAGERANK_ARGS, "--scale", "0.05",
             "--backend", "mp", "--workers", "2", "--checkpoint-every", "2",
             "--inject-fault", "kill:1@3", "--max-restarts", "0",
             "--exchange-deadline", "10"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "halt=unrecoverable" in out
        assert (
            "recovery: DEGRADED (halt_reason=unrecoverable) after 0/0 restart(s); "
            "partial result covers 2 superstep(s)"
        ) in out
        assert "supervisor:" not in out
