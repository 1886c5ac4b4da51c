"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.backends import get_backend, native_available
from repro.cli import _parse_fields, build_parser, main
from repro.curves import curve_by_name

BACKENDS = ("python", "engine", "native")
SCALAR_REPS = ("auto", "binary", "tau")
TABLE5 = "paar,rashidi,reyhani_hasan,imana2012,imana2016,thiswork"
FIELD = {"m": (("-m",), 8, None), "n": (("-n",), 2, None)}
CACHE = {
    "cache_dir": (("--cache-dir",), None, None),
    "no_cache": (("--no-cache",), False, None),
    "jobs": (("--jobs",), 1, None),
}
BACKEND = {"backend": (("--backend",), None, BACKENDS)}
TRACE = {"trace_out": (("--trace-out",), argparse.SUPPRESS, None)}

#: Every subcommand's options as ``{dest: (option strings, default, choices)}``.
SURFACE = {
    "tables": {**FIELD, "which": (("--which",), "all", ("1", "2", "3", "4", "all"))},
    "methods": {},
    "fields": {},
    "generate": {**FIELD, "method": (("--method",), "thiswork", None)},
    "implement": {
        **FIELD,
        "method": (("--method",), "thiswork", None),
        "effort": (("--effort",), 2, None),
    },
    "compare": {
        "fields": (("--fields",), "8:2,64:23", None),
        "methods": (("--methods",), TABLE5, None),
        "effort": (("--effort",), 2, None),
        "paper": (("--paper",), False, None),
        "claims": (("--claims",), False, None),
        **CACHE,
    },
    "sweep": {
        **TRACE,
        "fields": (("--fields",), "paper", None),
        "methods": (("--methods",), TABLE5, None),
        "devices": (("--devices",), "artix7", None),
        "efforts": (("--efforts",), "2", None),
        "format": (("--format",), "table", ("table", "json", "csv")),
        "stats": (("--stats",), False, None),
        **CACHE,
    },
    "emit": {
        **FIELD,
        "method": (("--method",), "thiswork", None),
        "language": (("--language",), "vhdl", ("vhdl", "vhdl-behavioral", "verilog")),
        "testbench": (("--testbench",), False, None),
        "output": (("--output",), "-", None),
    },
    "batch": {
        **BACKEND, **TRACE, **FIELD,
        "method": (("--method",), None, None),
        "count": (("--count",), 1000, None),
        "seed": (("--seed",), 2018, None),
        "input": (("--input",), None, None),
        "chunk_size": (("--chunk-size",), None, None),
        "check": (("--check",), False, None),
        "stats": (("--stats",), False, None),
        "output": (("--output",), "-", None),
    },
    "bench": {
        **BACKEND, **TRACE, **FIELD,
        "method": (("--method",), None, None),
        "check": (("--check",), False, None),
        "pairs": (("--pairs",), 2048, None),
        "quick": (("--quick",), False, None),
        "describe": (("--describe",), False, None),
        "profile": (("--profile",), False, None),
    },
    "curves": {},
    "ecdh": {
        **BACKEND, **TRACE,
        "curve": (("--curve",), "B-163", None),
        "batch": (("--batch",), 64, None),
        "jobs": (("--jobs",), 1, None),
        "start_method": (("--start-method",), None, None),
        "seed": (("--seed",), 2018, None),
        "check": (("--check",), 0, None),
        "scalar_rep": (("--scalar-rep",), "auto", SCALAR_REPS),
    },
    "keygen": {
        **BACKEND, **TRACE,
        "curve": (("--curve",), "K-163", None),
        "batch": (("--batch",), 256, None),
        "seed": (("--seed",), 2018, None),
        "path": (("--path",), "auto", ("auto", "comb", "ladder")),
        "scalar_rep": (("--scalar-rep",), "auto", SCALAR_REPS),
        "check": (("--check",), 0, None),
    },
    "serve": {
        **BACKEND, **TRACE,
        "host": (("--host",), "127.0.0.1", None),
        "port": (("--port",), 8742, None),
        "curves": (("--curves",), "B-163,K-163", None),
        "max_lanes": (("--max-lanes",), 256, None),
        "workers": (("--workers",), None, None),
        "start_method": (("--start-method",), None, None),
        "seed": (("--seed",), None, None),
    },
    "loadgen": {
        "host": (("--host",), "127.0.0.1", None),
        "port": (("--port",), 8742, None),
        "op": (("--op",), "ecdh", ("ecdh", "keygen", "sign")),
        "curve": (("--curve",), "B-163", None),
        "clients": (("--clients",), 64, None),
        "requests": (("--requests",), 4, None),
        "seed": (("--seed",), 0, None),
        "scalar_rep": (("--scalar-rep",), "auto", SCALAR_REPS),
        "check": (("--check",), 4, None),
        "connect_timeout": (("--connect-timeout",), 30.0, None),
        "stats": (("--stats",), False, None),
    },
    "stats": {"format": (("--format",), "table", ("table", "json"))},
    "dashboard": {
        "dir": (("--dir",), ".", None),
        "format": (("--format",), "markdown", ("markdown", "html")),
        "output": (("--output",), "-", None),
        "tolerance": (("--tolerance",), 0.1, None),
        "check": (("--check",), False, None),
        "strict": (("--strict",), False, None),
    },
}


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["methods"]).command == "methods"
        assert parser.parse_args(["tables", "-m", "8", "-n", "2"]).m == 8
        assert parser.parse_args(["compare", "--fields", "8:2"]).fields == "8:2"

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_subcommand_surface(self, command, capsys, monkeypatch):
        """Each subcommand keeps its flags, defaults and choices, and its help runs."""
        from repro.backends import registry

        # Other tests register extra backends process-wide; the --backend
        # choices are pinned against the built-in four.
        monkeypatch.setattr(registry, "_FACTORIES", {name: registry._FACTORIES[name] for name in BACKENDS})
        parser = build_parser()
        subparsers = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subparsers) == sorted(SURFACE)
        surface = {
            action.dest: (
                tuple(action.option_strings),
                action.default,
                None if action.choices is None else tuple(action.choices),
            )
            for action in subparsers[command]._actions
            if action.dest != "help"
        }
        assert surface == SURFACE[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: gf2m-repro {command}" in capsys.readouterr().out


class TestCommands:
    def test_methods_lists_all_constructions(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("thiswork", "imana2016", "paar", "rashidi"):
            assert name in out

    def test_fields_lists_catalog(self, capsys):
        assert main(["fields"]) == 0
        out = capsys.readouterr().out
        assert "(163,66)" in out and "NIST" in out

    def test_tables_command_prints_paper_rows(self, capsys):
        assert main(["tables", "-m", "8", "-n", "2", "--which", "1"]) == 0
        out = capsys.readouterr().out
        assert "c0 = S1 + T0 + T4 + T5 + T6;" in out

    def test_generate_command(self, capsys):
        assert main(["generate", "-m", "8", "-n", "2", "--method", "imana2016"]) == 0
        out = capsys.readouterr().out
        assert "imana2016" in out and "verified" in out

    def test_implement_command(self, capsys):
        assert main(["implement", "-m", "8", "-n", "2", "--method", "thiswork", "--effort", "1"]) == 0
        out = capsys.readouterr().out
        assert "luts" in out and "delay_ns" in out

    def test_compare_command_with_claims(self, capsys):
        assert main(["compare", "--fields", "8:2", "--methods", "thiswork,imana2016", "--effort", "1", "--claims"]) == 0
        out = capsys.readouterr().out
        assert "thiswork" in out and "proposed_beats_parenthesized" in out

    def test_compare_command_with_paper_columns(self, capsys):
        assert main(["compare", "--fields", "8:2", "--methods", "thiswork", "--effort", "1", "--paper"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_emit_vhdl_to_stdout(self, capsys):
        assert main(["emit", "-m", "8", "-n", "2", "--language", "vhdl"]) == 0
        assert "entity gf2m_multiplier is" in capsys.readouterr().out

    def test_emit_verilog_with_testbench_to_file(self, tmp_path, capsys):
        output = tmp_path / "mult.v"
        assert main([
            "emit", "-m", "8", "-n", "2", "--language", "verilog", "--testbench",
            "--output", str(output),
        ]) == 0
        text = output.read_text()
        assert "module gf2m_multiplier" in text and "tb_gf2m_multiplier" in text

    def test_emit_behavioral_vhdl(self, capsys):
        assert main(["emit", "-m", "8", "-n", "2", "--language", "vhdl-behavioral", "--method", "imana2016"]) == 0
        assert "architecture behavioral" in capsys.readouterr().out


class TestBatchCommand:
    def test_random_batch_with_check_and_stats(self, capsys):
        assert main(["batch", "-m", "8", "-n", "2", "--count", "32", "--check", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "all match" in out and "products/s" in out and "multiplier cache" in out
        # 32 products of two hex digits each, then the reporting lines.
        products = [line for line in out.splitlines() if len(line) == 2]
        assert len(products) == 32

    def test_batch_from_input_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# comment line\n57 83\n01 01\n\n00 ff\n")
        output = tmp_path / "products.txt"
        assert main([
            "batch", "-m", "8", "-n", "2", "--input", str(pairs), "--output", str(output),
        ]) == 0
        # 0x57·0x83 = 0x31 under the paper's pentanomial y^8+y^4+y^3+y^2+1
        # (not 0xc1 as under the AES polynomial).
        assert output.read_text().splitlines() == ["31", "01", "00"]
        assert "wrote 3 products" in capsys.readouterr().out

    def test_batch_rejects_malformed_input(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("deadbeef\n")
        with pytest.raises(SystemExit):
            main(["batch", "-m", "8", "-n", "2", "--input", str(pairs)])

    def test_batch_rejects_non_hex_input(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("zz 12\n")
        with pytest.raises(SystemExit, match="hexadecimal"):
            main(["batch", "-m", "8", "-n", "2", "--input", str(pairs)])

    def test_batch_rejects_out_of_range_operand(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1ff 03\n")
        with pytest.raises(SystemExit, match="wider than m=8"):
            main(["batch", "-m", "8", "-n", "2", "--input", str(pairs)])

    def test_batch_missing_input_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["batch", "-m", "8", "-n", "2", "--input", "/no/such/file"])

    def test_empty_batch(self, capsys):
        assert main(["batch", "-m", "8", "-n", "2", "--count", "0"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("backend", ["python", "engine"])
    def test_batch_backends_agree_with_reference(self, backend, capsys):
        assert main(
            ["batch", "-m", "16", "-n", "3", "--count", "32", "--check",
             "--backend", backend, "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "all match" in out and backend in out

    def test_batch_python_backend_rejects_a_method(self):
        with pytest.raises(SystemExit, match="evaluates no circuit"):
            main(["batch", "-m", "8", "-n", "2", "--backend", "python", "--method", "thiswork"])


class TestBenchCommand:
    def test_quick_bench_reports_both_paths(self, capsys):
        assert main(["bench", "-m", "16", "-n", "3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "interpreted" in out and "compiled" in out and "speedup" in out

    @pytest.mark.parametrize("backend", ["python", "engine"])
    def test_bench_backend_cross_check(self, backend, capsys):
        assert main(
            ["bench", "-m", "16", "-n", "3", "--quick", "--backend", backend, "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "scalar ref" in out and "speedup" in out
        assert "checked" in out and "all match" in out

    def test_bench_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--backend", "no_such_backend"])

    def test_bench_honours_the_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("GF2M_REPRO_BACKEND", "python")
        assert main(["bench", "-m", "16", "-n", "3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "scalar ref" in out and "interpreted" not in out

    def test_bench_env_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("GF2M_REPRO_BACKEND", "no_such_backend")
        with pytest.raises(SystemExit, match="no_such_backend"):
            main(["bench", "-m", "16", "-n", "3", "--quick"])

    @pytest.mark.parametrize(
        "extra, pairs",
        [([], "0"), (["--backend", "python"], "0"), (["--backend", "python"], "-4")],
    )
    def test_bench_rejects_fewer_than_one_pair(self, extra, pairs):
        with pytest.raises(SystemExit, match="--pairs must be at least 1"):
            main(["bench", "-m", "16", "-n", "3", "--pairs", pairs, *extra])


class TestParseFields:
    def test_paper_keyword(self):
        assert len(_parse_fields("paper")) == 9

    def test_explicit_pairs_with_spaces(self):
        assert _parse_fields(" 8:2 , 16:3 ") == [(8, 2), (16, 3)]

    @pytest.mark.parametrize("bad", ["8", "8:", ":2", "8:two", "8;2", "m:n"])
    def test_malformed_spec_exits_with_clear_message(self, bad):
        with pytest.raises(SystemExit, match="invalid field spec"):
            _parse_fields(bad)

    def test_empty_spec_exits(self):
        with pytest.raises(SystemExit, match="no fields"):
            _parse_fields(" , ")

    def test_out_of_range_field_exits_cleanly(self):
        with pytest.raises(SystemExit, match="invalid field spec '163:999'"):
            _parse_fields("163:999")

    def test_compare_command_reports_malformed_fields(self, capsys):
        with pytest.raises(SystemExit, match="expected 'm:n'"):
            main(["compare", "--fields", "8x2", "--no-cache"])


class TestSweepCommand:
    ARGS = ["sweep", "--fields", "8:2", "--methods", "thiswork", "--efforts", "1"]

    def test_sweep_table_output(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "thiswork" in captured.out and "(8,2)" in captured.out
        assert "cache: disabled" in captured.err

    def test_sweep_warm_cache_reports_hits(self, tmp_path, capsys):
        cache_args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(cache_args) == 0
        assert "1 misses" in capsys.readouterr().err
        assert main(cache_args) == 0
        assert "1 hits, 0 misses" in capsys.readouterr().err

    def test_sweep_parallel_json_output(self, capsys):
        import json

        assert main([
            "sweep", "--fields", "8:2,16:3", "--methods", "thiswork,imana2016",
            "--efforts", "1", "--jobs", "2", "--format", "json", "--no-cache",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4 and {row["method"] for row in rows} == {"thiswork", "imana2016"}

    def test_sweep_multi_effort_csv(self, capsys):
        assert main(self.ARGS[:-1] + ["1,2", "--format", "csv", "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,") and len(lines) == 3

    def test_sweep_stats_lines(self, capsys):
        assert main(self.ARGS + ["--no-cache", "--stats"]) == 0
        assert "[miss]" in capsys.readouterr().err

    def test_sweep_refuses_backend(self, capsys):
        # The flow's rows depend on no execution backend, so sweep takes none.
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--backend", "engine", "--no-cache"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend engine" in capsys.readouterr().err

    def test_sweep_rejects_unknown_device(self):
        with pytest.raises(SystemExit, match="unknown device"):
            main(self.ARGS + ["--devices", "asic", "--no-cache"])

    def test_sweep_rejects_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown multiplier method"):
            main(["sweep", "--fields", "8:2", "--methods", "nope", "--no-cache"])

    def test_sweep_rejects_empty_method_list(self):
        with pytest.raises(SystemExit, match="no methods given"):
            main(["sweep", "--fields", "8:2", "--methods", ",", "--no-cache"])

    def test_sweep_rejects_empty_device_list(self):
        with pytest.raises(SystemExit, match="no devices given"):
            main(self.ARGS + ["--devices", ",", "--no-cache"])

    def test_compare_rejects_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown multiplier method"):
            main(["compare", "--fields", "8:2", "--methods", "nope", "--no-cache"])

    def test_sweep_rejects_bad_efforts(self):
        with pytest.raises(SystemExit, match="invalid effort"):
            main(self.ARGS[:-1] + ["one", "--no-cache"])

    def test_compare_with_jobs_and_cache(self, tmp_path, capsys):
        args = [
            "compare", "--fields", "8:2", "--methods", "thiswork", "--effort", "1",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestCurvesCommand:
    def test_curves_lists_catalog(self, capsys):
        assert main(["curves"]) == 0
        out = capsys.readouterr().out
        for name in ("T-13", "K-163", "B-163", "K-571", "B-571"):
            assert name in out
        assert "unknown" in out          # the B-family has no recorded order
        assert "163-bit n" in out        # K-163 does


class TestEcdhCommand:
    def test_ecdh_toy_curve_agrees(self, capsys):
        assert main(["ecdh", "--curve", "T-13", "--batch", "8", "--check", "4"]) == 0
        out = capsys.readouterr().out
        assert "all 8 shared secrets agree" in out
        assert "byte-identical" in out
        assert "ops/s" in out

    def test_ecdh_case_insensitive_curve(self, capsys):
        assert main(["ecdh", "--curve", "t-13", "--batch", "2"]) == 0
        assert "shared secrets agree" in capsys.readouterr().out

    def test_ecdh_with_jobs_sharding(self, capsys):
        assert main(["ecdh", "--curve", "T-13", "--batch", "6", "--jobs", "2", "--check", "6"]) == 0
        out = capsys.readouterr().out
        assert "all 6 shared secrets agree" in out and "byte-identical" in out

    def test_ecdh_jobs_with_explicit_start_method(self, capsys):
        assert main([
            "ecdh", "--curve", "T-13", "--batch", "4", "--jobs", "2",
            "--start-method", "fork", "--check", "4",
        ]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_ecdh_jobs_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start method"):
            main(["ecdh", "--curve", "T-13", "--batch", "4", "--jobs", "2",
                  "--start-method", "warp"])

    def test_serve_rejects_unknown_curve(self):
        with pytest.raises(SystemExit, match="unknown curve"):
            main(["serve", "--curves", "P-256"])

    def test_serve_rejects_empty_curve_list(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["serve", "--curves", ","])

    def test_loadgen_reports_unreachable_service(self):
        with pytest.raises(SystemExit, match="cannot reach the service"):
            main(["loadgen", "--curve", "T-13", "--port", "1", "--clients", "1",
                  "--requests", "1", "--connect-timeout", "0.2"])

    def test_loadgen_rejects_bad_counts(self):
        with pytest.raises(SystemExit, match="at least 1"):
            main(["loadgen", "--clients", "0"])

    def test_ecdh_rejects_unknown_curve(self):
        with pytest.raises(SystemExit, match="unknown curve"):
            main(["ecdh", "--curve", "P-256"])

    def test_ecdh_rejects_bad_batch(self):
        with pytest.raises(SystemExit, match="--batch"):
            main(["ecdh", "--curve", "T-13", "--batch", "0"])

    @pytest.mark.parametrize("backend", ["python", "engine"])
    def test_ecdh_backend_selection(self, backend, capsys):
        assert main(
            ["ecdh", "--curve", "T-13", "--batch", "4", "--check", "2", "--backend", backend]
        ) == 0
        out = capsys.readouterr().out
        assert f"backend {backend}" in out and "byte-identical" in out

    @pytest.mark.parametrize(
        "backend, label",
        [
            ("native", "native"),
            ("engine", "interpreted"),
            ("python", "interpreted"),
        ],
    )
    def test_ecdh_ladder_follows_the_backend(self, backend, label, capsys):
        # The label names the executor the backend's ladder runs on.
        if backend == "native" and not native_available():
            pytest.skip("native extension not buildable here")
        assert main(
            ["ecdh", "--curve", "T-13", "--batch", "4", "--check", "4", "--backend", backend]
        ) == 0
        out = capsys.readouterr().out
        # T-13 is Koblitz, so the auto scalar-rep annotates the label
        # ("(native executor, tau-adic scalars)").
        assert f"({label} executor, tau-adic scalars)" in out and "byte-identical" in out

    def test_ecdh_default_ladder_reports_the_path(self, capsys):
        field = curve_by_name("T-13").field
        backend = get_backend(None, field)
        assert main(["ecdh", "--curve", "T-13", "--batch", "2"]) == 0
        label = f"backend {backend.name} ({backend.ir_executor().kind} executor"
        assert label in capsys.readouterr().out


class TestKeygenCommand:
    @pytest.fixture(autouse=True)
    def cold_comb_tables(self):
        """A fresh registry and no in-memory comb table: a comb run builds one."""
        from repro.curves import scalarmul
        from repro.telemetry import metrics

        previous = metrics.set_registry(metrics.MetricsRegistry())
        scalarmul._COMB_CACHE.clear()
        yield
        metrics.set_registry(previous)

    @pytest.mark.parametrize(
        "path, label, rides_comb",
        [
            ("comb", "path comb:", True),
            ("ladder", "path ladder:", False),
            ("auto", "path auto (comb when covered):", True),
        ],
    )
    def test_every_path_matches_the_scalar_ladder(self, path, label, rides_comb, capsys):
        assert main(["keygen", "--curve", "T-13", "--batch", "8", "--path", path,
                     "--check", "4"]) == 0
        out = capsys.readouterr().out
        assert "checked 4 public keys against the scalar-ladder reference: byte-identical" in out
        assert label in out and "8 key pairs" in out
        assert ("comb table: 1 build(s), 0 store hit(s)" in out) == rides_comb

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--curve", "T-13", "--batch", "0"], "--batch must be at least 1"),
            (["--curve", "T-13", "--check", "-1"], "--check must be non-negative"),
            (["--curve", "P-256"], "unknown curve 'P-256'"),
        ],
    )
    def test_bad_arguments_exit_cleanly(self, args, message):
        with pytest.raises(SystemExit, match=message):
            main(["keygen", *args])


class TestStatsCommand:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.telemetry import metrics

        previous = metrics.set_registry(metrics.MetricsRegistry())
        yield
        metrics.set_registry(previous)

    def test_stats_table_lists_sections_and_named_caches(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for section in ("counters", "timings", "caches"):
            assert section in out
        for cache in ("multipliers", "ir.programs", "backends.instances"):
            assert cache in out

    def test_stats_json_is_parseable_snapshot(self, capsys):
        import json

        assert main(["stats", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"metrics", "caches"}
        assert "multipliers" in snapshot["caches"]

    def test_warm_sweep_rerun_shows_nonzero_artifact_hits(self, tmp_path, capsys):
        cache_args = ["sweep", "--fields", "8:2", "--methods", "thiswork",
                      "--efforts", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(cache_args) == 0
        assert main(cache_args) == 0
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "artifact_store.hits" in out
        assert "sweep.jobs.cache_hit" in out
        assert "sweep.job.seconds" in out

    def test_batch_command_records_backend_batch_counters(self, capsys):
        assert main(["batch", "-m", "8", "-n", "2", "--count", "16",
                     "--backend", "python"]) == 0
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "backend.python.multiply_batch.calls" in out
        assert "backend.python.multiply_batch.elements" in out
        assert "cli.batch.multiply" in out


class TestSweepStatsCorrespondence:
    def test_stats_lines_match_job_outcomes(self):
        from repro.pipeline.sweep import format_outcome_stats, run_sweep

        result = run_sweep(fields=[(8, 2)], methods=["thiswork"], efforts=[1])
        lines = format_outcome_stats(result.outcomes)
        assert len(lines) == len(result.outcomes)
        for line, outcome in zip(lines, result.outcomes):
            assert ("[hit ]" if outcome.cache_hit else "[miss]") in line
            assert outcome.job.label in line
            assert f"{outcome.elapsed_s * 1000:.1f} ms" in line

    def test_cli_sweep_stats_prints_the_same_lines(self, capsys):
        assert main(["sweep", "--fields", "8:2", "--methods", "thiswork",
                     "--efforts", "1", "--no-cache", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "[miss] thiswork@(8,2)" in err and " ms" in err


class TestTraceOut:
    def test_ecdh_trace_out_writes_parseable_chrome_trace(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["--trace-out", str(path), "ecdh", "--curve", "B-163",
                     "--batch", "64"]) == 0
        err = capsys.readouterr().err
        assert "trace events" in err
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        # The acceptance span set: pack, the step loop (native runs it in C,
        # traced or not, under one span per chunk; the other backends under
        # one span per step), the fused passes, unpack, and the final
        # batched inversion.
        steps, absent = ("ladder.steps", "ladder.step") if native_available() else ("ladder.step", "ladder.steps")
        assert "ladder.pack" in names
        assert steps in names and absent not in names
        assert "ladder.unpack" in names
        assert "ladder.inverse_batch" in names
        assert any(name.startswith("ir.pass.") for name in names)
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0.0

    def test_trace_out_flag_works_after_the_subcommand_too(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["ecdh", "--curve", "T-13", "--batch", "4",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["traceEvents"]

    def test_tracer_is_restored_after_a_traced_run(self, tmp_path):
        from repro.telemetry import trace

        main(["--trace-out", str(tmp_path / "t.json"), "ecdh", "--curve", "T-13",
              "--batch", "2"])
        assert not trace.TRACER.enabled


class TestBenchProfile:
    def test_profile_prints_per_pass_breakdown(self, capsys):
        assert main(["bench", "-m", "163", "-n", "66", "--backend", "engine",
                     "--profile", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "through the Python step loop, traced per pass" in out
        assert "ir.pass.00" in out
        assert "(outside passes)" in out
        assert "ms in the Python step loop" in out and "ladder-step-lanes/s" in out
        assert "native batches" not in out

    def test_profile_times_native_passes_through_the_python_step_loop(self, capsys):
        if not native_available():
            pytest.skip("native extension not buildable here")
        assert main(["bench", "-m", "163", "-n", "66", "--backend", "native",
                     "--profile", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ir.pass.00" in out and "(outside passes)" in out
        # The total times a loop native batches never run: the output says so.
        assert "through the Python step loop, traced per pass" in out
        assert "ms in the Python step loop" in out
        assert "native batches run this step loop in C" in out

    def test_profile_runs_on_the_interpreting_executor(self, capsys):
        assert main(["bench", "-m", "8", "-n", "2", "--backend", "python",
                     "--profile", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "python[scalar]" in out and "ir.pass.00.select" in out
        assert "ladder-step-lanes/s" in out


class TestDashboardCommand:
    def _write_fixture(self, tmp_path, latest_rate):
        import json

        snapshots = [
            {"bench": "fixture", "commit_pr": 7,
             "config": {"platform": {"python": "3", "machine": "x"}},
             "results": [{"backend": "native", "m": 163, "rate": 1000.0}]},
            {"bench": "fixture", "commit_pr": 8,
             "config": {"platform": {"python": "3", "machine": "x"}},
             "results": [{"backend": "native", "m": 163, "rate": latest_rate}]},
        ]
        (tmp_path / "BENCH_fixture.json").write_text(json.dumps(snapshots))

    def test_dashboard_renders_markdown_with_flag(self, tmp_path, capsys):
        self._write_fixture(tmp_path, latest_rate=500.0)
        assert main(["dashboard", "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "# Perf trajectory" in captured.out and "⚠" in captured.out
        assert "1 regression flag(s)" in captured.err

    def test_dashboard_check_is_warn_only(self, tmp_path, capsys):
        self._write_fixture(tmp_path, latest_rate=500.0)
        assert main(["dashboard", "--dir", str(tmp_path), "--check"]) == 0
        err = capsys.readouterr().err
        assert "WARN" in err and "-50.0%" in err

    def test_dashboard_tolerance_silences_small_drops(self, tmp_path, capsys):
        self._write_fixture(tmp_path, latest_rate=900.0)
        assert main(["dashboard", "--dir", str(tmp_path), "--check",
                     "--tolerance", "0.2"]) == 0
        assert "no regressions flagged" in capsys.readouterr().err

    def test_dashboard_html_output_to_file(self, tmp_path, capsys):
        self._write_fixture(tmp_path, latest_rate=1100.0)
        out_file = tmp_path / "dash.html"
        assert main(["dashboard", "--dir", str(tmp_path), "--format", "html",
                     "--output", str(out_file)]) == 0
        assert out_file.read_text().startswith("<!DOCTYPE html>")

    def test_dashboard_names_a_malformed_file(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{broken")
        with pytest.raises(SystemExit, match="BENCH_bad.json"):
            main(["dashboard", "--dir", str(tmp_path)])

    def test_dashboard_empty_directory_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no BENCH_"):
            main(["dashboard", "--dir", str(tmp_path)])
