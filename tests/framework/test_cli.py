"""Unit tests for the command-line interface."""

import argparse
import gc

import pytest

from repro.cli import _parse_sdn, _parse_topology, build_parser, main
from repro.faults import get_canned
from repro.runner.jobs import SPEC_OPTIONS


class TestArgHelpers:
    def test_parse_sdn_list(self):
        assert _parse_sdn("3,5,7") == {3, 5, 7}

    def test_parse_sdn_range(self):
        assert _parse_sdn("5-8") == {5, 6, 7, 8}

    def test_parse_sdn_mixed(self):
        assert _parse_sdn("1,4-6") == {1, 4, 5, 6}

    def test_parse_sdn_empty(self):
        assert _parse_sdn("") == set()
        assert _parse_sdn(None) == set()

    def test_parse_topology(self):
        topo = _parse_topology("ring:6")
        assert topo.name == "ring6" and len(topo) == 6

    def test_parse_topology_unknown(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["dot", "--topology", "torus:4"])
        assert exit_info.value.code == 2

    def test_parse_topology_accepts_every_payload_name(self):
        from repro.config.specio import topology_names

        for name in topology_names():
            assert len(_parse_topology(f"{name}:6")) == 6

    @pytest.mark.parametrize("argv", [
        ["demo", "--sdn", "5-"],
        ["demo", "--sdn", "x"],
        ["dot", "--topology", "clique:x"],
        ["dot", "--topology", "ring:2"],
        ["faults", "run", "--origins", "1,,y"],
        ["scenarios", "--fractions", "0,2"],
    ])
    def test_malformed_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {argv[-2]}" in err


class TestCommands:
    def test_demo_command(self, capsys):
        rc = main(["demo", "--n", "5", "--sdn", "4,5", "--mrai", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "withdrawal converged" in out

    def test_fig2_small(self, capsys):
        rc = main([
            "fig2", "--n", "5", "--runs", "1", "--mrai", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "linear fit" in out

    def test_subcluster_command(self, capsys):
        rc = main(["subcluster", "--seed", "1"])
        assert rc == 0
        assert "sub-clusters after" in capsys.readouterr().out

    def test_dot_command(self, capsys):
        rc = main(["dot", "--topology", "clique:4", "--sdn", "3-4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("graph") and "shape=box" in out

    def test_announcement_small(self, capsys):
        rc = main(["announcement", "--n", "5", "--runs", "1", "--mrai", "1"])
        assert rc == 0
        assert "announcement" in capsys.readouterr().out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_a_command_line_leaves_no_cyclic_garbage(self, capsys):
        """The parser is built once per process: each build left about
        1.9k objects of cyclic garbage behind."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            main(["faults", "list"])
            gc.collect()
            assert main(["faults", "list"]) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert "gateway-outage" in capsys.readouterr().out


class TestQuietFlag:
    def test_quiet_silences_info_output(self, capsys):
        rc = main(["--quiet", "demo", "--n", "4", "--mrai", "1"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_quiet_keeps_primary_artifacts(self, capsys):
        rc = main(["--quiet", "dot", "--topology", "clique:4"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("graph")

    def test_quiet_sweep_exit_code_still_reports(self, capsys):
        rc = main([
            "--quiet", "fig2", "--n", "4", "--runs", "1", "--mrai", "1",
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""


class TestInstrumentationFlags:
    def test_demo_metrics_prints_snapshot(self, capsys):
        rc = main(["demo", "--n", "4", "--mrai", "1", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "records_total" in out

    def test_sweep_metrics_summary(self, capsys):
        rc = main([
            "fig2", "--n", "4", "--runs", "1", "--mrai", "1",
            "--metrics", "--trace-level", "off",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics (merged over all runs)" in out
        assert "records_total" in out

    def test_trace_level_off_measures_normally(self, capsys):
        rc = main([
            "demo", "--n", "4", "--mrai", "1", "--trace-level", "off",
        ])
        assert rc == 0
        assert "withdrawal converged" in capsys.readouterr().out

    def test_bad_trace_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "--trace-level", "verbose"])

    @pytest.mark.parametrize(
        "argv",
        [["fig2", "--profile"], ["fig2", "--sample-hz", "100"],
         ["runs", "show", "1", "--top", "5"]],
    )
    def test_deleted_profiler_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestTraceCommands:
    def _run_traced(self, tmp_path, capsys, **extra_flags):
        jsonl = tmp_path / "spans.jsonl"
        argv = [
            "trace", "run", "--scenario", "withdrawal", "--n", "5",
            "--sdn-count", "2", "--seed", "3", "--mrai", "1",
            "--jsonl", str(jsonl),
        ]
        for flag, value in extra_flags.items():
            argv += [f"--{flag}", str(value)]
        rc = main(argv)
        assert rc == 0
        return jsonl, capsys.readouterr().out

    def test_trace_run_prints_causal_report(self, tmp_path, capsys):
        jsonl, out = self._run_traced(tmp_path, capsys)
        assert "root cause #" in out
        assert "bgp.withdraw" in out
        assert "per-AS convergence instants" in out
        assert jsonl.exists() and jsonl.read_text().strip()

    def test_trace_run_writes_chrome_and_markdown(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "trace.json"
        md = tmp_path / "report.md"
        self._run_traced(tmp_path, capsys, chrome=chrome, markdown=md)
        trace = json.loads(chrome.read_text())
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "s", "f"}
        assert md.read_text().startswith("# ")

    def test_trace_report_from_jsonl(self, tmp_path, capsys):
        jsonl, _ = self._run_traced(tmp_path, capsys)
        rc = main(["trace", "report", str(jsonl), "--timeline", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "root cause #" in out
        assert "causal timeline" in out

    def test_trace_export_stdout_and_file(self, tmp_path, capsys):
        import json

        jsonl, _ = self._run_traced(tmp_path, capsys)
        rc = main(["trace", "export", str(jsonl)])
        assert rc == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["displayTimeUnit"] == "ms"

        dest = tmp_path / "out.json"
        rc = main(["trace", "export", str(jsonl), "-o", str(dest), "--pretty"])
        assert rc == 0
        assert json.loads(dest.read_text())["traceEvents"]

    def test_trace_run_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "run", "--scenario", "meteor"])


class TestRetiredRunsOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["runs", "regressions"],
            ["runs", "diff", "1", "2", "--tolerance", "0.1"],
        ],
        ids=["regressions", "diff-tolerance"],
    )
    def test_retired_option_exits_2(self, argv):
        """The registry's wall-time gate and the diff's tolerance knob
        are gone: ``runs diff --sweeps`` is the registry's one gate."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestFaultInputs:
    """Bad suite names and fault-spec files end in one line naming the
    problem, not a traceback."""

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenarios", "--suites", "gateway-outage,nope"])
        assert "unknown fault scenario 'nope'" in str(exit_info.value.code)

    @pytest.mark.parametrize("content, problem", [
        (None, "No such file"),
        ("not json", "Expecting value"),
        ('{"events": [{"kind": "meteor"}]}', "unknown fault kind 'meteor'"),
    ])
    def test_bad_spec_file(self, tmp_path, content, problem):
        path = tmp_path / "faults.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "run", "--spec", str(path)])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"fault spec {path}: ") and problem in message


    def test_spec_file_runs_its_schedule(self, tmp_path, capsys):
        """A spec file is the schedule alone: no AS is reserved, the
        ``--origins`` announce, and ``--fault-seed`` is its seed."""
        path = tmp_path / "faults.json"
        path.write_text(get_canned("gateway-outage").schedule(0).to_json())
        assert main([
            "faults", "run", "--n", "8", "--spec", str(path),
            "--origins", "1,3", "--fault-seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert f"PASS: fault spec {path}, 3 fraction(s)" in out
        assert "SDN fraction 1.00 (8/8 converted)" in out
        assert [
            line.strip() for line in out.splitlines() if "invariants:" in line
        ] == [
            f"invariants: PASS  settled t={t}  trace digest {digest}"
            for t, digest in [
                ("26.423", "b9da4a3a79fdb0f0"),
                ("25.938", "cd67e19005498714"),
                ("7.503", "46f3f14b52b594ec"),
            ]
        ]


def _leaves(parser, path=()):
    """``(command path, parser)`` of every leaf subcommand."""
    subs = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


LEAVES = list(_leaves(build_parser()))
#: per-command defaults that deliberately differ from the declaration.
OVERRIDES = {
    ("faults", "run"): {"seed": 1, "mrai": 5.0},
    ("scenarios",): {"mrai": 5.0},
}


def _spec_flags_of(path, parser):
    for option in SPEC_OPTIONS:
        flag = "--" + option.name.replace("_", "-")
        for action in parser._actions:
            if flag in action.option_strings:
                yield pytest.param(
                    path, option, action, id=f"{' '.join(path)} {flag}"
                )


class TestDeclaredFlags:
    """Every RunSpec option a command exposes, walked from its
    declaration, as ``TestDeclaredOptions`` walks the JSON dialect."""

    @pytest.mark.parametrize(
        "path, option, action",
        [case for path, parser in LEAVES for case in _spec_flags_of(path, parser)],
    )
    def test_flag_matches_declaration(self, path, option, action):
        meta = option.metadata
        declared = meta.get("json_default", option.default)
        expected = OVERRIDES.get(path, {}).get(option.name, declared)
        assert action.help and "%" not in action.help.replace("%%", "")
        if meta["kind"] == "bool":
            assert (action.nargs, action.const, action.default) == (0, True, False)
            return
        assert action.choices == meta.get("choices")
        if option.name == "n":  # declares no default: each command picks
            assert action.default >= meta["minimum"]
        else:
            assert action.default == expected
        if action.choices:
            return
        python_type = {"int": int, "number": float}[meta["kind"]]
        parsed = action.type(str(meta.get("minimum", 3)))
        assert type(parsed) is python_type
        if "minimum" in meta:
            below = str(python_type(meta["minimum"] - 1))
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([*path, action.option_strings[0], below])
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fig2", "--mrai", "-1"],
        ["fig2", "--n", "1"],
        ["demo", "--n", "1"],
        ["trace", "run", "--n", "1"],
    ])
    def test_out_of_bounds_exits_2_like_a_spec_payload(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be >= " in capsys.readouterr().err


def _flags(parser) -> set:
    return {flag for a in parser._actions for flag in a.option_strings}


RUNNER_LEAVES = [
    (path, parser) for path, parser in LEAVES if "--workers" in _flags(parser)
]


@pytest.mark.parametrize(
    "path, parser", RUNNER_LEAVES, ids=[" ".join(p) for p, _ in RUNNER_LEAVES]
)
def test_runner_commands_take_the_cache_flags(path, parser):
    """A command that takes ``--workers`` runs trials through the
    runner, so ``--cache-dir`` and ``--no-cache`` must work there too."""
    assert {"--cache-dir", "--no-cache"} <= _flags(parser)


def test_topologies_no_cache_ignores_the_env_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    argv = ["-q", "topologies", "--n", "6", "--runs", "1", "--mrai", "1"]
    assert main(argv + ["--no-cache"]) == 0
    assert not cache.exists() or not any(cache.iterdir())
    assert main(argv) == 0  # without the flag, the env cache is filled
    assert any(cache.iterdir())


@pytest.mark.parametrize(
    "path", [path for path, _ in LEAVES], ids=lambda path: " ".join(path)
)
def test_every_leaf_help_renders(path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*path, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
