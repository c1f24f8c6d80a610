"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["overview"])
        assert args.seed == 42
        assert args.events_unit == 60.0
        assert args.command == "overview"

    def test_custom_scale(self):
        args = build_parser().parse_args(
            ["--seed", "9", "--events-unit", "30", "influence"]
        )
        assert args.seed == 9 and args.events_unit == 30.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])

    @pytest.mark.parametrize(
        "flags", [["--checkpoint-dir", "x"], ["--resume"]]
    )
    def test_checkpoint_flags_are_usage_errors(self, flags, capsys):
        # The content cache is the only restart path: --cache-dir.
        with pytest.raises(SystemExit) as excinfo:
            main(["overview"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flags[0] in err


class TestMain:
    def test_overview_runs(self, capsys):
        code = main(
            ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5",
             "overview"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "Table 2" in out
        assert "/pol/" in out

    def test_top_runs(self, capsys):
        code = main(
            ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5", "top"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 4" in out
        assert "Subreddit" in out

    def test_clusters_runs(self, capsys):
        code = main(
            ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5",
             "clusters"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Annotation evidence" in out


class TestFaultSpecs:
    def test_parse_defaults_to_one_transient(self):
        from repro.cli import _parse_fault
        from repro.utils.retry import TransientError

        fault = _parse_fault("serve:classify")
        assert fault.site == "serve:classify"
        assert fault.times == 1 and fault.error is TransientError

    def test_parse_times_and_kind(self):
        from repro.cli import _parse_fault

        fault = _parse_fault("cluster:pol@4@runtime")
        assert fault.times == 4 and fault.error is RuntimeError

    def test_malformed_specs_rejected(self):
        from repro.cli import _parse_fault

        for spec in [
            "", "@2", "site@2@bogus", "a@b@c@d", "bogus:site@1@kill",
            # No site the CLI reaches passes a file to corrupt, and the
            # checkpoint namespace is gone.
            "serve:reload@1@corrupt", "checkpoint:cluster@1",
        ]:
            with pytest.raises(ValueError):
                _parse_fault(spec)

    def test_parser_accepts_serve_replay(self):
        args = build_parser().parse_args(
            ["--inject-fault", "serve:classify@3", "serve-replay"]
        )
        assert args.command == "serve-replay"
        assert args.inject_fault == ["serve:classify@3"]


class TestExitCodes:
    def test_quarantined_community_exits_nonzero(self, capsys):
        code = main(
            ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5",
             "--inject-fault", "cluster:gab@9@runtime", "overview"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "partial pipeline failure" in out
        assert "cluster:gab" in out

    def test_serve_replay_conserves_and_exits_zero(self, capsys, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("42\n0xdeadbeef\nnot-a-hash\n-7\n# comment\n\n")
        code = main(
            ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5",
             "--stream", str(stream), "serve-replay"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "conserved: 4 submitted" in out
        assert "dead-letter" in out  # the poison lines are accounted


class TestCoalesceFlags:
    def test_parser_accepts_coalesce_window(self):
        args = build_parser().parse_args(
            ["--coalesce-window", "16", "serve-replay"]
        )
        assert args.coalesce_window == 16

    def test_negative_coalesce_window_rejected(self):
        with pytest.raises(SystemExit):
            main(["--coalesce-window", "-1", "serve-replay"])

    def test_zero_coalesce_window_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--coalesce-window", "0", "serve-replay"])
        assert exit_info.value.code == 2
        assert build_parser().parse_args(["serve-replay"]).coalesce_window == 1

    def test_parser_accepts_group_commit(self):
        args = build_parser().parse_args(["--group-commit", "stream"])
        assert args.group_commit is True
        # tri-state default so the env var can fill in when absent
        assert build_parser().parse_args(["stream"]).group_commit is None

    def test_coalesced_replay_matches_per_request_accounting(
        self, capsys, tmp_path
    ):
        stream = tmp_path / "stream.txt"
        stream.write_text("42\n0xdeadbeef\nnot-a-hash\n-7\n17\n99\n")
        base = ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5",
                "--stream", str(stream), "serve-replay"]
        assert main(base) == 0
        per_request = capsys.readouterr().out
        assert main(["--coalesce-window", "4", *base]) == 0
        coalesced = capsys.readouterr().out
        assert "coalesce=4" in coalesced
        assert "conserved: 6 submitted" in coalesced
        # identical terminal accounting either way
        tail = per_request[per_request.index("conserved:"):]
        assert tail == coalesced[coalesced.index("conserved:"):]


class TestCacheCommand:
    ARGS = ["--seed", "3", "--events-unit", "18", "--noise-scale", "0.5"]

    def test_cache_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_subcommand_rejected_outside_cache(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--cache-dir", str(tmp_path), "overview", "clear"])

    def test_unknown_cache_action_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--cache-dir", str(tmp_path), "cache", "defrag"])

    def test_info_on_empty_cache(self, capsys, tmp_path):
        code = main(["--cache-dir", str(tmp_path), "cache"])
        assert code == 0
        assert "0 entries" in capsys.readouterr().out

    def test_warm_rerun_reports_cached_stages(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.ARGS + cache + ["overview"]) == 0
        cold_out = capsys.readouterr().out
        assert "cached" not in cold_out
        assert main(self.ARGS + cache + ["overview"]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out.count("cached") >= 4  # every stage hit
        # The cache command now sees the stored entries.
        assert main(cache + ["cache", "info"]) == 0
        info = capsys.readouterr().out
        assert "0 entries" not in info
        # And clear empties it again.
        assert main(cache + ["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(cache + ["cache"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_crash_then_warm_rerun_reports_cached_stages(
        self, capsys, tmp_path
    ):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        crash = ["--inject-fault", "associate@1@runtime"]
        with pytest.raises(RuntimeError, match="injected fault"):
            main(self.ARGS + cache + crash + ["overview"])
        capsys.readouterr()
        assert main(self.ARGS + cache + ["overview"]) == 0
        stage_lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  [")
        ]
        assert len(stage_lines) == 4
        assert sum("  cached" in line for line in stage_lines) == 3
        assert "associate" in stage_lines[-1]
        assert "  cached" not in stage_lines[-1]

    def test_no_cache_flag_disables_caching(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path), "--no-cache"]
        assert main(self.ARGS + cache + ["overview"]) == 0
        assert main(self.ARGS + cache + ["overview"]) == 0
        assert "cached" not in capsys.readouterr().out
        assert list(tmp_path.glob("*/*.ckpt")) == []


class TestWorkerOversubscription:
    def test_workers_flag_warns_when_over_cpu_count(self, monkeypatch):
        import repro.utils.parallel as par
        from repro.cli import _parallel_config

        monkeypatch.setattr(par.os, "cpu_count", lambda: 1)
        args = build_parser().parse_args(["--workers", "8", "overview"])
        with pytest.warns(RuntimeWarning, match="--workers"):
            config = _parallel_config(args)
        assert config.workers == 8  # requested count kept; dispatch caps it
