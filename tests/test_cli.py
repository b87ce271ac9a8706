"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_brick_token, build_parser, main
from repro.errors import ReproError


class TestParser:
    def test_brick_defaults(self):
        args = build_parser().parse_args(["brick"])
        assert args.type == "8T"
        assert args.words == 16
        assert args.tech == "cmos65"

    def test_global_tech_flag(self):
        args = build_parser().parse_args(["--tech", "cmos28", "brick"])
        assert args.tech == "cmos28"

    def test_brick_token_parsing(self):
        assert _parse_brick_token("16x10x2") == (16, 10, 2)
        assert _parse_brick_token("32x12") == (32, 12, 1)
        with pytest.raises(ReproError):
            _parse_brick_token("16")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_perf_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_perf_flags_parse(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache",
             "sweep"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_negative_or_garbage_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--jobs", "-1", "sweep"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--jobs", "abc", "sweep"])

    @pytest.mark.parametrize("verb", ["sram", "testchip"])
    def test_negative_or_garbage_anneal_rejected(self, verb, capsys):
        for bad in ("-5", "abc"):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--anneal", bad])
            assert exc.value.code == 2
            assert "--anneal" in capsys.readouterr().err
        assert build_parser().parse_args([verb, "--anneal", "0"]) \
            .anneal == 0

    def test_trace_stages_flag(self):
        args = build_parser().parse_args(["--trace-stages", "brick"])
        assert args.trace_stages
        assert not build_parser().parse_args(["brick"]).trace_stages

    def test_sram_session_flags(self):
        args = build_parser().parse_args(
            ["sram", "--seed", "9", "--utilization", "0.5"])
        assert args.seed == 9
        assert args.utilization == 0.5


class TestCommands:
    def test_brick_command(self, capsys):
        assert main(["brick", "--words", "8", "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "read critical path" in out
        assert "area" in out

    def test_cam_brick_command_prints_match(self, capsys):
        assert main(["brick", "--type", "CAM", "--words", "8",
                     "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "match path" in out

    def test_library_command_writes_lib(self, tmp_path, capsys):
        out_path = tmp_path / "bricks.lib"
        assert main(["library", "16x8x2", "8x8", "--out",
                     str(out_path)]) == 0
        text = out_path.read_text()
        assert "brick_16_8_s2" in text
        assert "brick_8_8_s1" in text

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--total-words", "32", "--bits", "8",
                     "--brick-words", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "pareto-optimal" in out

    def test_sweep_prints_each_point_once(self, capsys):
        """Repeated axis values name one point: it is priced and
        printed once, as if each value were given once."""
        assert main(["--no-cache", "sweep", "--total-words", "128", "128",
                     "--bits", "8", "8", "--brick-words", "16",
                     "16"]) == 0
        repeated = capsys.readouterr().out
        assert main(["--no-cache", "sweep", "--total-words", "128",
                     "--bits", "8", "--brick-words", "16"]) == 0
        once = capsys.readouterr().out
        rows = [line for line in repeated.splitlines()
                if line.split()[:2] == ["128x8b", "16x8b"]]
        assert len(rows) == 1
        assert repeated.count("pareto-optimal") == 1
        assert repeated == once

    def test_sram_command_with_verilog(self, tmp_path, capsys):
        verilog = tmp_path / "sram.v"
        assert main(["sram", "--words", "16", "--bits", "8",
                     "--brick-words", "16", "--cycles", "16",
                     "--anneal", "200", "--verilog",
                     str(verilog)]) == 0
        assert verilog.read_text().startswith("module ")
        out = capsys.readouterr().out
        assert "Flow summary" in out

    def test_spgemm_command(self, capsys):
        assert main(["spgemm", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "hub_dense" in out

    def test_error_path_returns_nonzero(self, capsys):
        from repro.errors import BrickError, exit_code_for
        # 40 words is not a multiple of the 16-word brick.
        code = main(["sram", "--words", "40", "--bits", "8"])
        assert code == exit_code_for(BrickError("x")) != 0
        err = capsys.readouterr().err
        # The failure domain is named so scripts can triage on stderr.
        assert "error: brick:" in err

    def test_sram_overfull_core_is_a_synth_error(self, capsys):
        from repro.errors import SynthesisError, exit_code_for
        code = main(["--no-cache", "sram", "--utilization", "1.0",
                     "--cycles", "4"])
        assert code == exit_code_for(SynthesisError("x")) != 0
        err = capsys.readouterr().err
        assert "error: synthesis:" in err
        assert "placement overflow" in err

    def test_sweep_with_jobs(self, capsys):
        assert main(["--jobs", "2", "sweep", "--total-words", "32",
                     "--bits", "8", "--brick-words", "8", "16"]) == 0
        assert "pareto-optimal" in capsys.readouterr().out

    def test_cache_dir_persists_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["--cache-dir", str(cache_dir), "--cache-stats",
                     "sweep", "--total-words", "32", "--bits", "8",
                     "--brick-words", "8"]) == 0
        entries = list(cache_dir.rglob("*.pkl"))
        assert entries, "disk cache left no entries"
        err = capsys.readouterr().err
        assert "cache:" in err
        # Second run at the same dir hits disk instead of recomputing.
        assert main(["--cache-dir", str(cache_dir), "--cache-stats",
                     "sweep", "--total-words", "32", "--bits", "8",
                     "--brick-words", "8"]) == 0
        err = capsys.readouterr().err
        assert "1 disk" in err

    def test_no_cache_disables_default(self, capsys):
        assert main(["--no-cache", "--cache-stats", "sweep",
                     "--total-words", "32", "--bits", "8",
                     "--brick-words", "8"]) == 0
        err = capsys.readouterr().err
        # A disabled cache misses every lookup and stores nothing.
        assert "cache: 0 hits" in err
        assert "0 puts" in err

    def test_cache_stats_reads_the_session_cache(self, capsys):
        from repro.perf import CharacterizationCache
        from repro.session import Session
        from repro.tech import cmos65
        session = Session(cmos65(), cache=CharacterizationCache())
        assert main(["--cache-stats", "brick", "--words", "16",
                     "--bits", "10"], session=session) == 0
        err = capsys.readouterr().err
        stats = session.cache.stats
        assert stats.misses > 0
        assert (f"cache: {stats.hits} hits ({stats.memory_hits} memory, "
                f"{stats.disk_hits} disk), {stats.misses} misses") in err
        assert f"{stats.puts} puts" in err
