"""Tests for the command-line interface."""

import pytest

from repro.cli import main, make_parser

from .test_noc_kernel import _python


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_run_defaults(self):
        args = make_parser().parse_args(["run", "--benchmark", "RD"])
        assert args.design == "TB-DOR"
        assert args.warmup == 500

    @pytest.mark.parametrize("command", ["metrics", "top", "serve",
                                         "submit"])
    def test_removed_server_dashboards_are_invalid(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_parser_imports_no_asyncio_and_no_server(self):
        """Building the parser, as every command does, loads neither
        asyncio nor a job-server module."""
        done = _python("""
            import sys
            from repro.cli import make_parser
            make_parser()
            print(sorted(m for m in sys.modules if m == "asyncio"
                         or m.startswith(("asyncio.", "repro.serve"))))
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "TB-DOR" in out
        assert "Throughput-Effective" in out
        assert "MUM" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "TB-DOR" in out and "576.00" in out

    def test_area_single_design(self, capsys):
        assert main(["area", "--design", "CP-CR-4VC"]) == 0
        assert "566" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "--benchmark", "AES", "--warmup", "50",
                     "--measure", "100"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "AES" in out

    def test_run_perfect(self, capsys):
        assert main(["run", "--benchmark", "AES", "--design", "perfect",
                     "--warmup", "50", "--measure", "100"]) == 0
        assert "PerfectNetwork" in capsys.readouterr().out

    def test_run_perfect_check_audits_the_chip(self, capsys, monkeypatch):
        """``--check`` on the perfect network runs the chip's request
        conservation audit every ``--check-interval`` cycles and at the
        end; only ``--watchdog-cycles`` is ignored there."""
        from repro.system import accelerator
        audits = []
        check = accelerator.check_accelerator
        monkeypatch.setattr(accelerator, "check_accelerator",
                            lambda chip: audits.append(check(chip)))
        assert main(["run", "--benchmark", "MUM", "--design", "perfect",
                     "--warmup", "40", "--measure", "80", "--check",
                     "--check-interval", "8",
                     "--watchdog-cycles", "50"]) == 0
        captured = capsys.readouterr()
        assert len(audits) == 120 // 8
        assert "invariant audit       clean (end state)" in captured.out
        assert "--watchdog-cycles ignored" in captured.err
        assert "--check" not in captured.err

    def test_compare(self, capsys):
        assert main(["compare", "--benchmark", "AES",
                     "--designs", "TB-DOR,CP-DOR",
                     "--warmup", "50", "--measure", "100"]) == 0
        out = capsys.readouterr().out
        assert "CP-DOR" in out and "speedup" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--design", "TB-DOR", "--rates", "0.01",
                     "--warmup", "100", "--measure", "200"]) == 0
        out = capsys.readouterr().out
        assert "saturated" in out

    def test_sweep_hotspot(self, capsys):
        assert main(["sweep", "--design", "CP-CR-4VC", "--rates", "0.01",
                     "--hotspot", "--warmup", "100",
                     "--measure", "200"]) == 0
        assert "hotspot" in capsys.readouterr().out

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["run", "--benchmark", "NOPE", "--warmup", "10",
                  "--measure", "10"])


class TestUnknownDesignErrors:
    """run/compare/sweep/explore turn the unknown-name KeyError into a
    clean exit carrying the did-you-mean hint."""

    def test_run_suggests_closest_design(self):
        with pytest.raises(SystemExit,
                           match="did you mean 'TB-DOR'") as exc:
            main(["run", "--benchmark", "RD", "--design", "TB-DORR",
                  "--warmup", "10", "--measure", "10"])
        assert "unknown design 'TB-DORR'" in str(exc.value)

    def test_compare_suggests_closest_design(self):
        with pytest.raises(SystemExit, match="did you mean 'CP-DOR'"):
            main(["compare", "--benchmark", "RD",
                  "--designs", "TB-DOR,CP-DORE",
                  "--warmup", "10", "--measure", "10"])

    def test_sweep_suggests_closest_design(self):
        with pytest.raises(SystemExit,
                           match="did you mean 'Throughput-Effective'"):
            main(["sweep", "--design", "Throughput-Efective",
                  "--rates", "0.01", "--warmup", "10", "--measure", "10"])

    def test_area_suggests_closest_design(self):
        with pytest.raises(SystemExit, match="did you mean 'CP-CR-4VC'"):
            main(["area", "--design", "CP-CR-4V"])

    def test_explore_suggests_closest_preset(self):
        with pytest.raises(SystemExit, match="did you mean 'figure2'"):
            main(["explore", "--preset", "figur2"])

    def test_no_close_match_still_lists_known(self):
        with pytest.raises(SystemExit, match="known:") as exc:
            main(["area", "--design", "zzzzzz"])
        assert "did you mean" not in str(exc.value)


class TestExplore:
    @pytest.fixture
    def tiny_preset(self, monkeypatch):
        """Register a two-point preset so the CLI path runs in seconds."""
        import repro.dse as dse

        def tiny():
            space = dse.SearchSpace(
                name="tiny",
                axes=(dse.Axis("placement",
                               ("top_bottom", "checkerboard")),))
            return dse.ExplorationSpec(
                name="tiny", space=space, mix=("RD",), warmup=40,
                measure=80, seed=11)

        monkeypatch.setitem(dse.presets.PRESETS, "tiny", tiny)
        return tiny

    def test_explore_end_to_end(self, tiny_preset, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["explore", "--preset", "tiny",
                     "--cache", str(tmp_path / "cache"),
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "exploring preset 'tiny': 2 raw points" in out
        assert "warmup 40, measure 80" in out
        assert "confirm" in out and "Pareto frontier" in out
        assert (out_dir / "exploration.json").is_file()
        assert (out_dir / "candidates.csv").is_file()
        assert (out_dir / "frontier.csv").is_file()

    def test_explore_seed_override_changes_payload(self, tiny_preset,
                                                   tmp_path, capsys):
        import repro.dse as dse
        spec = dse.preset("tiny")
        baseline = dse.explore(spec, jobs=1,
                               cache=str(tmp_path / "cache"))
        assert main(["explore", "--preset", "tiny", "--seed", "99",
                     "--cache", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        import json
        payload = json.loads(
            (tmp_path / "out" / "exploration.json").read_text())
        assert payload["seed"] == 99
        assert payload["seed"] != baseline.seed
