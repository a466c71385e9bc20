"""Repository-level consistency checks: the documentation's promises about
files, bench targets and the public API surface hold."""

import py_compile
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestExamples:
    def test_at_least_three_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert REPO / "examples" / "quickstart.py" in examples

    @pytest.mark.parametrize("path", sorted(
        (REPO / "examples").glob("*.py")), ids=lambda p: p.name)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", sorted(
        (REPO / "examples").glob("*.py")), ids=lambda p: p.name)
    def test_examples_have_main_guard(self, path):
        text = path.read_text()
        assert '__name__ == "__main__"' in text
        assert text.startswith("#!/usr/bin/env python3")


class TestBenchTargets:
    def test_design_md_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_figure_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for fig in ("02", "06", "07", "08", "09", "10", "11", "16", "17",
                    "18", "19", "20", "21"):
            assert any(f"fig{fig}" in b for b in benches), f"figure {fig}"
        assert any("table06" in b for b in benches)

    @pytest.mark.parametrize("path", sorted(
        (REPO / "benchmarks").glob("bench_*.py")), ids=lambda p: p.name)
    def test_benches_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_every_result_file_is_written_by_a_bench(self):
        """A file under ``benchmarks/results/`` is a ``<name>.txt`` from
        a bench's ``report("<name>", ...)`` call or a ``BENCH_*.json``
        a bench names, so no result outlives the bench that wrote it."""
        code = "\n".join(path.read_text(encoding="utf-8") for path in
                         sorted((REPO / "benchmarks").glob("bench_*.py")))
        written = {f"{name}.txt"
                   for name in re.findall(r'\breport\("(\w+)"', code)}
        written |= set(re.findall(r"\bBENCH_\w+\.json", code))
        orphans = sorted(path.name for path in
                         (REPO / "benchmarks" / "results").iterdir()
                         if path.name not in written)
        assert not orphans, orphans


class TestPublicApi:
    def test_top_level_subpackages(self):
        import repro
        for name in ("area", "core", "experiments", "gpu", "mem", "noc",
                     "system", "workloads"):
            assert hasattr(repro, name)

    def test_all_exports_resolve(self):
        import repro.area
        import repro.core
        import repro.gpu
        import repro.mem
        import repro.noc
        import repro.system
        import repro.workloads
        for module in (repro.area, repro.core, repro.gpu, repro.mem,
                       repro.noc, repro.system, repro.workloads):
            for name in module.__all__:
                assert getattr(module, name) is not None, \
                    f"{module.__name__}.{name}"

    def test_documented_quickstart_symbols(self):
        """The README quickstart imports must keep working."""
        from repro.core import BASELINE, THROUGHPUT_EFFECTIVE  # noqa: F401
        from repro.system import build_chip  # noqa: F401
        from repro.workloads import profile  # noqa: F401

    def test_docstrings_everywhere(self):
        """Every public module, class and function carries a docstring."""
        import inspect

        import repro
        modules = [repro.area.chip, repro.area.orion, repro.core.builder,
                   repro.core.checkerboard_routing, repro.core.placement,
                   repro.experiments, repro.gpu.coalescer, repro.gpu.core,
                   repro.gpu.warp, repro.mem.cache, repro.mem.controller,
                   repro.mem.dram, repro.mem.mshr, repro.noc.arbiter,
                   repro.noc.channel, repro.noc.ideal, repro.noc.network,
                   repro.noc.openloop, repro.noc.packet, repro.noc.router,
                   repro.noc.routing, repro.noc.stats, repro.noc.topology,
                   repro.noc.traffic, repro.noc.vc,
                   repro.system.accelerator, repro.system.clocks,
                   repro.system.config, repro.system.limit_study,
                   repro.system.metrics, repro.workloads.generator,
                   repro.workloads.profiles]
        for module in modules:
            assert module.__doc__, module.__name__
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    assert obj.__doc__, f"{module.__name__}.{name}"


#: The documents whose command lines and environment variables must
#: match the program.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")


def _subcommands(parser):
    """The ``{name: parser}`` choices of ``parser``'s subcommands."""
    import argparse
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestDocsMatchCli:
    """Every documented ``repro`` command line names a registered
    subcommand, and every documented ``REPRO_*`` variable is read."""

    @pytest.fixture(scope="class")
    def docs(self):
        return {name: (REPO / name).read_text(encoding="utf-8")
                for name in DOCS}

    def test_documented_subcommands_exist(self, docs):
        from repro import cli
        commands = _subcommands(cli.make_parser())
        pattern = re.compile(r"(?:python -m repro|`repro)\s+([a-z][\w-]*)")
        missing = sorted({f"{name}: repro {cmd}"
                          for name, text in docs.items()
                          for cmd in pattern.findall(text)
                          if cmd not in commands})
        assert not missing, missing

    def test_documented_environment_variables_are_read(self, docs):
        code = "\n".join(path.read_text(encoding="utf-8")
                         for root in ("src", "benchmarks")
                         for path in sorted((REPO / root).rglob("*.py")))
        missing = sorted({f"{name}: {var}"
                          for name, text in docs.items()
                          for var in re.findall(r"REPRO_[A-Z][A-Z_]*", text)
                          if f'"{var}"' not in code
                          and f"'{var}'" not in code})
        assert not missing, missing
