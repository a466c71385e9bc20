"""The compiled cycle kernel: build, cache, fallback, import hygiene,
that the default path really runs on it, and that it leaves no memory
behind.  Bit-identity with the reference scan is pinned by
tests/test_stepper_equivalence.py."""

import gc
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc import batched
from repro.noc.channel import Channel
from repro.noc.network import MeshNetwork
from repro.noc.openloop import OpenLoopRunner
from repro.noc.router import Router
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew

SRC = Path(__file__).resolve().parent.parent / "src"
HAVE_CC = shutil.which(sysconfig.get_config_var("CC").split()[0]
                       if sysconfig.get_config_var("CC") else "cc")


def _python(code, env=None, **kwargs):
    """Run ``code`` in a fresh interpreter with ``src`` importable."""
    full_env = dict(os.environ, PYTHONPATH=str(SRC))
    full_env.pop("REPRO_REFERENCE_STEPPER", None)
    full_env.update(env or {})
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=full_env, capture_output=True, text=True,
                          timeout=600, **kwargs)


def _point(design="TB-DOR", rate=0.2, reference=False):
    system = build(open_loop_variant(design_by_name(design)), Mesh(5, 5),
                   num_mcs=4, seed=3)
    if reference:
        system.use_reference_stepper()
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate, seed=3)
    return system, runner.run(warmup=50, measure=100).to_json()


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader with an empty cache directory and no module loaded."""
    monkeypatch.setattr(batched, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(batched, "_kernel", None)
    monkeypatch.setattr(batched, "_loaded", False)
    return tmp_path


# -- build and cache -------------------------------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_miss_builds_in_a_child_process(tmp_path):
    """A miss builds, publishes one module under the content hash and
    leaves no build directory; setuptools never enters this process."""
    out = _python(f"""
        import sys
        from pathlib import Path
        from repro.noc import batched
        batched.cache_dirs = lambda: [Path({str(tmp_path)!r})]
        assert batched.load_kernel() is not None
        print("setuptools" in sys.modules, "distutils" in sys.modules)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
    assert [p.name for p in tmp_path.iterdir()] == [batched.module_filename()]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_hit_does_not_rebuild(monkeypatch, tmp_path):
    built = batched.load_kernel().__file__      # the real cache entry
    shutil.copy(built, tmp_path / batched.module_filename())
    monkeypatch.setattr(batched, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(batched, "_kernel", None)
    monkeypatch.setattr(batched, "_loaded", False)

    def no_build(target):
        raise AssertionError("cache hit rebuilt the kernel")

    monkeypatch.setattr(batched, "build", no_build)
    assert batched.load_kernel() is not None


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_truncated_cached_module_is_rebuilt(fresh_loader, monkeypatch):
    name = batched.module_filename()
    (fresh_loader / name).write_bytes(b"\x7fELF truncated")
    builds = []
    real_build = batched.build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(batched, "build", counting_build)
    kernel = batched.load_kernel()
    assert kernel is not None and kernel.LAYOUT == batched.LAYOUT
    assert builds == [fresh_loader / name]
    assert (fresh_loader / name).stat().st_size > 1000


POSIX = pytest.mark.skipif(not hasattr(os, "getuid"),
                           reason="no POSIX file owners")


@POSIX
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("flaw", ["world-writable", "foreign-owned",
                                  "symlink"])
def test_unsafe_cache_directory_is_refused(flaw, monkeypatch, tmp_path):
    """A cache location another user could write is skipped: a module
    planted there is never loaded and nothing is built there, so the
    network falls back to the reference stepper."""
    built = batched.load_kernel().__file__      # the real cache entry
    planted = tmp_path / "planted"
    planted.mkdir(mode=0o700)
    shutil.copy(built, planted / batched.module_filename())
    location = planted
    if flaw == "world-writable":
        planted.chmod(0o777)
    elif flaw == "symlink":
        location = tmp_path / "link"
        location.symlink_to(planted, target_is_directory=True)
    else:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    monkeypatch.setattr(batched, "cache_dirs", lambda: [location])
    monkeypatch.setattr(batched, "_kernel", None)
    monkeypatch.setattr(batched, "_loaded", False)

    def no_build(target):
        raise AssertionError(f"built in an unsafe location: {target}")

    monkeypatch.setattr(batched, "build", no_build)
    assert batched.load_kernel() is None


@POSIX
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_writable_cached_module_is_rebuilt_private(fresh_loader,
                                                   monkeypatch):
    """A cached module others could write is not loaded but rebuilt, and
    the rebuilt module is writable by its owner only, whatever the
    umask."""
    name = batched.module_filename()
    (fresh_loader / name).write_bytes(b"not a module")
    (fresh_loader / name).chmod(0o666)
    builds = []
    real_build = batched.build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(batched, "build", counting_build)
    old_umask = os.umask(0o002)
    try:
        assert batched.load_kernel() is not None
    finally:
        os.umask(old_umask)
    assert builds == [fresh_loader / name]
    assert not (fresh_loader / name).stat().st_mode & 0o022


@POSIX
def test_temp_fallback_is_per_user():
    *_, fallback = batched.cache_dirs()
    assert fallback.name == f"repro-noc-kernel-{os.getuid()}"


def test_cache_name_hashes_source_suffix_and_flags(monkeypatch):
    base = batched.module_filename()
    assert base.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    monkeypatch.setattr(batched, "COMPILE_ARGS", ("-O0",))
    assert batched.module_filename() != base


# -- fallback ---------------------------------------------------------------

def test_failing_build_falls_back_with_one_warning(tmp_path):
    """With a compiler that always fails, networks run the reference scan
    with identical results, and the failure is logged once."""
    out = _python(f"""
        import json
        import sys
        from pathlib import Path
        from repro.noc import batched
        batched.cache_dirs = lambda: [Path({str(tmp_path)!r})]
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_noc_kernel import _point
        first, payload = _point()
        second, _ = _point()
        print(json.dumps([[n._batched is None for n in first.networks],
                          [n._batched is None for n in second.networks],
                          payload]))
    """, env={"CC": "false"})
    assert out.returncode == 0, out.stderr
    flags_a, flags_b, payload = json.loads(out.stdout.splitlines()[-1])
    assert flags_a == flags_b == [True]
    warnings = [line for line in out.stderr.splitlines()
                if "compiled NoC kernel unavailable" in line]
    assert len(warnings) == 1, out.stderr
    _, expected = _point(reference=True)
    assert payload == expected


# -- import hygiene ----------------------------------------------------------

def test_import_repro_compiles_and_loads_nothing():
    out = _python("""
        import sys
        import repro
        from repro.noc import batched
        print(sorted(m for m in ("numpy", "setuptools", "ctypes",
                                 "_noc_kernel") if m in sys.modules),
              batched._loaded)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "False"]


# -- the default path really runs on the kernel -------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_default_network_steps_on_the_kernel(monkeypatch):
    """With a compiler available the default never touches the per-flit
    Python objects: a silent fallback to the reference fails here."""
    assert batched.load_kernel() is not None
    _, expected = _point(design="Throughput-Effective", reference=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("reference per-flit path ran")

    for owner, attr in ((Router, "step"), (Channel, "deliver"),
                        (Router, "deliver_flit"),
                        (MeshNetwork, "_drain_source")):
        monkeypatch.setattr(owner, attr, forbidden)
    system, payload = _point(design="Throughput-Effective")
    assert all(net._batched is not None for net in system.networks)
    assert payload == expected


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_refuses_cycles_past_its_word_range():
    """Cycles live in 32-bit words: a cycle the kernel cannot represent
    raises instead of wrapping."""
    from repro.noc.packet import read_request

    system = build(open_loop_variant(design_by_name("TB-DOR")), Mesh(4, 4),
                   num_mcs=4, seed=3)
    (net,) = system.networks
    assert net._batched is not None
    assert net.try_inject(read_request(system.compute_nodes[0],
                                       system.mc_nodes[0]), 0)
    with pytest.raises(OverflowError, match="32-bit"):
        net.step(2 ** 31)


# -- memory -------------------------------------------------------------------

@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_dropped_networks_leave_no_kernel_memory():
    """Building, running and dropping networks frees everything: each
    core is collected and traced memory stays flat across rounds."""
    assert batched.load_kernel() is not None

    def round_trip():
        system, _ = _point(rate=0.3)
        refs = [weakref.ref(net._batched) for net in system.networks]
        del system
        gc.collect()
        return refs

    round_trip()                          # warm caches and memos
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        refs = []
        for _ in range(20):
            refs.extend(round_trip())
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(ref() is None for ref in refs)
    assert growth < 256 * 1024, f"{growth} bytes retained after 20 runs"
