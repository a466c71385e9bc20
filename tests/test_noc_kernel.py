"""The compiled cycle kernel: build, cache, fallback, import hygiene,
that the default path really runs on it, the argument checks of its
entry points, the process-wide route tables, and that it leaves no
memory behind.  Bit-identity with the reference scan is pinned by
tests/test_stepper_equivalence.py."""

import gc
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import textwrap
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc import batched
from repro.noc.channel import Channel
from repro.noc.network import MeshNetwork, NocParams
from repro.noc.openloop import OpenLoopRunner
from repro.noc.packet import RouteGroup, read_request
from repro.noc.router import Router, RoutingViolation
from repro.noc.routing import DorXY
from repro.noc.topology import Coord, Direction, Mesh
from repro.noc.traffic import UniformManyToFew
from repro.noc.vc import shared_vc_config

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
    monkeypatch.setattr(batched.KERNEL, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(batched.KERNEL, "_module", None)
    monkeypatch.setattr(batched.KERNEL, "loaded", False)
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
        batched.KERNEL.cache_dirs = lambda: [Path({str(tmp_path)!r})]
        assert batched.load_kernel() is not None
        print("setuptools" in sys.modules, "distutils" in sys.modules)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
    assert [p.name for p in tmp_path.iterdir()] == [batched.KERNEL.module_filename()]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_cache_hit_does_not_rebuild(monkeypatch, tmp_path):
    built = batched.load_kernel().__file__      # the real cache entry
    shutil.copy(built, tmp_path / batched.KERNEL.module_filename())
    monkeypatch.setattr(batched.KERNEL, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(batched.KERNEL, "_module", None)
    monkeypatch.setattr(batched.KERNEL, "loaded", False)

    def no_build(target):
        raise AssertionError("cache hit rebuilt the kernel")

    monkeypatch.setattr(batched.KERNEL, "build", no_build)
    assert batched.load_kernel() is not None


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_truncated_cached_module_is_rebuilt(fresh_loader, monkeypatch):
    name = batched.KERNEL.module_filename()
    (fresh_loader / name).write_bytes(b"\x7fELF truncated")
    builds = []
    real_build = batched.KERNEL.build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(batched.KERNEL, "build", counting_build)
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
    shutil.copy(built, planted / batched.KERNEL.module_filename())
    location = planted
    if flaw == "world-writable":
        planted.chmod(0o777)
    elif flaw == "symlink":
        location = tmp_path / "link"
        location.symlink_to(planted, target_is_directory=True)
    else:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    monkeypatch.setattr(batched.KERNEL, "cache_dirs", lambda: [location])
    monkeypatch.setattr(batched.KERNEL, "_module", None)
    monkeypatch.setattr(batched.KERNEL, "loaded", False)

    def no_build(target):
        raise AssertionError(f"built in an unsafe location: {target}")

    monkeypatch.setattr(batched.KERNEL, "build", no_build)
    assert batched.load_kernel() is None


@POSIX
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_writable_cached_module_is_rebuilt_private(fresh_loader,
                                                   monkeypatch):
    """A cached module others could write is not loaded but rebuilt, and
    the rebuilt module is writable by its owner only, whatever the
    umask."""
    name = batched.KERNEL.module_filename()
    (fresh_loader / name).write_bytes(b"not a module")
    (fresh_loader / name).chmod(0o666)
    builds = []
    real_build = batched.KERNEL.build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(batched.KERNEL, "build", counting_build)
    old_umask = os.umask(0o002)
    try:
        assert batched.load_kernel() is not None
    finally:
        os.umask(old_umask)
    assert builds == [fresh_loader / name]
    assert not (fresh_loader / name).stat().st_mode & 0o022


@POSIX
def test_temp_fallback_is_per_user():
    *_, fallback = batched.KERNEL.cache_dirs()
    assert fallback.name == f"repro-noc-kernel-{os.getuid()}"


def test_cache_name_hashes_source_suffix_and_flags(monkeypatch):
    base = batched.KERNEL.module_filename()
    assert base.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    monkeypatch.setattr(batched.KERNEL, "compile_args", ("-O0",))
    assert batched.KERNEL.module_filename() != base


# -- fallback ---------------------------------------------------------------

def test_failing_build_falls_back_with_one_warning(tmp_path):
    """With a compiler that always fails, networks run the reference scan
    with identical results, and the failure is logged once."""
    out = _python(f"""
        import json
        import sys
        from pathlib import Path
        from repro.noc import batched
        batched.KERNEL.cache_dirs = lambda: [Path({str(tmp_path)!r})]
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
              batched.KERNEL.loaded)
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


def _counting(monkeypatch):
    """Count every ``Coord.__hash__`` and ``Coord.__eq__`` call from now
    on; returns the counts by method name."""
    calls = {"__hash__": 0, "__eq__": 0}
    for name in calls:
        original = getattr(Coord, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Coord, name, counted)
    return calls


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_default_hot_path_hashes_no_coord(monkeypatch):
    """Once built, open-loop points (TB-DOR, CP-CR-4VC and ROMM, uniform
    and hotspot) and compiled TB-DOR and Throughput-Effective chips step
    on node ids: not one ``Coord`` is hashed or compared."""
    from repro.noc.traffic import HotspotManyToFew
    from repro.system.accelerator import build_chip
    from repro.workloads.profiles import profile
    runners = []
    for design in ("TB-DOR", "CP-CR-4VC", "CP-ROMM-4VC"):
        for pattern in (UniformManyToFew, HotspotManyToFew):
            system = build(open_loop_variant(design_by_name(design)),
                           num_mcs=8, seed=5)
            runners.append(OpenLoopRunner(
                system, system.compute_nodes, system.mc_nodes,
                pattern(system.mc_nodes), 0.2, seed=5))
    chips = [build_chip(profile("RD"), design=design_by_name(design),
                        seed=5)
             for design in ("TB-DOR", "Throughput-Effective")]
    calls = _counting(monkeypatch)
    for runner in runners:
        assert runner.run(warmup=100, measure=200).packets_measured > 0
    for chip in chips:
        for _ in range(300):
            chip.step()
        assert chip._cluster and chip.network.stats.packets_ejected > 0
    assert calls == {"__hash__": 0, "__eq__": 0}


def _small_tb_dor():
    """An idle 4x4 TB-DOR system and its one network."""
    system = build(open_loop_variant(design_by_name("TB-DOR")), Mesh(4, 4),
                   num_mcs=4, seed=3)
    (net,) = system.networks
    return system, net


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_refuses_cycles_past_its_word_range():
    """Cycles live in 32-bit words: a cycle the kernel cannot represent
    raises instead of wrapping, and ``MAX_CYCLE`` is the last cycle
    either per-cycle entry takes."""
    system, net = _small_tb_dor()
    core = net._batched
    assert core is not None
    assert batched.load_kernel().MAX_CYCLE == batched.MAX_CYCLE
    assert net.try_inject(read_request(
        system.mesh.index(system.compute_nodes[0]),
        system.mesh.index(system.mc_nodes[0])), 0)
    with pytest.raises(OverflowError, match="32-bit"):
        net.step(2 ** 31)
    for call in (core.sweep, core.drain):
        with pytest.raises(OverflowError, match="32-bit"):
            call(batched.MAX_CYCLE + 1)
    core.drain(batched.MAX_CYCLE)
    assert core.st[batched.H_BUFFERED] == 1


# -- the accept entry -----------------------------------------------------------

ACCEPT_CASES = {
    # case: (argument overrides, state edit, expected error)
    "node-negative": ({"node": -1}, None, ValueError),
    "node-past-mesh": ({"node": 16}, None, ValueError),
    "node-not-int": ({"node": "0"}, None, TypeError),
    "route-negative": ({"route": -1}, None, ValueError),
    "route-past-table": ({"route": "end"}, None, ValueError),
    "flits-zero": ({"nflits": 0}, None, ValueError),
    "flits-past-words": ({"nflits": 1 << 31}, None, ValueError),
    "packets-not-list": ({"packets": ()}, None, TypeError),
    "occ-too-short": ({"occ": "short"}, None, ValueError),
    "source-port-past-node": ({}, "port", ValueError),
    "free-slot-past-table": ({}, "free-past", ValueError),
    "free-slot-taken": ({}, "free-taken", ValueError),
}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("case", sorted(ACCEPT_CASES))
def test_accept_checks_every_argument_before_writing(case):
    """``accept`` refuses a bad node, source port, slot, route or flit
    count with ValueError or TypeError and leaves the state, the slot
    table, the occupancy, the packet list and the stats untouched."""
    from array import array
    system, net = _small_tb_dor()
    core = net._batched
    src = system.mesh.index(system.compute_nodes[0])
    dest = system.mesh.index(system.mc_nodes[0])
    assert net.try_inject(read_request(src, dest), 0)     # fills slot 0
    node = src
    args = {"st": core.st, "slots": core.slots,
            "routes": core.table.routes, "packets": core.packets,
            "occ": net._source_occ, "stats": net.stats,
            "packet": read_request(src, dest), "node": node,
            "route": core.slots[batched.SL_ROUTE], "nflits": 1}
    overrides, edit, error = ACCEPT_CASES[case]
    args.update(overrides)
    if args["route"] == "end":
        args["route"] = len(core.table.routes) - 1
    if args["occ"] == "short":
        args["occ"] = array("i", [0])
    st = core.st
    if edit == "port":
        row = st[batched.H_NODE] + node * batched.N_F
        st[row + batched.N_RR] = st[row + batched.N_NSRC]
    elif edit == "free-past":
        st[batched.H_FREE] = len(core.packets)
    elif edit == "free-taken":
        st[batched.H_FREE] = 0

    def snapshot():
        stats = net.stats
        return (core.st.tobytes(), core.slots.tobytes(),
                net._source_occ.tobytes(), list(core.packets),
                stats.packets_offered, stats.flits_offered)

    before = snapshot()
    with pytest.raises(error):
        core._accept(*args.values())
    assert snapshot() == before


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_accept_grows_the_slot_table_on_demand():
    """With no free slot the kernel writes nothing and answers -1; the
    core then grows the slot table by one chunk and the packet is
    queued."""
    system, net = _small_tb_dor()
    core = net._batched
    src = system.mesh.index(system.compute_nodes[0])
    dest = system.mesh.index(system.mc_nodes[0])
    count = batched.SLOT_CHUNK + 1
    for _ in range(count):
        assert net.try_inject(read_request(src, dest), 0)
    assert len(core.packets) == 2 * batched.SLOT_CHUNK
    assert sum(p is not None for p in core.packets) == count
    assert net.stats.packets_offered == count
    net.run_until_idle()
    assert net.stats.packets_ejected == count
    assert all(p is None for p in core.packets)


# -- process-wide route tables ---------------------------------------------------

def _assert_records_tile(table):
    """Every registered record is in ``routes`` once: the records, in id
    order, follow each other without gaps from 0 to ``used``."""
    ids = sorted(table.ids.values())
    assert len(ids) == len(table.ids), "duplicate route ids"
    ends = [at + batched.RT_HOPS + 2 * table.routes[at + batched.RT_LEN]
            for at in ids]
    assert ids == [0] + ends[:-1]
    assert ends[-1] == table.used


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_point_is_the_same_on_a_cold_and_a_filled_table(monkeypatch):
    monkeypatch.setattr(batched, "_tables", {})
    system, cold = _point("CP-CR-4VC", 0.35)
    table = system.networks[0]._batched.table
    assert list(batched._tables.values()) == [table]
    used = table.used
    for design, rate in (("CP-CR-4VC", 0.05), ("TB-DOR", 0.2),
                         ("CP-ROMM-4VC", 0.2), ("Double-CP-CR", 0.3)):
        _point(design, rate)
    system, warm = _point("CP-CR-4VC", 0.35)
    assert warm == cold
    assert system.networks[0]._batched.table is table
    assert table.used > used, "the other rate added no route"
    _assert_records_tile(table)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_concurrent_networks_share_one_table(monkeypatch):
    """Threads (more than the host has cores) running one design at once
    register into one table: each gets the serial result, and no route
    is registered twice."""
    monkeypatch.setattr(batched, "_tables", {})
    walk = batched._walk

    def slow_walk(*args):
        time.sleep(0.001)                # let another thread miss too
        return walk(*args)

    monkeypatch.setattr(batched, "_walk", slow_walk)
    count = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)          # interleave the registrations
    barrier = threading.Barrier(count, timeout=60)
    results = {}

    def run(i):
        barrier.wait()
        results[i] = _point("CP-CR-4VC", 0.35)[1]

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(count)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    (table,) = batched._tables.values()
    _assert_records_tile(table)
    monkeypatch.setattr(batched, "_tables", {})
    _, serial = _point("CP-CR-4VC", 0.35)
    assert results == dict.fromkeys(range(count), serial)


class _UTurn(DorXY):
    """East out of the source, then back west: an illegal U-turn."""

    def next_port(self, coord, packet):
        if coord == packet.dest:
            return Direction.EJECT
        return Direction.EAST if coord == packet.src else Direction.WEST


class _PrivateXY(DorXY):
    """XY routing that declares no signature."""

    route_params = None


def _plain_network(routing_class):
    mesh = Mesh(3, 3)
    return MeshNetwork(mesh, {}, NocParams(), shared_vc_config(1),
                       routing_class(mesh))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_routing_violation_registers_nothing(monkeypatch):
    monkeypatch.setattr(batched, "_tables", {})
    net = _plain_network(_UTurn)
    table = net._batched.table
    assert list(batched._tables.values()) == [table]
    packet = read_request(net.mesh.index(Coord(0, 0)),
                          net.mesh.index(Coord(0, 2)))
    with pytest.raises(RoutingViolation, match="illegal turn"):
        net.try_inject(packet, 0)
    assert (table.ids, table.used, table.states, table.finals) == (
        {}, 0, {}, [])
    assert net.idle and net.stats.packets_offered == 0
    assert not any(net._source_occ)
    assert (packet.group, packet.intermediate, packet.phase) == (
        RouteGroup.ANY, None, 1)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_routing_without_signature_keeps_a_table_per_network(monkeypatch):
    monkeypatch.setattr(batched, "_tables", {})
    nets = [_plain_network(_PrivateXY) for _ in range(2)]
    tables = [net._batched.table for net in nets]
    assert tables[0] is not tables[1]
    assert batched._tables == {}
    for net in nets:
        assert net.try_inject(read_request(net.mesh.index(Coord(0, 0)),
                                           net.mesh.index(Coord(2, 2))), 0)
        net.run_until_idle()
        assert net.stats.packets_ejected == 1
    assert [len(table.ids) for table in tables] == [1, 1]


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
