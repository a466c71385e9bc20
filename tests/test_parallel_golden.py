"""Golden determinism tests for the parallel experiment runner.

The headline acceptance contract of the parallel layer: fanning tasks out
over worker processes produces results that are field-for-field identical
to the serial path, for every registered design; runs with the same seed
are bit-identical, runs with different seeds differ.
"""

import dataclasses
import os
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.builder import BASELINE, CP_DOR, DOUBLE_BW, NAMED_DESIGNS
from repro.experiments import (classify_benchmarks, compare_designs,
                               load_latency_curves)
from repro.noc.traffic import UniformManyToFew
from repro.parallel import (derive_seed, derive_seeds, resolve_jobs,
                            stable_key)
from repro.workloads.profiles import PROFILES, profile

DESIGNS = [BASELINE, CP_DOR, DOUBLE_BW]
SUBSET = [profile(a) for a in ("RD", "AES", "MUM")]


def assert_results_identical(serial, parallel):
    """Field-for-field equality over two DesignComparison result grids."""
    assert set(serial.results) == set(parallel.results)
    for design, per_bench in serial.results.items():
        assert set(per_bench) == set(parallel.results[design])
        for abbr, expected in per_bench.items():
            got = parallel.results[design][abbr]
            for f in dataclasses.fields(expected):
                assert getattr(got, f.name) == getattr(expected, f.name), \
                    f"{design}/{abbr}.{f.name}"


class TestCompareDesignsGolden:
    @pytest.fixture(scope="class")
    def serial(self):
        return compare_designs(DESIGNS, profiles=SUBSET, warmup=100,
                               measure=200, seed=11, jobs=1)

    def test_jobs4_identical_to_serial(self, serial):
        parallel = compare_designs(DESIGNS, profiles=SUBSET, warmup=100,
                                   measure=200, seed=11, jobs=4)
        assert_results_identical(serial, parallel)

    def test_same_seed_bit_identical(self, serial):
        again = compare_designs(DESIGNS, profiles=SUBSET, warmup=100,
                                measure=200, seed=11, jobs=1)
        assert_results_identical(serial, again)
        assert serial.to_json() == again.to_json()

    def test_different_seed_differs(self, serial):
        other = compare_designs(DESIGNS, profiles=SUBSET, warmup=100,
                                measure=200, seed=12, jobs=1)
        assert serial.to_json() != other.to_json()


class TestAllRegisteredDesigns:
    def test_parallel_identical_for_every_design(self):
        designs = [NAMED_DESIGNS[name] for name in sorted(NAMED_DESIGNS)]
        profs = [profile("RD")]
        serial = compare_designs(designs, profiles=profs, warmup=60,
                                 measure=120, seed=3, jobs=1)
        parallel = compare_designs(designs, profiles=profs, warmup=60,
                                   measure=120, seed=3, jobs=4)
        assert set(serial.results) == set(NAMED_DESIGNS)
        assert_results_identical(serial, parallel)


class TestClassifyGolden:
    def test_jobs_identical_to_serial(self):
        serial = classify_benchmarks(BASELINE, profiles=SUBSET[:2],
                                     warmup=100, measure=200, jobs=1)
        parallel = classify_benchmarks(BASELINE, profiles=SUBSET[:2],
                                       warmup=100, measure=200, jobs=4)
        for s, p in zip(serial.benchmarks, parallel.benchmarks):
            assert s.abbr == p.abbr
            assert s.perfect_speedup == p.perfect_speedup
            assert s.measured_group == p.measured_group
            assert s.baseline == p.baseline
            assert s.perfect == p.perfect


class TestOpenLoopGolden:
    def test_jobs_identical_to_serial(self):
        kwargs = dict(rates=[0.005, 0.02], pattern_factory=UniformManyToFew,
                      warmup=200, measure=400, seed=7)
        serial = load_latency_curves([BASELINE, CP_DOR], jobs=1, **kwargs)
        parallel = load_latency_curves([BASELINE, CP_DOR], jobs=4, **kwargs)
        assert [c.to_json() for c in serial] == \
            [c.to_json() for c in parallel]

    def test_per_point_seeds_are_independent(self):
        """Every (design, pattern, rate) point draws from its own stream."""
        seeds = {
            derive_seed(7, "openloop", design, pattern, rate)
            for design in ("TB-DOR", "CP-DOR")
            for pattern in ("uniform", "hotspot")
            for rate in (0.005, 0.02, 0.04)
        }
        assert len(seeds) == 12  # all distinct
        # ... yet stable: the same key always derives the same seed.
        assert derive_seed(7, "openloop", "TB-DOR", "uniform", 0.005) in \
            seeds


#: Label parts ``derive_seed`` is given: ints (bools among them), floats
#: and strings, non-ASCII included.
_parts = st.one_of(st.integers(-2**70, 2**70), st.booleans(),
                   st.floats(), st.text(max_size=6))


class TestSeedDerivation:
    def test_deterministic_across_processes(self):
        """SHA-based derivation must not depend on PYTHONHASHSEED; pin an
        exact value so an accidental switch to ``hash()`` fails loudly."""
        assert derive_seed(11, "closed", "TB-DOR", "RD") == \
            derive_seed(11, "closed", "TB-DOR", "RD")
        assert derive_seed(0) == 15041073954064335159

    def test_sensitive_to_every_part(self):
        base = derive_seed(11, "closed", "TB-DOR", "RD")
        assert derive_seed(12, "closed", "TB-DOR", "RD") != base
        assert derive_seed(11, "openloop", "TB-DOR", "RD") != base
        assert derive_seed(11, "closed", "CP-DOR", "RD") != base
        assert derive_seed(11, "closed", "TB-DOR", "AES") != base

    @given(seed=st.integers(-2**70, 2**70),
           prefix=st.lists(_parts, max_size=3),
           suffixes=st.lists(st.lists(_parts, max_size=4), max_size=5))
    def test_derive_seeds_equals_derive_seed(self, seed, prefix, suffixes):
        """The shared-prefix form hashes exactly what ``derive_seed``
        hashes, for ints, bools, floats and strings (non-ASCII too)."""
        assert derive_seeds(seed, prefix, suffixes) == [
            derive_seed(seed, *prefix, *suffix) for suffix in suffixes]

    def test_stable_key_covers_dataclasses(self):
        key = stable_key({"design": BASELINE, "seed": 11})
        assert key == stable_key({"seed": 11, "design": BASELINE})
        assert key != stable_key({"design": CP_DOR, "seed": 11})

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(4) == 4
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2
        with pytest.raises(ValueError):
            resolve_jobs(0)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup measurement needs >= 4 cores")
class TestParallelSpeedup:
    def test_two_x_speedup_on_four_cores(self):
        """A full 8-benchmark comparison with jobs=4 must be >= 2x faster
        than jobs=1 (acceptance criterion; skipped on small hosts)."""
        profs = list(PROFILES)[:8]
        start = time.perf_counter()
        serial = compare_designs([BASELINE], profiles=profs, warmup=200,
                                 measure=400, jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = compare_designs([BASELINE], profiles=profs, warmup=200,
                                   measure=400, jobs=4)
        parallel_s = time.perf_counter() - start
        assert_results_identical(serial, parallel)
        assert serial_s / parallel_s >= 2.0, \
            f"speedup {serial_s / parallel_s:.2f}x < 2x"
