"""Build, cache and load the package's C extensions.

Two parts of the simulator run compiled: the NoC cycle kernel
(``noc/_noc_kernel.c``, see :mod:`repro.noc.batched`) and the SIMT core
cluster (``gpu/_core_kernel.c``, see :mod:`repro.gpu.cluster`).  Each is
one :class:`CompiledKernel`: a C source, a module name and the state
layout version the Python side expects.

An extension is compiled with setuptools' ``build_ext`` in a child
process on first use, cached under a hash of the C source, the extension
suffix and the compile flags (``__pycache__`` beside the source, else a
per-user directory in the temp dir), published with ``os.replace`` and
loaded with ``importlib``.  A location is used only if it and the module
file are owned by this user, writable by no one else and not symlinks.
A module whose ``LAYOUT`` differs from the expected one is rebuilt.  If
the extension cannot be built or loaded, :meth:`CompiledKernel.load`
prints one warning on stderr and returns None, and the caller runs its Python
reference instead.
"""

from __future__ import annotations

import os
import stat
import sys
from pathlib import Path

#: Child-process build: setuptools' build_ext, never imported here.
_BUILD_SCRIPT = """
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
source, out, name, *flags = sys.argv[1:]
dist = Distribution({"name": name, "ext_modules": [
    Extension(name, [source], extra_compile_args=flags)]})
cmd = build_ext(dist)
cmd.build_lib = cmd.build_temp = out
cmd.ensure_finalized()
cmd.run()
print("BUILT " + cmd.get_ext_fullpath(name))
"""


class KernelUnavailable(RuntimeError):
    """A compiled kernel could not be built or loaded."""


def _private(path: Path, kind) -> bool:
    """True if ``path`` exists as ``kind`` (``stat.S_ISDIR`` or
    ``stat.S_ISREG``; a symlink is neither), is owned by this user and
    is writable by no one else, so no other user can plant or swap the
    module loaded from it.  Without POSIX owners (Windows, where the
    temp dir is per-user) only the type is checked."""
    try:
        st = path.lstat()
    except OSError:
        return False
    if not kind(st.st_mode):
        return False
    if not hasattr(os, "getuid"):
        return True
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


class CompiledKernel:
    """One C extension: where it is built and cached, and the module once
    loaded.  ``label`` names it in the temp-dir cache and the warning;
    ``fallback`` says what runs instead when it is unavailable."""

    def __init__(self, source: Path, module: str, layout: int, label: str,
                 fallback: str) -> None:
        self.source = source
        self.module = module
        self.layout = layout
        self.label = label
        self.fallback = fallback
        self.compile_args = ("-O2",)
        self.loaded = False
        self._module = None

    def cache_dirs(self):
        """Where the built module is cached, in order of preference:
        beside the source, else a per-user directory in the temp dir."""
        yield self.source.parent / "__pycache__"
        import tempfile
        user = os.getuid() if hasattr(os, "getuid") else "user"
        yield (Path(tempfile.gettempdir())
               / f"repro-{self.label.lower()}-kernel-{user}")

    def module_filename(self) -> str:
        """Cache file name: a hash of the C source, the extension suffix
        and the compile flags, so any change to one of them rebuilds."""
        import hashlib
        from importlib.machinery import EXTENSION_SUFFIXES
        suffix = EXTENSION_SUFFIXES[0]        # sysconfig's EXT_SUFFIX
        digest = hashlib.sha256()
        for part in (self.source.read_bytes(), suffix.encode(),
                     repr(self.compile_args).encode()):
            digest.update(part)
        return f"{self.module}-{digest.hexdigest()[:16]}{suffix}"

    def _import(self, path: Path):
        """Load the extension at ``path``; None if it is unusable."""
        import importlib.util
        spec = importlib.util.spec_from_file_location(self.module, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
        return (module if getattr(module, "LAYOUT", None) == self.layout
                else None)

    def build(self, target: Path) -> None:
        """Compile the extension in a child process and publish it at
        ``target`` with ``os.replace`` (concurrent builders cannot
        race)."""
        import shutil
        import subprocess
        import tempfile
        work = tempfile.mkdtemp(prefix=".build-", dir=target.parent)
        try:
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", _BUILD_SCRIPT, str(self.source),
                     work, self.module, *self.compile_args],
                    cwd=work, capture_output=True, text=True, timeout=600)
            except subprocess.SubprocessError as exc:
                raise KernelUnavailable(f"build failed: {exc}") from exc
            built = [line[6:] for line in proc.stdout.splitlines()
                     if line.startswith("BUILT ")]
            if proc.returncode != 0 or not built:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
                raise KernelUnavailable(
                    f"build failed (exit {proc.returncode}): "
                    + " | ".join(tail))
            os.chmod(built[-1], 0o755)        # whatever the umask
            os.replace(built[-1], target)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _load_or_build(self):
        name = self.module_filename()
        for directory in self.cache_dirs():
            path = directory / name
            try:
                directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            except OSError:
                continue                      # not creatable: next location
            if not _private(directory, stat.S_ISDIR):
                continue                      # another user could plant code
            if _private(path, stat.S_ISREG):
                module = self._import(path)
                if module is not None:
                    return module
            try:
                self.build(path)
            except OSError:
                continue                      # not writable: next location
            module = self._import(path)
            if module is None:
                raise KernelUnavailable(f"built module {path} does not load")
            return module
        raise KernelUnavailable("no private, writable cache directory")

    def load(self):
        """The compiled module, building it on first use; None (after one
        warning on stderr) if it cannot be built or loaded."""
        if not self.loaded:
            self.loaded = True
            try:
                self._module = self._load_or_build()
            except (KernelUnavailable, OSError) as exc:
                print(f"warning: compiled {self.label} kernel unavailable "
                      f"({exc}); {self.fallback} (the kernel is built on "
                      "first use and needs setuptools and a C compiler)",
                      file=sys.stderr)
                self._module = None
        return self._module
