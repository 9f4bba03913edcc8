"""The compiled library's toolchain probe, JIT cache and loader.

One C source (:mod:`repro.runtime._sweep_src`) compiles into one shared
library with three exported functions: the event sweep behind
``engine="compiled"`` (:mod:`repro.runtime.compiledpath`) and the two
longest-path passes behind :meth:`TaskArena.finish_times
<repro.runtime.arena.TaskArena.finish_times>` and
:meth:`~repro.runtime.arena.TaskArena.critical_priorities`.  This module
compiles and loads that library without importing the scheduler, so the
network simulator, which only runs the longest-path passes, pays for
neither.

Toolchain semantics: a kernel asked for by name is strict, the
platform default degrades gracefully.

* :func:`compiled_available` probes for a working C compiler
  (``$CC``, ``cc``, ``gcc``, ``clang``; ``REPRO_COMPILED_TOOLCHAIN=none``
  forces unavailability for testing the degraded path).
* Whatever degrades (the default engine to ``fast``, a longest-path
  pass to the numpy frontier) ticks ``engine.compiled_fallbacks`` and
  warns once per process (:func:`record_fallback`).

The library is compiled on first use inside a
``trace.span("engine.jit_compile")`` and cached under
``$REPRO_JIT_CACHE`` (default ``~/.cache/repro-jit``), keyed by a hash of
the source + ABI + compiler, so later processes only load it;
``subprocess`` is imported on a cache miss only.
"""

from __future__ import annotations

import os
import shutil
import warnings

from ..observability import trace
from ..observability.metrics import counter
from ..util.errors import ConfigurationError
from ._sweep_src import ABI_VERSION, SWEEP_SOURCE

__all__ = [
    "JitError",
    "compiled_available",
    "compiled_cc",
    "jit_cache_dir",
    "load_library",
    "record_fallback",
    "reset_fallback_warning",
]

#: Compiled-library requests that degraded to a Python kernel.
COMPILED_FALLBACKS = counter(
    "engine.compiled_fallbacks",
    description="compiled-kernel requests degraded to a Python kernel",
)

_ENV_TOOLCHAIN = "REPRO_COMPILED_TOOLCHAIN"
_ENV_CACHE = "REPRO_JIT_CACHE"

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class JitError(Exception):
    """Toolchain absent or JIT compilation/load failed (fallback-able)."""


# ---------------------------------------------------------------------------
# fallback accounting

_fallback_warned = False


def record_fallback(reason: str, to: str = "the fast engine") -> None:
    """Count a degraded compiled-library request and warn once per
    process; *to* names what ran instead."""
    global _fallback_warned
    COMPILED_FALLBACKS.add()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"compiled event kernel unavailable ({reason}); falling back "
            f"to {to} (results are identical, sweeps are slower)",
            RuntimeWarning,
            stacklevel=3,
        )


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning.

    The latch is process-global, so long-lived processes (the study
    service, pytest) reset it at unit-of-work boundaries; the counter
    is unaffected.
    """
    global _fallback_warned
    _fallback_warned = False


# ---------------------------------------------------------------------------
# toolchain probe

_cc_probe: tuple[str | None, str] | None = None
_lib = None  # the loaded ctypes.CDLL
_lib_error: str | None = None  # sticky first compile/load failure


def _find_cc() -> tuple[str | None, str]:
    """Locate a C compiler: ``$CC`` first, then cc/gcc/clang (memoized)."""
    global _cc_probe
    if _cc_probe is None:
        candidates = []
        env_cc = os.environ.get("CC")
        if env_cc:
            candidates.append(env_cc)
        candidates += ["cc", "gcc", "clang"]
        for cand in candidates:
            path = shutil.which(cand)
            if path:
                _cc_probe = (path, "")
                break
        else:
            _cc_probe = (None, "no C compiler found (tried $CC, cc, gcc, clang)")
    return _cc_probe


def compiled_available() -> tuple[bool, str]:
    """Can the compiled library run here?  ``(ok, reason)``.

    *reason* explains unavailability, or describes the toolchain when
    available.  The compiler probe is memoized; the
    ``REPRO_COMPILED_TOOLCHAIN`` override is re-read per call
    (``auto``/``cc`` use the probe, ``none`` forces the degraded path —
    the testing/CI knob for exercising fallbacks on a machine that has
    a compiler).
    """
    mode = os.environ.get(_ENV_TOOLCHAIN, "auto")
    if mode not in ("auto", "cc", "none"):
        raise ConfigurationError(
            f"{_ENV_TOOLCHAIN} must be 'auto', 'cc' or 'none', got {mode!r}"
        )
    if mode == "none":
        return False, f"disabled via {_ENV_TOOLCHAIN}=none"
    if _lib is not None:
        return True, "kernel loaded"
    if _lib_error is not None:
        return False, f"JIT compilation failed: {_lib_error}"
    cc, reason = _find_cc()
    if cc is None:
        return False, reason
    return True, f"cc={cc}"


def compiled_cc() -> str | None:
    """Path of the C compiler the JIT would use (``None`` when absent)."""
    return _find_cc()[0]


def jit_cache_dir() -> str:
    """Where compiled kernels live (``REPRO_JIT_CACHE`` override)."""
    override = os.environ.get(_ENV_CACHE)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-jit")


# ---------------------------------------------------------------------------
# compile + load


def _ensure_compiled(cc: str) -> str:
    """Compile the library into the JIT cache (if not already there) and
    return the shared-library path.

    The library name is keyed by ``sha256(ABI + compiler + source)`` so
    editing the kernel or switching compilers never loads a stale
    binary; the write is atomic (tmp + rename) so concurrent processes
    race benignly.
    """
    import hashlib

    digest = hashlib.sha256(
        f"{ABI_VERSION}\n{cc}\n{SWEEP_SOURCE}".encode()
    ).hexdigest()[:16]
    cache = jit_cache_dir()
    lib_path = os.path.join(cache, f"repro_sweep_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    import subprocess  # a cache miss only

    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"repro_sweep_{digest}.c")
    tmp_path = f"{lib_path}.tmp.{os.getpid()}"
    with open(src_path, "w") as fh:
        fh.write(SWEEP_SOURCE)
    proc = subprocess.run(
        [cc, *_CFLAGS, src_path, "-o", tmp_path, "-lm"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
        raise JitError(
            f"{cc} exited {proc.returncode}: {' | '.join(tail) or 'no output'}"
        )
    os.replace(tmp_path, lib_path)
    return lib_path


def load_library():
    """Compile (first use) and load the library; memoized.

    Raises :class:`JitError` when the toolchain is unavailable or the
    compile/load fails.  A failure is sticky for the life of the
    process (so every later request falls back at once instead of
    re-running the compiler); ``REPRO_COMPILED_TOOLCHAIN=none`` is
    honoured on every call, even once the library is loaded.
    """
    global _lib, _lib_error
    ok, reason = compiled_available()
    if not ok:
        raise JitError(reason)
    if _lib is not None:
        return _lib
    import ctypes

    cc, _ = _find_cc()
    assert cc is not None
    with trace.span("engine.jit_compile", abi=ABI_VERSION):
        try:
            lib = ctypes.CDLL(_ensure_compiled(cc))
        except JitError as exc:
            _lib_error = str(exc)
            raise
        except OSError as exc:  # corrupt/unloadable .so
            _lib_error = f"loading compiled kernel failed: {exc}"
            raise JitError(_lib_error) from exc
    _lib = lib
    return lib
