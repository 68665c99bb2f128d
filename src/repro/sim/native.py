"""Loader for the compiled scheduler backend (``Engine("native")``).

The compiled artifact is optional, the pure-Python install path never
imports it, and asking for it explicitly without the artifact present
raises a :class:`~repro.errors.SimulationError` that says how to get
it.  The ambient path (``REPRO_ENGINE=native`` in the environment)
falls back to the ``wheel`` scheduler with a one-time warning instead
— an env var set fleet-wide must not break machines without a
compiler.

The extension is built in-tree (``python -m repro.sim.native_build``)
from ``_native.c``; no third-party packages are involved, so the
``native`` extra in ``pyproject.toml`` carries no dependencies — it
documents the opt-in and gives ``pip install 'repro[native]'`` a name.
"""

from __future__ import annotations

from repro.errors import SimulationError

BUILD_HINT = (
    "build it with `python -m repro.sim.native_build` (needs a C "
    "compiler and the CPython headers), or pick one of the pure-Python "
    "schedulers Engine('wheel') / Engine('heap')"
)

_module = None
_import_error: str = ""


def _try_import():
    """Import the compiled extension once; cache the outcome."""
    global _module, _import_error
    if _module is not None or _import_error:
        return _module
    try:
        from repro.sim import _native
    except ImportError as exc:
        _import_error = str(exc)
        return None
    _module = _native
    return _module


def available() -> bool:
    """True when the compiled extension is built and importable."""
    return _try_import() is not None


def load():
    """The compiled module, or a clear error naming the fix."""
    module = _try_import()
    if module is None:
        raise SimulationError(
            "Engine('native') requires the compiled extension, which is "
            f"not built ({_import_error}); " + BUILD_HINT
        )
    return module


def native_engine():
    """Construct a fresh compiled engine (``NativeEngine``)."""
    return load().NativeEngine()


def native_queue_class():
    """The compiled InputQueue replacement used by the native backend."""
    return load().NativeQueue


_router_cls = None


def native_router_class():
    """A Router whose arbitration loop runs in C.

    Only ``_try_output`` (the profile's hottest pure-Python frame) and
    its two head-probing entry points move to C; construction, RAS
    resynchronization, and every port/arbiter/tracer interaction stay
    on the Python classes, called back from C in the exact order the
    pure-Python loop performs them.
    """
    global _router_cls
    if _router_cls is None:
        module = load()
        from repro.net.router import Router

        class NativeRouter(Router):
            __slots__ = ()

            def _try_output(self, engine, key):
                module.router_try_output(self, engine, key)

            def packet_arrived(self, engine, queue):
                module.router_packet_arrived(self, engine, queue)

            def has_response_head(self, key):
                return module.router_has_response_head(self, key)

        _router_cls = NativeRouter
    return _router_cls
