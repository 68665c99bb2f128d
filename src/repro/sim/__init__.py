"""Discrete-event simulation kernel.

The kernel is deliberately small: an integer-picosecond clock, a queue
of ``(time, sequence, callback)`` entries behind one of three
interchangeable schedulers (``wheel``, ``heap``, ``native`` — see
:mod:`repro.sim.engine`), and deterministic tie-breaking by insertion
order.  All higher-level components (links, routers, memory
controllers, hosts) are implemented as callbacks over this kernel.
"""

from repro.sim.engine import SCHEDULERS, Engine, default_scheduler
from repro.sim.random import RandomStream, derive_seed
from repro.sim.stats import CounterBag, Histogram

__all__ = [
    "Engine",
    "SCHEDULERS",
    "default_scheduler",
    "RandomStream",
    "derive_seed",
    "CounterBag",
    "Histogram",
]
