"""In-tree builder for the compiled engine (``Engine("native")``).

The native backend is a single hand-written CPython extension
(``_native.c``, no third-party dependencies) compiled next to its
source so a plain source checkout can opt in without any packaging
machinery::

    python -m repro.sim.native_build

Uses the C compiler the interpreter was built with (``sysconfig``'s
``CC``, falling back to ``cc``) plus the interpreter's own headers.
When no compiler is present the build fails with a clear message and
the simulator keeps working on the pure-Python schedulers —
:mod:`repro.sim.native` turns the missing artifact into a
:class:`~repro.errors.SimulationError` (explicit ``Engine("native")``)
or a fall-back to ``wheel`` (ambient ``REPRO_ENGINE=native``).
"""

from __future__ import annotations

import argparse
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).resolve().with_name("_native.c")


def target_path() -> Path:
    """Where the compiled extension lands (ABI-tagged, per interpreter)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return SOURCE.with_name("_native" + suffix)


def compiler_command() -> list:
    cc = sysconfig.get_config_var("CC") or "cc"
    return shlex.split(cc)


def build_command(out: Path) -> list:
    include = sysconfig.get_path("include")
    flags = ["-O2", "-fPIC", "-shared", "-fno-strict-aliasing"]
    return [
        *compiler_command(),
        *flags,
        f"-I{include}",
        str(SOURCE),
        "-o",
        str(out),
    ]


def is_fresh(out: Path) -> bool:
    try:
        return out.stat().st_mtime >= SOURCE.stat().st_mtime
    except OSError:
        return False


def build(force: bool = False, quiet: bool = False) -> Path:
    """Compile ``_native.c``; returns the artifact path.

    Raises :class:`RuntimeError` when the compiler is missing or the
    compile fails — callers (the loader, CI) decide whether that is
    fatal or just means "stay on the pure-Python schedulers".
    """
    out = target_path()
    if not force and is_fresh(out):
        if not quiet:
            print(f"native engine up to date: {out}")
        return out
    cmd = build_command(out)
    if not quiet:
        print("building native engine:", " ".join(cmd))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError as exc:
        raise RuntimeError(
            f"no C compiler found ({cmd[0]!r}): the native engine is "
            "optional — the wheel/heap schedulers keep working"
        ) from exc
    if proc.returncode != 0:
        raise RuntimeError(
            "native engine build failed:\n" + (proc.stderr or proc.stdout)
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if up to date"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = build(force=args.force, quiet=args.quiet)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
