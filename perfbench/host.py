"""Subprocess entry of the benchmark.

``python -m perfbench.host <role> [--trace-dir DIR] -- <repro CLI args>``
runs the ``repro`` command line (``serve``, ``cluster agent``, ``cluster
coordinator``) in this process.  With ``--trace-dir`` the span wrappers
are installed first, so the server's pool workers fork with them, and
the spans are written when the command returns (after ``shutdown``).

``python -m perfbench.host probe [--warm-up]`` measures a fresh
interpreter's set-up: it imports everything the benchmark client needs
(and with ``--warm-up`` runs the tiny exhibit warm-up grid), then prints
``ready``.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    command = argv[split + 1:]
    ap = argparse.ArgumentParser(prog="python -m perfbench.host")
    ap.add_argument("role")
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--warm-up", action="store_true")
    args = ap.parse_args(argv[:split])

    if args.role == "probe":
        from perfbench import workloads

        if args.warm_up:
            workloads.warm_up()
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace_dir:
        from perfbench.tracer import install

        tracer = install(args.role, args.trace_dir)
    from repro.__main__ import main as repro_main

    code = repro_main(command)
    if tracer is not None:
        tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
