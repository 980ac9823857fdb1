"""Launch ``repro serve`` with the daemon layers wrapped by the tracer.

Usage (from the repository root)::

    python3 perfbench/daemon.py --spans OUT.jsonl -- serve --unix SOCK ...

Everything after ``--`` is the ``python -m repro`` command line.  The
wrappers are installed before the CLI builds its ``ShardRouter`` and
starts ``PIFTServer``; when the daemon shuts down, the spans and the
aggregates (first line) are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import layers
    from tracer import Tracer

    from repro.__main__ import main as repro_main

    tracer = Tracer()
    holder = layers.install(tracer, "daemon")
    try:
        return repro_main(serve_args)
    finally:
        router = holder["router"]
        if router is not None:
            holder["fold"](router.shards.values())
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
