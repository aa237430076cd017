"""``python -m repro.shard`` — one worker of the stdio transport.

:class:`repro.exec.PersistentWorkerPool` with ``transport="stdio"``
(``fdrepair ... --shards N``) launches each worker as this module: it
runs the pool's one worker loop over JSONL on stdin/stdout until the
parent sends ``stop`` or closes the pipe.

The lines carry pickled messages, which is sound only between this
program's own processes.  The worker therefore refuses to run (exit 2)
unless its stdin is a pipe, so no socket or file can ever feed it.
"""

from __future__ import annotations

import os
import stat
import sys
from typing import Optional, Sequence

from .core import kernel as _kernel
from .exec import serve_stdio_worker

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro.shard")
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--generation", type=int, default=0)
    parser.add_argument("--faults", default=None,
                        help="JSON FaultPlan spec (chaos testing)")
    parser.add_argument("--no-kernel", action="store_true")
    args = parser.parse_args(argv)
    if not stat.S_ISFIFO(os.fstat(sys.stdin.fileno()).st_mode):
        print("repro.shard: stdin must be a pipe from the worker pool; "
              "refusing to unpickle from any other source", file=sys.stderr)
        return 2
    _kernel.set_enabled(not args.no_kernel)
    serve_stdio_worker(sys.stdin.buffer, sys.stdout.buffer, args.worker,
                       args.generation, fault_spec=args.faults)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    sys.exit(main())
