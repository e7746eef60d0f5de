"""The collector process the socket workloads measure.

Launched by ``perfbench/run.py`` as a fresh ``python3`` process so that its
set-up time (imports, spec build, kernel-backend choice, bind) is measured
from outside.  The workload shape (d, k, epsilon) is the benchmark's own,
from ``harness``.  It prints one JSON line with its port and the kernel
backend it chose once it listens, then serves until SIGTERM or SIGINT, and
writes its durable state (in ``--durable-dir`` mode) on the way out like
any collector would.

    python3 perfbench/collector.py --protocol InpHT [--durable-dir DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from repro.core.backends import resolve_backend  # noqa: E402
from repro.core.domain import Domain  # noqa: E402
from repro.server import CollectionServer  # noqa: E402


async def serve(arguments: argparse.Namespace) -> None:
    spec = harness.make_spec(arguments.protocol)
    domain = Domain.binary(harness.DIMENSION)
    backend = resolve_backend()
    durable = arguments.durable_dir is not None
    server = CollectionServer(
        spec,
        domain,
        port=0,
        durable_acks=durable,
        checkpoint_dir=arguments.durable_dir,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, server.request_stop)
    print(json.dumps({"port": server.port, "backend": backend.name}), flush=True)
    await server.serve_until_stopped()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--durable-dir", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
