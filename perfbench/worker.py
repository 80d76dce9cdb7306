"""One benchmark round: a fresh process that runs ``tentmesh.cli.main`` once.

Usage: ``python3 worker.py <src dir> <result json> <trace 0|1> <cli args...>``

The program is imported from ``<src dir>``.  Untraced rounds wrap only the
call into ``advance_until`` (see :func:`tracing.install_split`); traced rounds
install every wrapper in :mod:`tracing`.  The result file records the exit
code, the wall times, the process's peak resident memory and, when traced,
the per-function counts and self times.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, result_path, traced, cli_args = argv[0], argv[1], argv[2] == "1", argv[3:]
    sys.path.insert(0, src)
    import tracing
    from tentmesh import cli

    result: dict = {}
    marks: dict = {}
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracing.install_split(cli, marks)

    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    t1 = time.perf_counter()

    result["rc"] = rc
    result["total_s"] = t1 - t0
    if marks:
        result["setup_s"] = marks["loop_start"] - t0
        result["run_s"] = marks["loop_end"] - marks["loop_start"]
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["calls"] = tracer.calls
        result["self_s"] = tracer.self_s
        result["truthy"] = tracer.truthy
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
