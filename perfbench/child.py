"""One measured process: import repro, say when ready, run one evaluation.

Run by ``run.py`` as a fresh interpreter per pass (or per server)::

    python3 perfbench/child.py MODE REPORT [--trace CHROME_OR_-] -- ARGS...

MODE is ``cli`` (``repro.cli.main(ARGS)``: ``evaluate`` or ``serve``) or
``sweep`` (the figure-style TPL sweep through ``run_evaluation``; ARGS
are ``SEED EXPORT HISTORY_DB``).  REPORT receives a JSON object with
the ``time.monotonic()`` at which repro was imported and ready (the
parent compares it with its own spawn time: both read the system-wide
monotonic clock), the import time, the exit code and, with ``--trace``,
the layer totals of :class:`tracing.Tracer`.  ``--trace PATH`` also
writes the spans as Chrome trace-event JSON to PATH (``-`` skips that).
"""

from __future__ import annotations

import json
import sys
import time

_start = time.perf_counter()

# The modules each mode's code path uses, so "ready" means imported.
import repro.cli  # noqa: E402
import repro.core.scheduler  # noqa: E402,F401
import repro.core.spec  # noqa: E402,F401
import repro.history  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start
READY = time.monotonic()


def run_sweep(args) -> int:
    from repro.bench.runner import run_evaluation
    from specs import sweep_spec

    seed, export, history_db = int(args[0]), args[1], args[2]
    result_set = run_evaluation(sweep_spec(seed), engine="auto", history_db=history_db)
    result_set.to_json(export)
    return 0


def main(argv) -> int:
    mode, report = argv[0], argv[1]
    rest = argv[2:]
    chrome = None
    if rest and rest[0] == "--trace":
        chrome, rest = rest[1], rest[2:]
    if rest and rest[0] == "--":
        rest = rest[1:]
    tracer = None
    if chrome is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = 1
    try:
        if mode == "cli":
            code = repro.cli.main(rest)
        elif mode == "sweep":
            code = run_sweep(rest)
        else:
            raise SystemExit("unknown mode %r" % mode)
    finally:
        payload = {"ready": READY, "import_s": IMPORT_S, "exit": code}
        if tracer is not None:
            payload["totals"] = tracer.totals()
            if chrome != "-":
                tracer.write_chrome_trace(chrome, "repro %s" % mode)
        with open(report, "w") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
