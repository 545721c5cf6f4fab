"""Command-line interface.

Usage::

    python -m repro list
    python -m repro evaluate --platform sun-ethernet --profile end-user
    python -m repro evaluate --platforms sun-ethernet alpha-fddi \
        --profile balanced end-user --jobs 4 --json sweep.json
    python -m repro experiment table3 fig4
    python -m repro usability
    python -m repro serve --port 8765 --db runs.db --cache-dir .repro-cache
    python -m repro check src/ --format json
    python -m repro evaluate --seeds 0 1 2 --history-db history.db
    python -m repro history gate --db history.db latest~1 latest
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__

__all__ = ["build_parser", "main"]


def _jobs_argument(text: str):
    """``--jobs`` accepts a worker count or ``auto`` (one per CPU).

    Range validation (>= 1) happens in ``create_executor`` so the API
    and the CLI share one error message; argparse only rejects values
    that are neither integers nor ``auto``.
    """
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a worker count or 'auto', got %r" % text
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-level evaluation of parallel/distributed computing tools "
            "(reproduction of Hariri et al., 1995)."
        ),
    )
    parser.add_argument("--version", action="version", version="repro %s" % __version__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list platforms, tools, experiments and profiles")

    evaluate = sub.add_parser(
        "evaluate",
        help="run the three-level evaluation",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
caching & statistics:
  --cache-dir DIR persists every measurement as a content-addressed
  JSON entry: a sweep killed halfway and re-launched with the same
  directory simulates only the jobs it never finished (0 on a clean
  re-run), and overlapping sweeps share entries.  --shards N splits
  the directory into N deterministic sub-stores for multi-host
  fan-out.  --seeds 0 1 2 replicates every measurement; --stats then
  reports each (platform, profile, tool) cell as mean ±95% CI over
  the seeds instead of one row per seed.  --json exports samples,
  scores, per-cell statistics and per-job telemetry (wall time,
  executor, cache hit/miss, attempts).

simulated variance:
  By default simulations are exactly deterministic, so every seed
  yields the same sample and multi-seed CIs collapse to ±0.  --noise
  [SCALE] turns on each platform's seeded stochastic network model
  (Ethernet CSMA/CD backoff, FDDI token-rotation jitter, ATM/crossbar
  switch jitter) at SCALE times its nominal amplitude (bare --noise
  means 1.0).  Runs stay reproducible — the same (platform,
  processors, seed, noise) always simulates the same timings — but
  different seeds now measure real variance, which is what --stats is
  for.  Noisy and deterministic runs never share cache entries.

  example (resumable, statistically grounded sweep):
    repro evaluate --platforms sun-ethernet alpha-fddi \\
        --profile balanced end-user --seeds 0 1 2 --noise \\
        --cache-dir .repro-cache --jobs 4 --stats --json sweep.json

analytic engine:
  --engine picks how cache misses are answered.  event (default)
  simulates every job on the discrete-event kernel.  analytic
  evaluates whole (platform, tool, size) sub-grids as vectorized
  closed-form timing curves — bit-identical to the kernel on every
  job it admits (noise-free, uncontended traffic patterns) and
  orders of magnitude faster — and errors on jobs it cannot admit.
  auto is the practical mode: eligible jobs are computed
  analytically, everything else (noise, ring traffic, contended
  collectives, application kernels) falls back to the event kernel.
  A curve-level cache above the job-level cache makes re-sweeps of
  the same configurations (fresh seeds included) near-free; per-job
  telemetry in --json marks each sample's engine.

streaming execution:
  Sweeps run through the streaming scheduler (Scheduler.start ->
  RunHandle).  --progress narrates the run live on stderr —
  done/total, simulated vs cache-hit counts and an ETA — while stdout
  keeps only the report (safe to pipe/--json).  --backend picks the
  executor: serial, process (worker processes; the default for
  --jobs > 1) or remote (see below).  --jobs auto sizes the pool to
  the machine's CPUs.  Ctrl-C cancels cooperatively: in-flight jobs
  finish and persist, so an interrupted sweep resumes over the same
  --cache-dir exactly like a killed one.

distributed execution:
  --backend remote --queue DIR turns this command into a coordinator:
  jobs are published as tickets on the shared queue directory and any
  number of `repro worker` processes (same --queue, same --cache-dir)
  pull, execute and publish them back.  --jobs sizes the admission
  window (how many tickets stay published), not a local pool.  A
  worker that dies mid-job is detected by its stopped heartbeat and
  its tickets are re-claimed by the fleet; Ctrl-C revokes every
  unclaimed ticket (claimed ones finish and persist).

  example (one coordinator, two workers, shared sharded cache):
    repro worker --queue /nfs/q --cache-dir /nfs/cache &
    repro worker --queue /nfs/q --cache-dir /nfs/cache &
    repro evaluate --platforms sun-ethernet alpha-fddi \\
        --backend remote --queue /nfs/q --cache-dir /nfs/cache \\
        --shards 4 --jobs 4 --progress
""",
    )
    evaluate.add_argument("--platform", default=None,
                          help="single platform (default sun-ethernet)")
    evaluate.add_argument("--platforms", nargs="+", default=None,
                          help="sweep several platforms in one run")
    evaluate.add_argument("--processors", type=int, default=4)
    evaluate.add_argument("--profile", nargs="+", default=["balanced"],
                          help="one or more weight profiles; extra profiles "
                               "re-score cached measurements for free")
    evaluate.add_argument("--tools", nargs="+", default=None)
    evaluate.add_argument("--seed", type=int, default=None,
                          help="root seed for a single-replication run "
                               "(default 0; mutually exclusive with --seeds)")
    evaluate.add_argument("--seeds", nargs="+", type=int, default=None,
                          help="replicate the sweep under several seeds "
                               "(enables --stats; mutually exclusive with "
                               "--seed)")
    evaluate.add_argument("--noise", type=float, nargs="?", const=1.0,
                          default=0.0, metavar="SCALE",
                          help="enable the seeded stochastic network models "
                               "at SCALE x their nominal amplitude (bare "
                               "--noise means 1.0; default off)")
    evaluate.add_argument("--jobs", type=_jobs_argument, default=1,
                          metavar="N|auto",
                          help="workers for the simulations (default 1; "
                               "'auto' = one per CPU); the pool starts once "
                               "and is reused across every scheduler pass "
                               "of the run")
    evaluate.add_argument("--engine",
                          choices=("event", "analytic", "auto"),
                          default="event",
                          help="how cache misses are answered: event "
                               "simulates every job; analytic computes "
                               "closed-form curves (bit-identical, errors "
                               "on ineligible jobs); auto computes where "
                               "eligible and simulates the rest")
    evaluate.add_argument("--backend",
                          choices=("serial", "process", "remote"),
                          default=None,
                          help="executor backend (default: serial for "
                               "--jobs 1, process otherwise; remote "
                               "coordinates `repro worker` processes "
                               "over --queue)")
    evaluate.add_argument("--queue", metavar="DIR", default=None,
                          help="shared job-queue directory for "
                               "--backend remote (the one your "
                               "`repro worker` processes watch)")
    evaluate.add_argument("--progress", action="store_true",
                          help="stream live progress (done/total, cache "
                               "hits, ETA) to stderr while the sweep runs")
    evaluate.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="persistent measurement cache: interrupted "
                               "sweeps resume, repeated sweeps re-simulate "
                               "nothing")
    evaluate.add_argument("--shards", type=int, default=None,
                          help="split --cache-dir into N deterministic "
                               "sub-stores (default: adopt the directory's "
                               "recorded shard count, 1 when fresh)")
    evaluate.add_argument("--stats", action="store_true",
                          help="aggregate across seeds: mean ±95%% CI per "
                               "(platform, profile, tool) cell")
    evaluate.add_argument("--json", metavar="PATH", default=None,
                          help="write samples, scores, statistics and "
                               "telemetry to a JSON file")
    evaluate.add_argument("--history-db", metavar="PATH", default=None,
                          help="append this run to a persistent run-history "
                               "database (see `repro history --help`)")
    evaluate.add_argument("--history-label", metavar="NAME", default=None,
                          help="label the recorded run carries in "
                               "`repro history list`")

    worker = sub.add_parser(
        "worker",
        help="pull and execute jobs from a shared queue directory",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
worker-pull execution:
  One claim-execute-publish loop over --queue: tickets are leased via
  atomic rename (exactly one of N racing workers wins each), a
  background heartbeat keeps the lease fresh, and results go through
  the shared --cache-dir (content-addressed, atomic writes) plus a
  per-ticket outcome file the coordinator consumes.  Workers check
  the cache before simulating, so a ticket reclaimed from a dead
  worker whose result already landed costs a lookup, not a re-run.

  The worker adopts the cache directory's recorded shard roster
  (manifest.json); pass --shards only to pin it explicitly — a
  mismatch is an error, never silent re-routing.

  SIGTERM/Ctrl-C stop gracefully: the ticket in flight finishes and
  persists, then the loop exits and prints its counters.  --idle-exit
  N makes a batch worker drain the queue and leave once it has been
  empty for N seconds; --max-jobs bounds how many tickets one worker
  processes.

  example (two workers draining one coordinator's sweep):
    repro worker --queue /nfs/q --cache-dir /nfs/cache --idle-exit 30 &
    repro worker --queue /nfs/q --cache-dir /nfs/cache --idle-exit 30 &
    repro evaluate --backend remote --queue /nfs/q --cache-dir /nfs/cache
""",
    )
    worker.add_argument("--queue", metavar="DIR", required=True,
                        help="shared job-queue directory to pull from")
    worker.add_argument("--cache-dir", metavar="DIR", required=True,
                        help="shared measurement cache results are "
                             "published through")
    worker.add_argument("--shards", type=int, default=None,
                        help="pin the cache shard roster (default: adopt "
                             "the directory's manifest)")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity for leases and "
                             "beacons (default host-pid-nonce)")
    worker.add_argument("--poll", type=float, default=0.1, metavar="SECONDS",
                        help="sleep between claim attempts when the queue "
                             "is empty (default 0.1)")
    worker.add_argument("--lease-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="heartbeat-silence span after which any "
                             "process may reclaim this worker's tickets "
                             "(default 30)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after processing N tickets")
    worker.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit once the queue stayed empty this long "
                             "(default: run until SIGTERM)")

    check = sub.add_parser(
        "check",
        help="run the invariant-enforcing static checks over source trees",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
invariant checks (pure ast analysis; nothing is imported or run):

  determinism.wall-clock   no time.time()/monotonic()/datetime.now()
                           inside sim|net|tools|analytic|apps —
                           simulated code reads Environment.now only.
  determinism.entropy      no random.*/numpy.random.*/os.urandom/uuid/
                           secrets there either; randomness comes from
                           named RandomStreams streams.
  determinism.stream-name  stream names handed to RandomStreams must
                           be static strings registered in
                           repro.sim.rng.STREAM_NAMES ('prefix*'
                           entries admit per-rank families).
  determinism.key-ordering key/hash-building functions must not depend
                           on dict iteration order: json.dumps needs
                           sort_keys=True, .items()/.keys()/.values()
                           need a sorted(...) wrapper.
  locking.guarded-field    fields annotated '# guarded-by: <lock>' are
                           only touched inside 'with self.<lock>:'
                           (methods named *_locked are assumed to be
                           called with the lock held; __init__ is
                           exempt).
  locking.unknown-guard    a guarded-by annotation must name a lock
                           attribute the class actually creates.
  schema.event-registry    every RunEvent subclass is enrolled in its
                           module's EVENT_TYPES registry (the SSE
                           protocol streams only enrolled types).
  schema.dict-round-trip   every field of a dataclass with both
                           to_dict and from_dict is handled by both
                           ('# schema: external' opts a field carried
                           out-of-band out).
  schema.cache-key-fields  MeasurementJob.to_dict — the cache-key
                           payload — writes exactly the dataclass's
                           fields.
  engine.unused-suppression  a '# repro: allow[rule-id]' comment that
                           suppresses nothing is itself reported.
  engine.syntax-error      a file the parser rejects is reported, not
                           skipped.

suppressions:
  '# repro: allow[rule-id]' (comma-separated ids) on the offending
  line marks a deliberate violation; pair it with a comment saying
  why.  Stale suppressions are findings (see above).

exit status: 0 clean, 1 findings, 2 usage error (unknown --rule,
missing path).

  examples:
    repro check src/
    repro check --rule determinism src/repro/net
    repro check --rule locking.guarded-field --format json src/
""",
    )
    check.add_argument("paths", nargs="*", default=None, metavar="PATH",
                       help="files or directories to check (default: src "
                            "if it exists, else the current directory)")
    check.add_argument("--rule", action="append", default=None,
                       metavar="ID",
                       help="run only this rule or pack ('determinism' "
                            "selects the pack, 'determinism.entropy' one "
                            "rule; repeatable) — bisect a red run with "
                            "successive --rule filters")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="text prints file:line findings with hints; "
                            "json emits the stable machine-readable "
                            "report CI consumes")
    check.add_argument("--list", action="store_true",
                       help="list every rule id with its description and "
                            "exit")

    experiment = sub.add_parser("experiment", help="regenerate paper tables/figures")
    experiment.add_argument("ids", nargs="*", help="experiment ids (default: all)")

    sub.add_parser("usability", help="print the ADL usability matrix")

    serve = sub.add_parser(
        "serve",
        help="run the evaluation service (HTTP + SSE job server)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
evaluation as a service:
  Exposes the streaming scheduler over HTTP: POST /api/runs submits an
  EvaluationSpec JSON ({"spec": {...}}) and returns {run_id}; GET
  /api/runs and /api/runs/ID inspect history and live progress; POST
  /api/runs/ID/cancel cancels cooperatively; GET /api/runs/ID/events
  is a Server-Sent Events stream that replays the run's events and
  then follows live.  Each request's X-User header is the identity
  the per-user concurrency limit (--user-limit) applies to; runs
  beyond the limit queue FIFO.

  --db persists every run (spec, state, counters, results) in SQLite,
  so a restarted server lists history; with --cache-dir the
  measurements themselves persist too, and resubmitting an
  interrupted spec simulates only the jobs that never finished.
  SIGTERM/SIGINT shut down gracefully: running evaluations cancel
  cooperatively (in-flight jobs finish and persist), queued runs are
  marked cancelled, then the server exits 0.

  With --backend remote --queue DIR the server stops executing jobs
  itself and fans every submitted run out to the `repro worker` fleet
  watching that queue (same --cache-dir on both sides); submit,
  streaming, cancellation and history behave identically.

  example:
    repro serve --port 8765 --db runs.db --cache-dir .repro-cache \\
        --jobs 2 --user-limit 2
""",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 picks an ephemeral one "
                            "(default 8765)")
    serve.add_argument("--db", metavar="PATH", default="repro-service.db",
                       help="SQLite run-history database "
                            "(default repro-service.db)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent measurement cache shared by "
                            "every run the server executes")
    serve.add_argument("--shards", type=int, default=None,
                       help="split --cache-dir into N sub-stores (default: "
                            "adopt the directory's recorded shard count)")
    serve.add_argument("--jobs", type=_jobs_argument, default=1,
                       metavar="N|auto",
                       help="workers per evaluation run (default 1)")
    serve.add_argument("--backend",
                       choices=("serial", "process", "remote"),
                       default=None,
                       help="executor backend per run (default: serial "
                            "for --jobs 1, process otherwise; remote "
                            "fans every run out to `repro worker` "
                            "processes over --queue)")
    serve.add_argument("--queue", metavar="DIR", default=None,
                       help="shared job-queue directory for "
                            "--backend remote")
    serve.add_argument("--user-limit", type=int, default=2,
                       help="concurrent runs per X-User identity; "
                            "further submissions queue FIFO (default 2)")
    serve.add_argument("--history-db", metavar="PATH", default=None,
                       help="append every completed run to this run-history "
                            "database and expose GET /api/history/... "
                            "(default: history disabled)")

    history = sub.add_parser(
        "history",
        help="record, diff and rank evaluation runs over time",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
regression intelligence:
  One SQLite database remembers every run you record — the full
  results export plus spec hash, git SHA, timestamp and
  noise/engine/backend provenance — and the subcommands read it back
  as a trajectory instead of a snapshot.

  Runs are addressed by id, by any unique id prefix, or relatively:
  `latest` is the newest recorded run and `latest~1` the one before
  it, so the canonical CI gate needs no bookkeeping:

    repro evaluate --seeds 0 1 2 --history-db history.db
    repro history diff --db history.db latest~1 latest
    repro history gate --db history.db latest~1 latest

  `diff` aligns two runs cell by cell — (platform, tool, primitive,
  message size, processors) — and judges each delta with the same
  Student-t machinery the reports use: a Welch two-sample confidence
  interval decides *significant*, the tolerance table decides *worth
  failing over*, and deterministic (single-seed, zero-spread) cells
  degrade exactly (±0 interval: any movement is real).  `diff` is
  informational and always exits 0; `gate` applies the same verdicts
  as policy and exits 1 on regression — that pair is the CI contract.

  `leaderboard` re-asks the paper's headline question — which tool
  wins on this platform, under this weighting profile? — over the
  last N recorded runs instead of one.  `trend` plots one cell family
  (or one bench metric recorded via scripts/bench_report.py
  --history-db) across runs, and `analyze` clusters failure patterns:
  cells that regress in consecutive diffs, tools whose primitives are
  structurally unmeasured, rankings whose confidence intervals
  overlap too much to call.

  The database schema is generation-stamped (PRAGMA user_version); a
  database written by a different generation is refused, never
  silently reinterpreted.

exit status: 0 ok, 1 gate failure, 2 usage error / bad reference.
""",
    )
    hsub = history.add_subparsers(dest="history_command")

    def _history_sub(name, help_text):
        sub_parser = hsub.add_parser(name, help=help_text)
        sub_parser.add_argument("--db", metavar="PATH",
                                default="repro-history.db",
                                help="run-history database "
                                     "(default repro-history.db)")
        return sub_parser

    record = _history_sub("record", "record a results export or "
                                    "BENCH_*.json report")
    record.add_argument("file", help="JSON file: a `repro evaluate --json` "
                                     "export or a benchmark report")
    record.add_argument("--label", default=None,
                        help="label shown in `repro history list`")
    record.add_argument("--source", default="cli",
                        help="provenance tag (default cli)")

    hist_list = _history_sub("list", "list recorded runs, newest first")
    hist_list.add_argument("--kind", choices=("evaluation", "bench"),
                           default=None, help="only this run kind")
    hist_list.add_argument("--limit", type=int, default=20,
                           help="show at most N runs (default 20)")

    show = _history_sub("show", "show one recorded run")
    show.add_argument("ref", help="run id, unique prefix, latest or latest~N")
    show.add_argument("--json", action="store_true",
                      help="print the full stored record as JSON")

    def _diff_arguments(sub_parser):
        sub_parser.add_argument("baseline",
                                help="baseline run (id, prefix, latest~N)")
        sub_parser.add_argument("current",
                                help="candidate run (id, prefix, latest)")
        sub_parser.add_argument("--tolerances", metavar="FILE", default=None,
                                help="JSON tolerance table "
                                     "({\"default\": f, \"kinds\": {...}})")
        sub_parser.add_argument("--tolerance", type=float, default=None,
                                metavar="FRACTION",
                                help="flat relative tolerance overriding "
                                     "the table's default")
        sub_parser.add_argument("--confidence", type=float, default=0.95,
                                help="CI level for significance "
                                     "(default 0.95)")
        sub_parser.add_argument("--json", action="store_true",
                                help="print the machine-readable diff")

    diff = _history_sub("diff", "align two runs cell-by-cell and judge "
                                "every delta (informational; exits 0)")
    _diff_arguments(diff)
    diff.add_argument("--all", action="store_true",
                      help="print unchanged cells too, not just movement")

    leaderboard = _history_sub("leaderboard", "rank tools per "
                                              "(platform, profile) over "
                                              "the last N runs")
    leaderboard.add_argument("--window", type=int, default=10,
                             help="how many recent runs to rank over "
                                  "(default 10)")
    leaderboard.add_argument("--platform", default=None,
                             help="only this platform's boards")
    leaderboard.add_argument("--profile", default=None,
                             help="only this profile's boards")
    leaderboard.add_argument("--json", action="store_true",
                             help="print the boards as JSON")

    trend_cmd = _history_sub("trend", "one quantity's per-run series, "
                                      "oldest first")
    trend_cmd.add_argument("--metric", default=None, metavar="PATH",
                           help="a recorded bench metric path (e.g. "
                                "metrics.kernel_events_per_sec)")
    trend_cmd.add_argument("--platform", default=None)
    trend_cmd.add_argument("--tool", default=None)
    trend_cmd.add_argument("--kind", default=None,
                           help="sendrecv, broadcast, ring, global_sum or "
                                "application")
    trend_cmd.add_argument("--size", type=int, default=None,
                           help="restrict to one message/vector size")
    trend_cmd.add_argument("--limit", type=int, default=None,
                           help="last N points only")
    trend_cmd.add_argument("--json", action="store_true")

    gate = _history_sub("gate", "fail (exit 1) when the candidate run "
                                "regressed vs the baseline")
    _diff_arguments(gate)
    gate.add_argument("--max-regressions", type=int, default=0,
                      help="regression cells tolerated before failing "
                           "(default 0)")
    gate.add_argument("--fail-on-removed", action="store_true",
                      help="also fail when cells vanished from the grid")

    analyze = _history_sub("analyze", "failure patterns and "
                                      "recommendations over recent runs")
    analyze.add_argument("--window", type=int, default=10,
                         help="how many recent runs to analyze (default 10)")
    analyze.add_argument("--json", action="store_true")
    return parser


def _cmd_list() -> int:
    from repro.apps.suite import BENCHMARKED_APPS, EXTENSION_APPS
    from repro.bench.runner import available_experiments
    from repro.core.weights import PRESET_PROFILES
    from repro.hardware.catalog import PLATFORM_NAMES
    from repro.tools.registry import TOOL_NAMES

    print("platforms:   %s" % ", ".join(PLATFORM_NAMES))
    print("tools:       %s" % ", ".join(TOOL_NAMES))
    print("apps:        %s (paper) + %s (extensions)"
          % (", ".join(BENCHMARKED_APPS), ", ".join(EXTENSION_APPS)))
    print("profiles:    %s" % ", ".join(sorted(PRESET_PROFILES)))
    print("experiments: %s" % ", ".join(available_experiments()))
    return 0


def _run_with_progress(scheduler, spec, stream=None):
    """Drive ``spec`` through ``Scheduler.start``, painting a live
    one-line progress display on ``stream`` (stderr by default, so
    stdout stays clean for reports and --json)."""
    from repro.core.progress import CacheHit, JobFinished, RunCompleted

    stream = stream if stream is not None else sys.stderr
    handle = scheduler.start(spec)
    painted = 0  # pad \r redraws so a shrinking line leaves no residue

    def paint(tail: str = "") -> None:
        nonlocal painted
        line = handle.progress().render()
        stream.write("\r" + line.ljust(painted) + tail)
        painted = len(line)

    try:
        for event in handle.events():
            if isinstance(event, (JobFinished, CacheHit)):
                paint()
            elif isinstance(event, RunCompleted):
                paint("\n")
            stream.flush()
    except BaseException:
        # Ctrl-C (or any consumer failure) mid-stream: cancel
        # cooperatively and wait so in-flight jobs flush to the cache
        # before the exception propagates.
        handle.cancel()
        handle.wait()
        stream.write("\n")
        raise
    return handle.result()


def _cmd_evaluate(args) -> int:
    from repro.core.executors import create_executor
    from repro.core.scheduler import Scheduler
    from repro.core.spec import EvaluationSpec
    from repro.core.weights import PRESET_PROFILES
    from repro.errors import ReproError
    from repro.tools.registry import PAPER_TOOL_NAMES, TOOL_CLASSES, available_tools

    unknown = [name for name in args.profile if name not in PRESET_PROFILES]
    if unknown:
        print("unknown profile %s; available: %s"
              % (", ".join(repr(name) for name in unknown),
                 ", ".join(sorted(PRESET_PROFILES))))
        return 2
    tools = tuple(args.tools) if args.tools else PAPER_TOOL_NAMES
    # Validate against the live registry up front, mirroring --profile.
    unknown = [name for name in tools if name not in TOOL_CLASSES]
    if unknown:
        print("unknown tools %s; available: %s"
              % (", ".join(repr(name) for name in unknown),
                 ", ".join(available_tools())))
        return 2
    if args.platform and args.platforms:
        print("use either --platform or --platforms, not both")
        return 2
    if args.seed is not None and args.seeds:
        # Silently preferring one flag over the other would misreport
        # which replication actually ran; make the conflict loud.
        print("use either --seed or --seeds, not both")
        return 2
    platforms = tuple(args.platforms or [args.platform or "sun-ethernet"])
    seeds = tuple(args.seeds) if args.seeds else (args.seed if args.seed is not None else 0,)
    try:
        spec = EvaluationSpec(
            tools=tools,
            platforms=platforms,
            processors=args.processors,
            profiles=tuple(args.profile),
            seeds=seeds,
            noise=args.noise,
        )
        # The scheduler's context manager shuts the (persistent,
        # reused-across-passes) worker pool down when the run is over.
        with Scheduler(
            executor=create_executor(args.jobs, backend=args.backend,
                                     queue_dir=args.queue),
            cache_dir=args.cache_dir,
            shards=args.shards,
            engine=args.engine,
        ) as scheduler:
            if args.progress:
                result_set = _run_with_progress(scheduler, spec)
            else:
                result_set = scheduler.run(spec)
    except KeyboardInterrupt:
        # The streaming scheduler cancelled cooperatively and flushed
        # every finished job before this propagated.
        print("interrupted: completed jobs are persisted%s"
              % (" — re-run with the same --cache-dir to resume"
                 if args.cache_dir else " in this process's cache only"))
        return 130
    except ReproError as error:
        print("error: %s" % error)
        return 2
    single_cell = (
        len(spec.platforms) == 1 and len(spec.profiles) == 1 and len(spec.seeds) == 1
    )
    if single_cell and not args.stats:
        print(result_set.report().summary())
    else:
        print(result_set.comparison(stats=args.stats))
        print()
        print("%d simulations scored %d configurations"
              % (scheduler.simulations_run, len(spec.cells())))
    if args.cache_dir:
        print("cache %s: %d simulated, %d served from %s"
              % (args.cache_dir, scheduler.simulations_run,
                 scheduler.cache.hits, scheduler.cache.backend.name))
    if scheduler.analytic is not None:
        computed = sum(1 for record in scheduler.telemetry.values()
                       if record.engine == "analytic" and not record.cache_hit)
        curve = scheduler.analytic.curves.stats()
        print("analytic engine: %d job(s) computed closed-form over %d "
              "curve(s) (%d point hit(s), %d vectorized evaluation(s)); "
              "%d simulated on the event kernel"
              % (computed, curve["curves"], curve["hits"],
                 curve["evaluations"], scheduler.simulations_run - computed))
    if args.json:
        try:
            result_set.to_json(args.json)
        except OSError as error:
            print("error: cannot write %s (%s)" % (args.json, error))
            return 2
        print("wrote %s" % args.json)
    if args.history_db:
        from repro.history import HistoryStore, current_git_sha

        try:
            with HistoryStore(args.history_db) as history:
                run_id = history.record_result(
                    result_set.to_dict(), label=args.history_label,
                    source="cli", git_sha=current_git_sha(),
                )
        except (ReproError, OSError) as error:
            print("error: cannot record history in %s (%s)"
                  % (args.history_db, error))
            return 2
        print("recorded run %s in %s" % (run_id, args.history_db))
    return 0


def _history_tolerances(args):
    """The tolerance table a diff/gate invocation asked for."""
    from repro.errors import HistoryError
    from repro.history import Tolerances

    if args.tolerances and args.tolerance is not None:
        raise HistoryError("use either --tolerances or --tolerance, not both")
    if args.tolerances:
        return Tolerances.from_file(args.tolerances)
    if args.tolerance is not None:
        return Tolerances(default=args.tolerance)
    return Tolerances()


def _cmd_history(args) -> int:
    import json as json_module
    import time

    from repro.errors import ReproError
    from repro.history import (
        HistoryStore,
        analyze_history,
        current_git_sha,
        diff_runs,
        leaderboards,
        run_gate,
        trend,
    )

    if args.history_command is None:
        print("usage: repro history record|list|show|diff|leaderboard|"
              "trend|gate|analyze (see `repro history --help`)")
        return 2

    def when(timestamp) -> str:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(timestamp))

    try:
        with HistoryStore(args.db) as store:
            if args.history_command == "record":
                try:
                    with open(args.file) as handle:
                        payload = json_module.load(handle)
                except (OSError, ValueError) as error:
                    print("error: cannot read %s (%s)" % (args.file, error))
                    return 2
                if isinstance(payload, dict) and "spec" in payload:
                    run_id = store.record_result(
                        payload, label=args.label, source=args.source,
                        git_sha=current_git_sha(),
                    )
                else:
                    run_id = store.record_bench(
                        payload, label=args.label, source=args.source,
                        git_sha=current_git_sha(),
                    )
                print("recorded run %s in %s" % (run_id, args.db))
                return 0

            if args.history_command == "list":
                runs = store.list_runs(kind=args.kind, limit=args.limit)
                if not runs:
                    print("no recorded runs in %s" % args.db)
                    return 0
                print("%-14s %-11s %-19s %-9s %-16s %s" % (
                    "run", "kind", "recorded", "git", "label", "provenance"))
                for run in runs:
                    provenance = "%s noise=%g" % (run["source"], run["noise"])
                    if run["engine"]:
                        provenance += " engine=%s" % run["engine"]
                    if run["backend"]:
                        provenance += " backend=%s" % run["backend"]
                    print("%-14s %-11s %-19s %-9s %-16s %s" % (
                        run["run_id"], run["kind"], when(run["recorded_at"]),
                        run["git_sha"] or "-", run["label"] or "-",
                        provenance,
                    ))
                return 0

            if args.history_command == "show":
                record = store.get(store.resolve(args.ref))
                if args.json:
                    print(json_module.dumps(record, indent=2, sort_keys=True))
                    return 0
                print("run %s (%s)" % (record["run_id"], record["kind"]))
                for key in ("label", "source", "git_sha", "spec_hash",
                            "engine", "backend"):
                    if record.get(key):
                        print("  %-12s %s" % (key, record[key]))
                print("  %-12s %s" % ("recorded", when(record["recorded_at"])))
                if record["kind"] == "evaluation":
                    samples = store.samples_for(record["run_id"])
                    print("  %-12s %d rows over %d cells"
                          % ("samples", len(samples),
                             len(store.cells(record["run_id"]))))
                    for row in store.scores_for([record["run_id"]]):
                        print("  score %-12s %-10s %-10s %.3f ±%.3f (n=%d)"
                              % (row["platform"], row["profile"], row["tool"],
                                 row["mean"], row["stddev"], row["n"]))
                else:
                    from repro.history.store import flatten_metrics

                    metrics = flatten_metrics(
                        {"metrics": record["payload"]["metrics"]})
                    for path, value in sorted(metrics.items()):
                        print("  metric %-40s %.6g" % (path, value))
                return 0

            if args.history_command == "diff":
                diff = diff_runs(
                    store, args.baseline, args.current,
                    tolerances=_history_tolerances(args),
                    confidence=args.confidence,
                )
                print(json_module.dumps(diff.to_dict(), indent=2,
                                        sort_keys=True)
                      if args.json else diff.render(show_all=args.all))
                return 0

            if args.history_command == "leaderboard":
                boards = leaderboards(
                    store, window=args.window,
                    platform=args.platform, profile=args.profile,
                )
                if args.json:
                    print(json_module.dumps(
                        [board.to_dict() for board in boards],
                        indent=2, sort_keys=True))
                elif not boards:
                    print("no evaluation runs recorded in %s" % args.db)
                else:
                    print("\n\n".join(board.render() for board in boards))
                return 0

            if args.history_command == "trend":
                series = trend(
                    store, metric=args.metric, platform=args.platform,
                    tool=args.tool, kind=args.kind, size=args.size,
                    limit=args.limit,
                )
                print(json_module.dumps(series.to_dict(), indent=2,
                                        sort_keys=True)
                      if args.json else series.render())
                return 0

            if args.history_command == "gate":
                verdict = run_gate(
                    store, args.baseline, args.current,
                    tolerances=_history_tolerances(args),
                    confidence=args.confidence,
                    max_regressions=args.max_regressions,
                    fail_on_removed=args.fail_on_removed,
                )
                print(json_module.dumps(verdict.to_dict(), indent=2,
                                        sort_keys=True)
                      if args.json else verdict.render())
                return verdict.exit_code

            if args.history_command == "analyze":
                analysis = analyze_history(store, window=args.window)
                print(json_module.dumps(analysis.to_dict(), indent=2,
                                        sort_keys=True)
                      if args.json else analysis.render())
                return 0
    except ReproError as error:
        print("error: %s" % error)
        return 2
    except OSError as error:
        print("error: cannot open %s (%s)" % (args.db, error))
        return 2
    return 2  # pragma: no cover - argparse restricts the choices


def _cmd_worker(args) -> int:
    import signal

    from repro.core.cache import ResultCache, ShardedBackend
    from repro.distributed import JobQueue, Worker
    from repro.errors import ReproError

    try:
        queue = JobQueue(args.queue, lease_timeout=args.lease_timeout)
        cache = ResultCache.on_disk(args.cache_dir, shards=args.shards)

        def narrate(claim, outcome) -> None:
            # One machine-parseable line per ticket: the CI smoke job
            # greps these to prove the fleet split work disjointly.
            if outcome["error"]:
                status = "failed type=%s" % outcome["error"]["type"]
            elif outcome["cache_hit"]:
                status = "cache-hit"
            else:
                status = "simulated"
            print("[%s] ticket=%s %s wall=%.3fs"
                  % (worker.worker_id, claim.ticket, status,
                     outcome["wall_seconds"]), flush=True)

        worker = Worker(
            queue, cache,
            worker_id=args.worker_id,
            poll_interval=args.poll,
            max_jobs=args.max_jobs,
            idle_seconds=args.idle_exit,
            on_job=narrate,
        )
    except ReproError as error:
        print("error: %s" % error)
        return 2
    # Graceful stop: the ticket in flight finishes and persists, then
    # the loop exits — a worker killed harder than this is exactly
    # what heartbeats + stale-lease reclaim exist for.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: worker.stop())
    shards = (len(cache.backend.backends)
              if isinstance(cache.backend, ShardedBackend) else 1)
    print("worker %s pulling from %s (cache %s, %d shard(s))"
          % (worker.worker_id, args.queue, args.cache_dir, shards),
          flush=True)
    stats = worker.run()
    print("worker %s done: %d processed, %d simulated, %d cache hits, "
          "%d failed"
          % (worker.worker_id, stats["processed"], stats["simulated"],
             stats["cache_hits"], stats["failed"]))
    return 0


def _cmd_check(args) -> int:
    import os

    from repro.analysis import all_rules, findings_to_json, run_checks, select_rules
    from repro.errors import ReproError

    if args.list:
        for rule in all_rules():
            print("%-25s %s" % (rule.id, rule.description))
        print()
        print("dynamic counterparts (assertions, not lint): "
              "tests/analysis_checks/ promotes scripts/apl_check.py and "
              "scripts/ordering_check.py into pytest tests of the paper's "
              "qualitative orderings.")
        return 0
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    try:
        rules = select_rules(args.rule)
        report = run_checks(paths, rules)
    except ReproError as error:
        print("error: %s" % error)
        return 2
    if args.format == "json":
        print(findings_to_json(report))
    else:
        for finding in report.findings:
            print(finding.render())
        print("%d file(s) checked, %d rule(s), %d finding(s)"
              % (report.files_checked, len(report.rules_run),
                 len(report.findings)))
    return 0 if report.clean else 1


def _cmd_experiment(ids: List[str]) -> int:
    from repro.bench.runner import available_experiments, run_experiments
    from repro.errors import ReproError

    requested = ids or None
    if requested:
        unknown = set(requested) - set(available_experiments())
        if unknown:
            print("unknown experiments: %s" % ", ".join(sorted(unknown)))
            print("available: %s" % ", ".join(available_experiments()))
            return 2
    try:
        results = run_experiments(requested)
    except ReproError as error:
        print("error: %s" % error)
        return 2
    failed = [result for result in results if not result.passed]
    print("%d/%d artifacts reproduce the paper's claims"
          % (len(results) - len(failed), len(results)))
    return 1 if failed else 0


def _cmd_usability() -> int:
    from repro.core.report import render_usability_table

    print(render_usability_table())
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.core.cache import ResultCache
    from repro.core.executors import create_executor
    from repro.core.scheduler import Scheduler
    from repro.errors import ReproError
    from repro.service import JobRegistry, RunStore, ServiceServer

    try:
        if args.user_limit < 1:
            print("error: --user-limit must be >= 1")
            return 2
        store = RunStore(args.db)
        orphans = store.recover()
        if orphans:
            print("reconciled %d orphaned run(s) from a previous server"
                  % orphans)
        # One thread-safe cache shared by every run this server
        # executes: overlapping specs share measurements, and with
        # --cache-dir they survive the server itself.
        if args.cache_dir is not None:
            cache = ResultCache.on_disk(args.cache_dir, shards=args.shards)
        else:
            cache = ResultCache()

        def scheduler_factory() -> Scheduler:
            return Scheduler(
                executor=create_executor(args.jobs, backend=args.backend,
                                         queue_dir=args.queue),
                cache=cache,
            )

        # Fail a bad backend/queue combination at boot, not inside the
        # first submitted run.
        scheduler_factory().executor.close()

        history = None
        if args.history_db:
            from repro.history import HistoryStore

            history = HistoryStore(args.history_db)
        registry = JobRegistry(
            store, scheduler_factory=scheduler_factory,
            per_user_limit=args.user_limit, history=history,
        )
        server = ServiceServer(registry, host=args.host, port=args.port)
    except ReproError as error:
        print("error: %s" % error)
        return 2
    except OSError as error:
        print("error: cannot open %s (%s)" % (args.db, error))
        return 2

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                signal.signal(signum, lambda *_: stop.set())
        try:
            await server.start()
        except OSError as error:
            raise ReproError(
                "cannot bind %s:%d (%s)" % (args.host, args.port, error)
            )
        # Machine-readable: tests and examples/service_demo.py parse
        # this line to find an ephemeral --port 0.
        print("serving on http://%s:%d" % (args.host, server.port), flush=True)
        print("db=%s cache=%s user-limit=%d (SIGTERM/ctrl-C stops "
              "gracefully)" % (args.db, args.cache_dir or "<memory>",
                               args.user_limit), flush=True)
        await stop.wait()
        print("shutting down: cancelling running evaluations "
              "cooperatively...", flush=True)
        await server.close()
        # Registry shutdown joins watcher threads (in-flight jobs
        # finish and persist) — keep it off the event loop thread.
        await asyncio.to_thread(registry.shutdown)

    try:
        asyncio.run(_serve())
    except ReproError as error:
        print("error: %s" % error)
        return 2
    finally:
        store.close()
        if history is not None:
            history.close()
    print("service stopped; run history is in %s" % args.db)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "experiment":
        return _cmd_experiment(args.ids)
    if args.command == "usability":
        return _cmd_usability()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "history":
        return _cmd_history(args)
    parser.print_help()
    return 0
