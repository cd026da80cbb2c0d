"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
count        FOMC of a sentence over a domain size
wfomc        weighted count, with ``--weight R=w,wbar`` options
batch        weighted counts at several domain sizes in one run
             (``--compile`` serves them from compiled circuits)
sweep        weighted counts of one instance at many weights for one
             predicate (``--vary R --values 1/2,1,2``; ``--compile``
             compiles the instance once and evaluates the circuit)
probability  probability of the sentence under the weight semantics
compile      compile a WFOMC instance into an arithmetic circuit and
             report its node/edge/depth statistics
stats        run a weighted count and pretty-print every engine/cache
             statistic the run touched (including circuit-compilation
             counters and trace-template sizes)
cache        inspect the persistent on-disk cache: ``stats`` / ``clear``
             / ``vacuum`` (size-bounded LRU eviction) / ``path``
spectrum     which domain sizes up to a bound admit a model
mu           the labeled-structure fraction mu_n (0-1 laws)

``--stats`` on the counting commands prints engine/cache statistics to
stderr after the result; ``--workers N`` counts independent lineage
components on a process pool (bit-identical to a serial run).
``--persist`` backs the component/polynomial/FO2 caches with the
disk store under ``--cache-dir`` (default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro``), so a repeated run — even in a new process — is
served from disk.  The grounded counting engine's conflict-driven
search is configurable: ``--branching {evsids,moms}`` picks the
decision heuristic, ``--no-learn`` disables clause learning (the
pre-CDCL engine), ``--max-learned N`` bounds the learned-clause
database, ``--no-phase-saving`` disables backjump polarity memory, and
``--restarts N`` enables Luby restarts with unit N conflicts.
None of these change the counted value.  All flags are gathered into
one :class:`repro.SolverOptions` object and threaded through the solver
stack as-is.

``--timeout SECONDS``, ``--max-conflicts N``, and ``--max-decisions N``
bound a counting run with a :class:`repro.Budget`; a tripped budget
aborts with exit code 4 and leaves every cache consistent, so the same
command re-run with a larger budget warm-starts from the completed
work and returns the bit-identical count.

Exit codes
----------

====  ====================================================
0     success
2     command-line usage error (argparse)
3     bad input: parse errors, unsupported sentences, bad
      weights (any :class:`repro.ReproError`)
4     budget exceeded (:class:`repro.BudgetExceededError`)
70    internal error (``EX_SOFTWARE``; traceback on stderr)
====  ====================================================

Examples::

    python -m repro count "forall x. exists y. R(x, y)" 5
    python -m repro wfomc "exists y. S(y)" 4 --weight S=1/2,1
    python -m repro batch "forall x, y. (R(x) | S(x, y))" 1 2 3 4
    python -m repro sweep "forall x, y. (R(x) | S(x, y))" 3 --vary R \
        --values "1/2,1,3/2,2" --compile
    python -m repro compile "forall x. exists y. R(x, y)" 6
    python -m repro cache vacuum --max-entries 100000
    python -m repro count "forall x, y, z. (R(x, y) | S(y, z))" 4 --workers 4
    python -m repro count "forall x, y. (R(x) | S(x, y))" 3 --no-learn
    python -m repro count "forall x, y. (R(x) | S(x, y))" 4 --persist
    python -m repro stats "forall x, y. (R(x) | S(x, y) | T(y))" 3
    python -m repro cache stats
    python -m repro probability "exists x. P(x)" 3
    python -m repro spectrum "exists x, y. x != y" 4
    python -m repro mu "forall x. exists y. R(x, y)" 8
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .complexity.spectrum import spectrum
from .asymptotics.zero_one import mu_n
from .errors import BudgetExceededError, ReproError
from .logic.parser import parse
from .logic.syntax import predicates_of
from .logic.vocabulary import Vocabulary, Predicate, WeightedVocabulary
from .options import SolverOptions
from .propositional.counter import engine_stats
from .resilience.limits import Budget
from .weights import WeightPair
from .wfomc.solver import fomc, probability, solver_cache_stats, wfomc, wfomc_batch

__all__ = ["main", "build_parser"]


def _parse_weight_option(option):
    """``R=1/2,1`` -> ``("R", WeightPair(1/2, 1))``."""
    try:
        name, pair_text = option.split("=", 1)
        w_text, wbar_text = pair_text.split(",", 1)
        return name, WeightPair(Fraction(w_text), Fraction(wbar_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            "weight options look like NAME=w,wbar (e.g. R=1/2,1): {}".format(exc)
        )


def _deadline_ms(text):
    """``--default-deadline-ms``: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            "must be a finite, non-negative number of milliseconds, "
            "not {!r}".format(text))
    return value


def _weighted_vocabulary(formula, weight_options):
    arities = predicates_of(formula)
    vocab = Vocabulary(Predicate(n, a) for n, a in sorted(arities.items()))
    weights = {name: WeightPair(1, 1) for name in arities}
    for name, pair in weight_options or []:
        if name not in weights:
            raise ReproError(
                "predicate {} does not occur in the sentence".format(name)
            )
        weights[name] = pair
    return WeightedVocabulary(vocab, weights)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symmetric weighted first-order model counting (PODS 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, batch=False):
        p.add_argument("formula", help="an FO sentence, e.g. 'forall x. exists y. R(x, y)'")
        if batch:
            p.add_argument("ns", type=int, nargs="+", metavar="n", help="domain sizes")
        else:
            p.add_argument("n", type=int, help="domain size")
        p.add_argument(
            "--method",
            choices=("auto", "fo2", "lineage", "enumerate"),
            default="auto",
        )
        p.add_argument(
            "--stats",
            action="store_true",
            help="print engine and cache statistics to stderr",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="count independent lineage components on N worker "
                 "processes (results are bit-identical to a serial run)",
        )
        p.add_argument(
            "--branching",
            choices=("evsids", "moms"),
            default=None,
            help="decision heuristic of the grounded counting engine "
                 "(default: evsids; moms is the pre-CDCL heuristic, kept "
                 "for ablation)",
        )
        p.add_argument(
            "--no-learn",
            action="store_true",
            help="disable conflict-driven clause learning (use the "
                 "learning-free MOMS engine; the count is identical)",
        )
        p.add_argument(
            "--max-learned",
            type=int,
            default=None,
            metavar="N",
            help="bound on the learned-clause database of one component "
                 "search before an LBD-based reduction (default 4096)",
        )
        p.add_argument(
            "--no-phase-saving",
            action="store_true",
            help="disable backjump phase saving (branch every decision "
                 "w-first; the count is identical)",
        )
        p.add_argument(
            "--restarts",
            type=int,
            default=None,
            metavar="N",
            help="enable Luby restarts in the clause-learning search "
                 "with unit N conflicts (default: no restarts; the "
                 "count is identical)",
        )
        p.add_argument(
            "--persist",
            action="store_true",
            help="back the component/polynomial/FO2 caches with the "
                 "on-disk store, shared across runs and processes "
                 "(results are bit-identical with or without it)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent cache location (default: $REPRO_CACHE_DIR "
                 "or ~/.cache/repro)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the run; exceeding it exits "
                 "with code 4 (caches stay consistent, so a rerun with "
                 "a larger budget warm-starts from the completed work)",
        )
        p.add_argument(
            "--max-conflicts",
            type=int,
            default=None,
            metavar="N",
            help="abort after N counting-engine conflicts (exit code 4)",
        )
        p.add_argument(
            "--max-decisions",
            type=int,
            default=None,
            metavar="N",
            help="abort after N counting-engine decisions (exit code 4)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="record spans for the run and write Chrome trace-event "
                 "JSON to FILE (load it at chrome://tracing or "
                 "ui.perfetto.dev); results are unchanged",
        )

    p_count = sub.add_parser("count", help="unweighted model count (FOMC)")
    add_common(p_count)

    p_wfomc = sub.add_parser("wfomc", help="weighted model count")
    add_common(p_wfomc)
    p_wfomc.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
        help="weights for one predicate (default 1,1); repeatable",
    )

    p_batch = sub.add_parser("batch", help="weighted counts at several domain sizes")
    add_common(p_batch, batch=True)
    p_batch.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
        help="weights for one predicate (default 1,1); repeatable",
    )
    p_batch.add_argument(
        "--compile",
        action="store_true",
        help="serve every domain size through the knowledge-compilation "
             "fast path (compile one circuit per size, then evaluate; "
             "bit-identical results)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="weighted counts of one instance at many weights for one "
             "predicate",
    )
    add_common(p_sweep)
    p_sweep.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
        help="base weights for the non-varied predicates; repeatable",
    )
    p_sweep.add_argument(
        "--vary",
        required=True,
        metavar="NAME",
        help="predicate whose weight w is swept",
    )
    p_sweep.add_argument(
        "--values",
        required=True,
        metavar="w1,w2,...",
        help="comma-separated exact w values for the varied predicate "
             "(e.g. 1/2,1,3/2)",
    )
    p_sweep.add_argument(
        "--wbar",
        default="1",
        metavar="V",
        help="fixed wbar of the varied predicate (default 1)",
    )
    p_sweep.add_argument(
        "--compile",
        action="store_true",
        help="compile the instance to an arithmetic circuit once and "
             "evaluate every weight set on it (bit-identical results)",
    )

    p_compile = sub.add_parser(
        "compile",
        help="compile a WFOMC instance into an arithmetic circuit and "
             "report its size",
    )
    p_compile.add_argument("formula")
    p_compile.add_argument("n", type=int)
    p_compile.add_argument(
        "--method", choices=("auto", "fo2", "lineage"), default="auto")
    p_compile.add_argument(
        "--persist", action="store_true",
        help="store the serialized circuit in the on-disk cache "
             "(namespace 'circuits')")
    p_compile.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent cache location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    p_compile.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
        help="weights to evaluate the compiled circuit at (default 1,1)",
    )

    p_prob = sub.add_parser("probability", help="probability of the sentence")
    add_common(p_prob)
    p_prob.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
    )

    p_stats = sub.add_parser(
        "stats",
        help="run a weighted count and pretty-print the full engine and "
             "solver-cache statistics",
    )
    add_common(p_stats)
    p_stats.add_argument(
        "--weight",
        action="append",
        type=_parse_weight_option,
        metavar="NAME=w,wbar",
        help="weights for one predicate (default 1,1); repeatable",
    )
    p_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the result and every statistic as one JSON document "
             "on stdout (scrapeable without the daemon)",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the persistent on-disk cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry counts per cache layer plus cumulative hit/"
                  "miss/write counters (cross-process)"),
        ("clear", "delete every persisted entry and counter"),
        ("vacuum", "evict least-recently-used entries down to a size "
                   "bound and compact the store file"),
        ("path", "print the resolved cache directory"),
    ):
        p = cache_sub.add_parser(name, help=help_text)
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent cache location (default: $REPRO_CACHE_DIR "
                 "or ~/.cache/repro)",
        )
        if name == "stats":
            p.add_argument(
                "--json",
                action="store_true",
                help="emit the store statistics as one JSON document",
            )
        if name == "vacuum":
            p.add_argument(
                "--max-entries", type=int, default=None, metavar="N",
                help="keep at most N entries (least-recently-hit evicted "
                     "first)")
            p.add_argument(
                "--max-bytes", type=int, default=None, metavar="N",
                help="shrink the store file to at most N bytes (default "
                     "268435456 = 256 MiB when neither bound is given)")

    p_trace = sub.add_parser(
        "trace",
        help="run any repro command with span tracing on and write "
             "Chrome trace-event JSON, e.g. "
             "repro trace -o t.json sweep ... --compile")
    p_trace.add_argument(
        "--out", "-o", default="trace.json", metavar="FILE",
        help="trace output file (default trace.json); place this flag "
             "BEFORE the wrapped command")
    p_trace.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command ...",
        help="the repro command to run under tracing")

    p_spec = sub.add_parser("spectrum", help="domain sizes with a model")
    p_spec.add_argument("formula")
    p_spec.add_argument("max_n", type=int)

    p_mu = sub.add_parser("mu", help="labeled-structure fraction mu_n")
    p_mu.add_argument("formula")
    p_mu.add_argument("n", type=int)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP inference daemon (compile once, serve many)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0: pick an ephemeral port and print it)")
    p_serve.add_argument(
        "--max-concurrency", type=int, default=4, metavar="N",
        help="evaluations running at once (also the worker-thread count)")
    p_serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="requests allowed to wait for a slot before load is shed "
             "with HTTP 429")
    p_serve.add_argument(
        "--default-deadline-ms", type=_deadline_ms, default=None,
        metavar="MS",
        help="deadline applied to requests that do not carry their own "
             "deadline_ms (default: none)")
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests (default 10)")
    p_serve.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="requests for one compiled circuit that arrive while it is "
             "being evaluated are batched into one vectorized pass; flush "
             "such a batch as soon as it reaches N requests (default 32; "
             "only with --compile)")
    p_serve.add_argument(
        "--no-coalesce", action="store_true",
        help="disable cross-request coalescing (serve every request "
             "with its own evaluation pass)")
    p_serve.add_argument(
        "--method", choices=("auto", "fo2", "lineage", "enumerate"),
        default="auto")
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes per evaluation (see the counting commands)")
    p_serve.add_argument(
        "--compile", action="store_true",
        help="serve through the compiled-circuit registry (compile each "
             "instance once, evaluate per request)")
    p_serve.add_argument(
        "--persist", action="store_true",
        help="back every cache layer with the on-disk store")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR")
    p_serve.add_argument(
        "--slow-request-ms", type=float, default=1000.0, metavar="MS",
        help="requests slower than this log a warn-level slow_request "
             "event in addition to the access line (default 1000)")
    p_serve.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="level of the daemon's structured JSON logs on stderr "
             "(access log at info, degradation events at warning)")

    return parser


def _print_stats():
    """One line per cache layer; solver stats cover grounding and FO2."""
    from .compile import compile_stats

    print("engine: {}".format(engine_stats()), file=sys.stderr)
    for name, stats in solver_cache_stats().items():
        print("solver.{}: {}".format(name, stats), file=sys.stderr)
    print("compile: {}".format(compile_stats()), file=sys.stderr)


def _print_stats_pretty(stream=None):
    """Aligned breakdown of the engine counters and every solver cache."""
    from .compile import compile_stats

    stream = stream or sys.stdout
    engine = engine_stats()
    cnf_cache = engine.pop("cnf_cache", None)
    print("engine", file=stream)
    width = max(len(name) for name in engine)
    for name, value in engine.items():
        print("  {:<{}}  {}".format(name, width, value), file=stream)
    caches = dict(solver_cache_stats())
    if cnf_cache is not None:
        caches["cnf_conversions"] = cnf_cache
    print("solver caches", file=stream)
    width = max(len(name) for name in caches)
    for name, stats in caches.items():
        row = "  ".join(
            "{}={}".format(k, v) for k, v in stats.items()
        ) if isinstance(stats, dict) else str(stats)
        print("  {:<{}}  {}".format(name, width, row), file=stream)
    compiled = compile_stats()
    circuits = compiled.pop("circuits", None)
    print("compile", file=stream)
    width = max(len(name) for name in compiled) if compiled else 8
    for name, value in compiled.items():
        print("  {:<{}}  {}".format(name, width, value), file=stream)
    if circuits is not None:
        row = "  ".join("{}={}".format(k, v) for k, v in circuits.items())
        print("  {:<{}}  {}".format("circuits", width, row), file=stream)
    _print_resilience_stats(stream)


def _print_resilience_stats(stream):
    """Store retry/re-enable counters and injected-fault counts, if any."""
    from .cache.store import _STORES
    from .resilience.faults import fault_counters

    import os

    rows = {}
    for store in _STORES.values():
        if store.pid != os.getpid():
            continue
        for name in ("retries", "reenables", "disk_full"):
            rows[name] = rows.get(name, 0) + getattr(store, name)
    fired = {k: v for k, v in fault_counters().items() if v}
    if not any(rows.values()) and not fired:
        return
    print("resilience", file=stream)
    names = list(rows) + ["faults_fired.{}".format(k) for k in fired]
    width = max(len(name) for name in names)
    for name, value in rows.items():
        print("  {:<{}}  {}".format(name, width, value), file=stream)
    for kind, count in fired.items():
        print("  {:<{}}  {}".format(
            "faults_fired.{}".format(kind), width, count), file=stream)


def _stats_document(result=None):
    """The statistics of :func:`_print_stats_pretty` as one JSON-safe dict."""
    from .compile import compile_stats

    document = {
        "engine": engine_stats(),
        "solver_caches": solver_cache_stats(),
        "compile": compile_stats(),
    }
    if result is not None:
        document["result"] = str(result)
    return document


def _budget(args):
    """A :class:`Budget` from the command line, or ``None``."""
    timeout = getattr(args, "timeout", None)
    max_conflicts = getattr(args, "max_conflicts", None)
    max_decisions = getattr(args, "max_decisions", None)
    if timeout is None and max_conflicts is None and max_decisions is None:
        return None
    return Budget(timeout=timeout, max_conflicts=max_conflicts,
                  max_decisions=max_decisions)


def _engine_options(args):
    """The parsed command line as one :class:`SolverOptions` object."""
    return SolverOptions(
        method=getattr(args, "method", "auto"),
        workers=getattr(args, "workers", None),
        branching=getattr(args, "branching", None),
        learn=False if getattr(args, "no_learn", False) else None,
        max_learned=getattr(args, "max_learned", None),
        persist=True if getattr(args, "persist", False) else None,
        cache_dir=getattr(args, "cache_dir", None),
        phase_saving=(False if getattr(args, "no_phase_saving", False)
                      else None),
        restarts=getattr(args, "restarts", None),
        compile=True if getattr(args, "compile", False) else None,
        budget=_budget(args),
    )


def _cache_main(args):
    """The ``repro cache`` subcommand: stats / clear / vacuum / path."""
    import os

    from .cache import STORE_FILENAME, default_cache_dir, open_store

    directory = os.path.abspath(args.cache_dir or default_cache_dir())
    if args.cache_command == "path":
        print(directory)
        return 0
    store_file = os.path.join(directory, STORE_FILENAME)
    if not os.path.exists(store_file):
        # Don't create a store just to look at it.
        if args.cache_command == "stats":
            if getattr(args, "json", False):
                import json

                print(json.dumps({"path": store_file, "entries": 0,
                                  "exists": False}))
            else:
                print("path     {}".format(store_file))
                print("entries  0  (no store file)")
        else:
            print("cleared 0 entries (no store file at {})".format(store_file))
        return 0
    store = open_store(directory)
    if args.cache_command == "clear":
        removed = store.clear()
        print("cleared {} entries from {}".format(removed, store.path))
        return 0
    if args.cache_command == "vacuum":
        max_entries = args.max_entries
        max_bytes = args.max_bytes
        if max_entries is None and max_bytes is None:
            max_bytes = 1 << 28  # 256 MiB default bound
        removed = store.vacuum(max_entries=max_entries, max_bytes=max_bytes)
        try:
            size = os.path.getsize(store.path)
        except OSError:
            size = 0
        print("evicted {} entries; {} now {} bytes, {} entries".format(
            removed, store.path, size,
            sum(store.entry_counts().values())))
        return 0
    stats = store.stats()
    if getattr(args, "json", False):
        import json

        print(json.dumps(stats, default=str))
        return 0
    print("path     {}".format(stats["path"]))
    print("size     {} bytes".format(stats["size_bytes"]))
    if stats["disabled"]:
        print("status   disabled (store unusable; runs fall back to "
              "recomputation)")
    elif stats["recreated"]:
        print("status   recreated (previous store file was corrupt)")
    print("entries  {}".format(stats["entries"]))
    for namespace, count in stats["namespaces"].items():
        print("  {:<14} {}".format(namespace, count))
    cumulative = stats["cumulative"]
    print("cumulative (all processes)")
    for name in ("hits", "misses", "writes"):
        print("  {:<14} {}".format(name, cumulative[name]))
    return 0


def _serve_main(args):
    """The ``repro serve`` subcommand: block in the inference daemon."""
    import asyncio
    import logging

    from .obs import configure_logging
    from .serve import ReproServer, ServeConfig

    configure_logging(level=getattr(logging, args.log_level.upper()))
    options = SolverOptions(
        method=args.method,
        workers=args.workers,
        persist=True if args.persist else None,
        cache_dir=args.cache_dir,
        compile=True if args.compile else None,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
        coalesce=not args.no_coalesce,
        coalesce_max_batch=args.max_batch,
        slow_request_ms=args.slow_request_ms,
        options=options,
    )

    async def _run_server():
        server = await ReproServer(config).start()
        print("repro serve listening on {}".format(server.url), flush=True)
        await server.run()

    asyncio.run(_run_server())
    return 0


def main(argv=None):
    """Parse the command line, run the command, map errors to exit codes.

    Exit codes: ``0`` success; ``2`` usage error (argparse); ``3`` bad
    input (any :class:`ReproError`); ``4`` budget exceeded; ``70``
    internal error (``EX_SOFTWARE``, traceback on stderr).
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print("repro: {}".format(exc), file=sys.stderr)
        return 4
    except ReproError as exc:
        print("repro: {}".format(exc), file=sys.stderr)
        return 3
    except Exception:
        import traceback

        traceback.print_exc()
        return 70


def _trace_main(args):
    """``repro trace [-o FILE] <command ...>``: one enable/export pair."""
    from .obs import disable_tracing, enable_tracing, export_trace

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise ReproError(
            "trace needs a command to run, e.g. repro trace -o t.json "
            "count 'forall x. exists y. R(x, y)' 5")
    wrapped = build_parser().parse_args(rest)
    if wrapped.command == "trace":
        raise ReproError("trace cannot wrap itself")
    enable_tracing()
    try:
        code = _run(wrapped)
    finally:
        events = export_trace(args.out, recorder=disable_tracing())
        print("trace: wrote {} events to {}".format(events, args.out),
              file=sys.stderr)
    return code


def _run(args):
    if args.command == "trace":
        return _trace_main(args)
    trace_file = getattr(args, "trace", None)
    if trace_file:
        from .obs import disable_tracing, enable_tracing, export_trace, \
            tracing_enabled

        if tracing_enabled():
            # Already under ``repro trace`` (or an embedding caller's
            # recorder): let the outer wrapper own enable/export.
            return _run_command(args)
        enable_tracing()
        try:
            return _run_command(args)
        finally:
            events = export_trace(trace_file, recorder=disable_tracing())
            print("trace: wrote {} events to {}".format(events, trace_file),
                  file=sys.stderr)
    return _run_command(args)


def _run_command(args):
    if args.command == "cache":
        return _cache_main(args)
    if args.command == "serve":
        return _serve_main(args)
    formula = parse(args.formula)

    options = _engine_options(args)
    if args.command == "count":
        print(fomc(formula, args.n, options=options))
    elif args.command == "wfomc":
        wv = _weighted_vocabulary(formula, args.weight)
        print(wfomc(formula, args.n, wv, options=options))
    elif args.command == "batch":
        wv = _weighted_vocabulary(formula, args.weight)
        results = wfomc_batch(formula, args.ns, wv, options=options)
        for n, value in results.items():
            print("{}\t{}".format(n, value))
    elif args.command == "sweep":
        from .wfomc.solver import wfomc_weight_sweep

        base = _weighted_vocabulary(formula, args.weight)
        if args.vary not in base.vocabulary:
            raise ReproError(
                "predicate {} does not occur in the sentence".format(args.vary))
        try:
            wbar = Fraction(args.wbar)
            values = [Fraction(v) for v in args.values.split(",") if v]
        except (ValueError, ZeroDivisionError) as exc:
            raise ReproError("bad --values/--wbar: {}".format(exc)) from None
        vocabularies = [base.with_weight(args.vary, WeightPair(value, wbar))
                        for value in values]
        results = wfomc_weight_sweep(formula, args.n, vocabularies,
                                     options=options)
        for value, count in zip(values, results):
            print("{}\t{}".format(value, count))
    elif args.command == "compile":
        from .compile import compile_wfomc

        wv = _weighted_vocabulary(formula, args.weight)
        compiled = compile_wfomc(
            formula, args.n, wv.vocabulary, method=args.method,
            persist=True if args.persist else None,
            cache_dir=args.cache_dir)
        stats = compiled.stats()
        print("kind    {}".format(stats.pop("kind")))
        for name in ("nodes", "edges", "depth", "vars", "leaf", "tot",
                     "times", "plus", "pow", "const"):
            print("{:<7} {}".format(name, stats.pop(name)))
        value = compiled.evaluate(wv)
        print("value   {}  (at the given weights)".format(value))
    elif args.command == "probability":
        wv = _weighted_vocabulary(formula, args.weight)
        value = probability(formula, args.n, wv, options=options)
        print("{} (~{:.6f})".format(value, float(value)))
    elif args.command == "stats":
        wv = _weighted_vocabulary(formula, args.weight)
        value = wfomc(formula, args.n, wv, options=options)
        if args.json:
            import json

            print(json.dumps(_stats_document(value), default=str))
        else:
            print("result  {}".format(value))
            _print_stats_pretty()
    elif args.command == "spectrum":
        members = spectrum(formula, args.max_n)
        print(" ".join(str(n) for n in sorted(members)) or "(empty)")
    elif args.command == "mu":
        value = mu_n(formula, args.n)
        print("{} (~{:.6f})".format(value, float(value)))
    if getattr(args, "stats", False) and args.command != "stats":
        _print_stats()
    if getattr(args, "persist", False):
        # Make this run's results visible to other processes now rather
        # than at interpreter exit (callers may invoke main() in-process).
        from .cache import open_store

        open_store(getattr(args, "cache_dir", None)).flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
