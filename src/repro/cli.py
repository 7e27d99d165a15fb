"""Command-line interface: ``cip`` (or ``python -m repro``).

Subcommands operate on nets in any registered format — astg ``.g``,
native ``.json``, TINA ``.net`` or PNML ``.pnml``, selected by
extension (see ``docs/INTEROP.md``):

* ``cip info FILE`` — sizes, net class, behavioural properties;
* ``cip compose A B -o OUT`` — circuit-algebra composition;
* ``cip hide FILE -s SIG [-s SIG ...] -o OUT`` — net contraction;
* ``cip verify A B`` — receptiveness check of the composition;
* ``cip simplify TARGET ENV -o OUT`` — environment-driven reduction;
* ``cip synth FILE`` — complex-gate synthesis (prints the netlist);
* ``cip dot FILE`` — Graphviz export;
* ``cip convert IN OUT`` — format translation;
* ``cip bench DIR`` — corpus differential sweep across the engines.

Exit codes: ``0`` success, ``1`` verification/synthesis failure,
``2`` usage or input errors (missing file, unparsable input,
unrecognized extension, exceeded state bound, modules whose interfaces
do not fit the operator, transitions that hiding cannot contract).

``cip verify`` and ``cip info`` accept ``--profile`` (print a span /
counter / gauge summary on stdout, ``#``-prefixed) and
``--metrics-out FILE.json`` (write the full ``repro.obs/v1`` payload);
see ``docs/OBSERVABILITY.md`` for the schema.

``info``/``verify``/``bench``/``compose``/``hide`` accept
``--cache-dir DIR`` and ``--no-cache`` to steer the content-addressed
artifact cache (verdicts, one entry per ``bench`` instance, and
``hide``/``trim`` results); environment fallbacks are
``CIP_CACHE_DIR`` and ``CIP_NO_CACHE``, the default root
``~/.cache/cip``.  Output is byte-identical warm or cold — see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.algebra.hide import ContractionError
from repro.obs import metrics as obs
from repro.stg.stg import InterfaceError, Stg


class CliError(Exception):
    """A user-facing error: printed as one line, exit code 2."""


def _load(path: str) -> Stg:
    from repro.io.formats import FormatError, load_stg

    try:
        return load_stg(path)
    except FormatError as error:
        raise CliError(str(error)) from None
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except OSError as error:
        raise CliError(
            f"cannot read {path}: {error.strerror or error}"
        ) from None
    except (ValueError, KeyError) as error:
        raise CliError(f"cannot parse {path}: {error}") from None


def _save(stg: Stg, path: str) -> None:
    from repro.io.formats import FormatError, save_stg

    try:
        save_stg(stg, path)
    except FormatError as error:
        raise CliError(str(error)) from None
    except ValueError as error:
        raise CliError(f"cannot write {path}: {error}") from None
    except OSError as error:
        raise CliError(
            f"cannot write {path}: {error.strerror or error}"
        ) from None


def _observed(args: argparse.Namespace, body) -> int:
    """Run ``body`` under a metrics recorder when ``--profile`` or
    ``--metrics-out`` was given; otherwise run it bare (no recording
    overhead beyond the no-op dispatch)."""
    profile = getattr(args, "profile", False)
    metrics_out = getattr(args, "metrics_out", None)
    if not profile and not metrics_out:
        return body()
    with obs.record() as recorder:
        status = body()
    if metrics_out:
        from repro.obs.emit import write_metrics

        try:
            write_metrics(metrics_out, recorder)
        except OSError as error:
            raise CliError(
                f"cannot write {metrics_out}: {error.strerror or error}"
            ) from None
    if profile:
        _print_profile(recorder)
    return status


def _print_profile(recorder: obs.MetricsRecorder) -> None:
    payload = recorder.to_dict()
    print(
        f"# profile: {len(payload['spans'])} spans,"
        f" {len(payload['counters'])} counters,"
        f" {len(payload['gauges'])} gauges ({payload['clock']} clock)"
    )
    for span in payload["spans"]:
        print(f"#   span    {span['name']:<40} {span['duration'] * 1e3:10.3f} ms")
    for name, value in payload["counters"].items():
        print(f"#   counter {name:<40} {value}")
    for name, value in payload["gauges"].items():
        print(f"#   gauge   {name:<40} {value}")


def cmd_info(args: argparse.Namespace) -> int:
    from repro.petri.analysis import analyze
    from repro.petri.classify import classify
    from repro.petri.reachability import UnboundedNetError

    stg = _load(args.file)

    def body() -> int:
        stg.validate()
        stats = stg.net.stats()
        print(f"model    : {stg.name}")
        print(f"inputs   : {', '.join(sorted(stg.inputs)) or '-'}")
        print(f"outputs  : {', '.join(sorted(stg.outputs)) or '-'}")
        if stg.internals:
            print(f"internal : {', '.join(sorted(stg.internals))}")
        print(
            f"size     : {stats['places']} places, {stats['transitions']}"
            f" transitions, {stats['arcs']} arcs"
        )
        with obs.span("cli.info.classify", net=stg.name):
            print(f"class    : {classify(stg.net).most_specific()}")
        try:
            with obs.span("cli.info.behaviour", net=stg.name):
                behaviour = analyze(stg.net, max_states=args.max_states)
        except UnboundedNetError as error:
            print(f"behaviour: UNBOUNDED ({error})")
        else:
            print(f"behaviour: {behaviour}")
        return 0

    return _observed(args, body)


def cmd_compose(args: argparse.Namespace) -> int:
    from repro.stg.stg import compose

    result = compose(_load(args.first), _load(args.second))
    if args.trim:
        from repro.algebra.dead import trim

        result.net = trim(result.net)
    _save(result, args.output)
    print(f"wrote {args.output}: {result.net.stats()}")
    return 0


def cmd_hide(args: argparse.Namespace) -> int:
    from repro.stg.stg import hide_signals

    stg = _load(args.file)
    result = hide_signals(stg, set(args.signals))
    if args.trim:
        from repro.algebra.dead import trim

        result.net = trim(result.net)
    _save(result, args.output)
    print(f"wrote {args.output}: {result.net.stats()}")
    return 0


def _print_symbolic_summary(report) -> None:
    """The ``--engine symbolic`` epilogue: the obligation partition
    and constraint-system sizes, straight from the report."""
    info = report.symbolic
    total = info["safe"] + info["failed"] + info["undecided"]
    print(
        f"# symbolic       : {info['safe']}/{total} obligations proven"
        f" safe, {info['failed']} proven failing,"
        f" {info['undecided']} undecided"
    )
    print(
        f"# state equation : {info['systems']} systems,"
        f" {info['constraints']} constraints,"
        f" {info['refinement_rounds']} trap refinement round(s)"
    )
    if info["conclusive"]:
        print("# verdict        : conclusive — no state enumerated")
    else:
        print(
            "# verdict        : inconclusive remainder fell back to the"
            " on-the-fly search"
        )


def _print_por_summary(report, max_states: int) -> None:
    """The ``--engine por`` epilogue: the reduction achieved (straight
    from the report — no re-exploration), the proviso of the reduced
    search, and the unreduced baseline, which is counted by a walk that
    keeps no successor rows under the same state bound and reported as
    unavailable when the full space does not fit."""
    from repro.petri.product import LazyStateSpace
    from repro.petri.reachability import UnboundedNetError

    explored = report.states_explored
    reduced = report.states_reduced or 0
    print(
        f"# states reduced : {reduced}/{explored} markings expanded"
        " with a proper stubborn subset"
    )
    print(
        "# por proviso    : fresh — breadth-first, full expansion"
        " on cycle re-entry"
    )
    try:
        baseline = LazyStateSpace(report.composite.net, max_states=max_states)
        full_states = sum(1 for _ in baseline.walk())
    except UnboundedNetError:
        print("# eager baseline : unavailable (bound exceeded)")
    else:
        print(
            f"# eager baseline : {full_states} states"
            f" ({explored}/{full_states} explored)"
        )


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.petri.reachability import UnboundedNetError
    from repro.verify.receptiveness import check_receptiveness

    first = _load(args.first)
    second = _load(args.second)
    workers = _resolve_parallel(args)
    parallel = workers is not None and workers > 1
    if parallel and args.engine == "por":
        raise CliError(
            "--engine por does not compose with --parallel"
            " (partial-order reduction is inherently order-sensitive: the"
            " DFS-stack proviso and sleep sets need one sequential search"
            " order); drop --parallel to run por serially, or keep it"
            " with --engine onthefly"
        )
    if parallel and args.engine == "symbolic":
        raise CliError(
            "--engine symbolic does not compose with --parallel (the"
            " state-equation engine explores no states, and its"
            " inconclusive fallback is the serial on-the-fly search);"
            " drop --parallel, or keep it with --engine onthefly"
        )

    def body() -> int:
        try:
            report = check_receptiveness(
                first,
                second,
                method=args.method,
                max_states=args.max_states,
                engine=args.engine,
                workers=workers,
            )
        except UnboundedNetError as error:
            raise CliError(
                f"state space exceeds --max-states={args.max_states}:"
                f" {error}"
            ) from None
        print(report)
        if report.states_explored is not None:
            print(
                f"# states explored: {report.states_explored}"
                f" ({report.engine})"
            )
        if parallel:
            print(f"# parallel       : {workers} worker(s)")
        if report.engine == "por" and report.states_explored is not None:
            _print_por_summary(report, args.max_states)
        if report.symbolic is not None:
            _print_symbolic_summary(report)
        return 0 if report.is_receptive() else 1

    return _observed(args, body)


def cmd_simplify(args: argparse.Namespace) -> int:
    from repro.core.synthesis import (
        reduction_report,
        simplify_against_environment,
    )

    target = _load(args.target)
    environment = _load(args.environment)
    reduced = simplify_against_environment(target, environment)
    _save(reduced, args.output)
    report = reduction_report(target, reduced)
    print(
        f"wrote {args.output}: states {report.original_states} ->"
        f" {report.reduced_states} (x{report.state_ratio():.2f})"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.petri.reachability import UnboundedNetError
    from repro.synth.implementation import synthesize, verify_implementation
    from repro.synth.nextstate import CodingError

    stg = _load(args.file)
    try:
        implementation = synthesize(stg)
    except CodingError as error:
        print(f"cannot synthesize: {error}", file=sys.stderr)
        return 1
    except UnboundedNetError as error:
        raise CliError(f"cannot synthesize: {error}") from None
    print(implementation.netlist())
    result = verify_implementation(stg, implementation)
    print(f"# verification: {'PASS' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.io.dot import stg_to_dot

    print(stg_to_dot(_load(args.file)), end="")
    return 0


def cmd_stategraph(args: argparse.Namespace) -> int:
    from repro.petri.reachability import UnboundedNetError
    from repro.stg.state_graph import build_state_graph

    stg = _load(args.file)
    try:
        graph = build_state_graph(stg, max_states=args.max_states)
    except UnboundedNetError as error:
        if error.bound is None:
            raise CliError(str(error)) from None
        raise CliError(
            f"state graph exceeds --max-states={args.max_states}: {error}"
        ) from None
    print(f"states       : {graph.num_states()}")
    print(f"edges        : {len(graph.edges)}")
    print(f"consistent   : {graph.is_consistent()}")
    for violation in graph.violations[:5]:
        print(f"  ! {violation.action}: {violation.reason}")
    print(f"USC          : {graph.has_usc()}")
    print(f"CSC          : {graph.has_csc()}")
    persistency = graph.output_persistency_violations()
    print(f"persistency  : {'ok' if not persistency else 'VIOLATED'}")
    for state, output, action in persistency[:5]:
        print(f"  ! {output} disabled by {action}")
    return 0 if graph.is_consistent() and graph.has_csc() else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    from repro.algebra.reductions import reduce
    from repro.stg.stg import Stg

    stg = _load(args.file)
    before = stg.net.stats()
    reduced = Stg(
        reduce(stg.net),
        inputs=stg.inputs,
        outputs=stg.outputs,
        internals=stg.internals,
        initial_values=stg.initial_values,
    )
    _save(reduced, args.output)
    print(f"wrote {args.output}: {before} -> {reduced.net.stats()}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    stg = _load(args.input)
    _save(stg, args.output)
    print(f"wrote {args.output}: {stg.net.stats()}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.corpus import ENGINES, CorpusError, discover, run_corpus

    def parse_csv(value: str, universe: tuple[str, ...], what: str):
        chosen = tuple(item.strip() for item in value.split(",") if item.strip())
        for item in chosen:
            if item not in universe:
                raise CliError(
                    f"unknown {what} {item!r}; expected a comma-separated"
                    f" subset of {', '.join(universe)}"
                )
        if not chosen:
            raise CliError(f"empty {what} list")
        return chosen

    engines = parse_csv(args.engines, ENGINES, "engine")

    def progress(instance) -> None:
        status = "ok" if instance.ok else "DISAGREE"
        cells = "; ".join(
            f"{cell.engine}: {cell.summary()}" for cell in instance.cells
        )
        print(f"{instance.name:<24} [{status}] {cells}")

    try:
        paths = discover(args.directory)
        report = run_corpus(
            paths,
            engines=engines,
            max_states=args.max_states,
            out_dir=args.out,
            check_laws=args.laws,
            progress=progress,
        )
    except CorpusError as error:
        raise CliError(str(error)) from None
    print(f"# corpus: {len(report.instances)} instances x {len(engines)} engines")
    failures = report.disagreements + report.law_violations
    for message in report.disagreements:
        print(f"cip: disagreement: {message}", file=sys.stderr)
    for message in report.law_violations:
        print(f"cip: law violation: {message}", file=sys.stderr)
    if failures:
        print(f"# FAIL: {len(failures)} failure(s)")
        return 1
    print(
        "# all engines agree" + ("; all algebra laws hold" if args.laws else "")
    )
    return 0


def _add_trim_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trim",
        action="store_true",
        help="clean up the result: remove dead transitions and"
        " unreferenced places (language-preserving)",
    )


def _resolve_parallel(args: argparse.Namespace) -> int | None:
    """Validate ``--parallel`` into a worker count (``None`` when the
    flag is absent), raising a one-line :class:`CliError` (exit 2) on
    anything malformed."""
    if args.parallel is None:
        return None
    from repro.petri.parallel import MAX_WORKERS

    try:
        workers = int(args.parallel)
    except ValueError:
        workers = -1
    if not 1 <= workers <= MAX_WORKERS:
        raise CliError(
            f"invalid --parallel value {args.parallel!r}: expected an"
            f" integer between 1 and {MAX_WORKERS}"
        )
    return workers


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed artifact cache directory (default:"
        " $CIP_CACHE_DIR or ~/.cache/cip); verdicts, bench instances and"
        " hide/trim results are reused across runs, keyed by net content"
        " hash — see docs/PERFORMANCE.md",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache entirely (no reads, no writes);"
        " output is byte-identical either way",
    )


def _cache_context(args: argparse.Namespace):
    """The artifact-store context manager for this invocation.

    Precedence: ``--no-cache`` > ``--cache-dir`` > ``CIP_NO_CACHE`` >
    ``CIP_CACHE_DIR`` > ``~/.cache/cip``.  Subcommands without cache
    flags (pure format translations) run with no store active.
    """
    from repro.cache.store import activated, deactivated

    no_cache = getattr(args, "no_cache", False)
    cache_dir = getattr(args, "cache_dir", None)
    if no_cache and cache_dir is not None:
        raise CliError(
            "--no-cache and --cache-dir are mutually exclusive"
        )
    if no_cache or not hasattr(args, "no_cache"):
        return deactivated()
    if cache_dir is None and os.environ.get("CIP_NO_CACHE"):
        return deactivated()
    return activated(cache_dir)


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a '#'-prefixed span/counter/gauge summary of the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE.json",
        help="write the full repro.obs/v1 metrics payload as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cip",
        description="Communicating Petri nets for asynchronous module design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="net statistics and properties")
    info.add_argument("file")
    info.add_argument("--max-states", type=int, default=1_000_000)
    _add_profile_flags(info)
    _add_cache_flags(info)
    info.set_defaults(func=cmd_info)

    comp = sub.add_parser("compose", help="circuit-algebra composition")
    comp.add_argument("first")
    comp.add_argument("second")
    comp.add_argument("-o", "--output", required=True)
    _add_trim_flag(comp)
    _add_cache_flags(comp)
    comp.set_defaults(func=cmd_compose)

    hide = sub.add_parser("hide", help="hide signals by net contraction")
    hide.add_argument("file")
    hide.add_argument("-s", "--signals", action="append", required=True)
    hide.add_argument("-o", "--output", required=True)
    _add_trim_flag(hide)
    _add_cache_flags(hide)
    hide.set_defaults(func=cmd_hide)

    verify = sub.add_parser("verify", help="receptiveness of a composition")
    verify.add_argument("first")
    verify.add_argument("second")
    verify.add_argument(
        "--method",
        choices=("auto", "reachability", "structural"),
        default="auto",
    )
    verify.add_argument(
        "--engine",
        choices=("onthefly", "por", "symbolic"),
        default="onthefly",
        help="state-space engine for the reachability method: demand-driven"
        " with early exit (onthefly, default), demand-driven with"
        " stubborn-set partial-order reduction (por, reports explored"
        " against unreduced state counts), or state-equation"
        " semi-decision over exact rationals (symbolic: no enumeration"
        " when conclusive; undecided obligations fall back to onthefly)",
    )
    verify.add_argument(
        "--max-states",
        type=int,
        default=1_000_000,
        help="abort (exit 2) when the composite state space exceeds"
        " this many markings",
    )
    verify.add_argument(
        "--parallel",
        metavar="N",
        default=None,
        help="shard the exploration across N worker processes"
        " (hash-partitioned visited sets, batched cross-shard"
        " exchange); verdicts and state counts are identical to the"
        " serial engines, and N=1 runs them — see docs/PERFORMANCE.md",
    )
    _add_profile_flags(verify)
    _add_cache_flags(verify)
    verify.set_defaults(func=cmd_verify)

    simplify = sub.add_parser(
        "simplify", help="environment-driven reduction (Section 5.2)"
    )
    simplify.add_argument("target")
    simplify.add_argument("environment")
    simplify.add_argument("-o", "--output", required=True)
    simplify.set_defaults(func=cmd_simplify)

    synth = sub.add_parser("synth", help="complex-gate synthesis")
    synth.add_argument("file")
    synth.set_defaults(func=cmd_synth)

    dot = sub.add_parser("dot", help="Graphviz export")
    dot.add_argument("file")
    dot.set_defaults(func=cmd_dot)

    stategraph = sub.add_parser(
        "stategraph", help="encoded state graph: consistency / USC / CSC"
    )
    stategraph.add_argument("file")
    stategraph.add_argument("--max-states", type=int, default=200_000)
    stategraph.set_defaults(func=cmd_stategraph)

    reduce_cmd = sub.add_parser(
        "reduce", help="language-preserving net cleanup"
    )
    reduce_cmd.add_argument("file")
    reduce_cmd.add_argument("-o", "--output", required=True)
    reduce_cmd.set_defaults(func=cmd_reduce)

    convert = sub.add_parser(
        "convert", help="translate between .g/.json/.net/.pnml"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(func=cmd_convert)

    bench = sub.add_parser(
        "bench",
        help="corpus differential sweep: every engine over a directory"
        " of nets",
    )
    bench.add_argument("directory")
    bench.add_argument(
        "--engines",
        default="onthefly,por,symbolic",
        help="comma-separated engine subset (default: all three,"
        " including the non-enumerating state-equation cell)",
    )
    bench.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="per-exploration state budget (exceeding it is recorded as"
        " 'bound-exceeded', not an error)",
    )
    bench.add_argument(
        "--out",
        metavar="DIR",
        help="write one repro.obs/v1 payload per instance (plus"
        " INDEX.json) into DIR",
    )
    bench.add_argument(
        "--laws",
        action="store_true",
        help="replay the algebra laws (Thms 4.5/4.7, Prop 4.6) on the"
        " parsed corpus nets",
    )
    _add_cache_flags(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_states", 1) < 1:
            raise CliError(
                f"invalid --max-states value {args.max_states}: expected a"
                " positive integer"
            )
        with _cache_context(args):
            return args.func(args)
    except (CliError, InterfaceError, ContractionError) as error:
        print(f"cip: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
