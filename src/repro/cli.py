"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run FILE
    Compile and execute a C file on the VM, optionally under SoftBound
    (``--profile NAME`` or the individual checking flags); ``--json``
    emits the structured :class:`~repro.api.RunReport`.
check FILE
    Shorthand for ``run FILE --profile spatial`` (``--temporal`` →
    ``--profile temporal``), exiting non-zero on a violation — the
    "drop-in checker" workflow.
profile PROG
    Check-site profiler: run a workload or C file and rank source
    sites by executed sb_check / sb_temporal_check / sb_meta_load
    counts (identical under both engines); ``--json`` for tooling.
profiles
    List the registered protection profiles.
tables [NAME]
    Regenerate the paper's tables/figures (all of them, or one by name).
workloads
    List the built-in benchmark analogues.
bench
    Time the workload corpus under both VM engines (reference
    interpreter vs closure-compiled) and print/record the speedups.
cache stats|verify|gc
    Operate the persistent compiled-artifact store (``REPRO_STORE`` /
    ``--store DIR``): show counters, re-validate + quarantine entries
    (exit 1 when corruption was found), enforce the size bounds.

Every command executes through the :mod:`repro.api` facade.  A global
``--trace PATH`` (or ``REPRO_TRACE=PATH``) emits a JSON-lines span
trace of whatever the command does; see ``docs/OBSERVABILITY.md``.

Exit status is deterministic: the program's own exit code for clean
runs; 2 when a spatial check stopped the program (including the
vararg/function-pointer signature checks); 3 for a temporal
(lock-and-key) violation; 4 for compile/link errors; 5 for VM-level
traps the checkers did not cause (segfault, hijack, resource limits);
64 for usage errors.
"""

import argparse
import json
import sys

EX_OK = 0
EX_SPATIAL = 2
EX_TEMPORAL = 3
EX_COMPILE = 4
EX_TRAP = 5
EX_USAGE = 64

_TABLE_NAMES = ("table1", "table3", "table4", "figure1", "figure2",
                "sec64", "sec65", "metadata", "temporal")


def exit_code_for(report):
    """Map a :class:`~repro.api.RunReport` to the deterministic exit
    code contract above."""
    from .vm.errors import TrapKind

    if report.trap is None:
        return report.exit_code
    if report.trap.kind is TrapKind.TEMPORAL_VIOLATION:
        return EX_TEMPORAL
    if report.detected_violation:
        return EX_SPATIAL
    return EX_TRAP


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SoftBound reproduction: compile, run and check C "
                    "programs on the simulated machine.")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="emit a JSON-lines span trace to PATH "
                             "(equivalent to REPRO_TRACE=PATH; see "
                             "docs/OBSERVABILITY.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile and execute a C file")
    run_parser.add_argument("file", nargs="+",
                            help="C source file(s); multiple files are "
                                 "compiled separately and linked")
    run_parser.add_argument("--profile", metavar="NAME", default=None,
                            help="select a registered protection profile "
                                 "by name (see `python -m repro profiles`); "
                                 "overrides the individual checking flags")
    run_parser.add_argument("--softbound", action="store_true",
                            help="apply the SoftBound transformation")
    run_parser.add_argument("--store-only", action="store_true",
                            help="check stores only (implies --softbound)")
    run_parser.add_argument("--hash-table", action="store_true",
                            help="use the hash-table metadata facility "
                                 "(default: shadow space; implies --softbound)")
    run_parser.add_argument("--fnptr-signatures", action="store_true",
                            help="enable function-pointer signature "
                                 "encoding (implies --softbound)")
    run_parser.add_argument("--temporal", action="store_true", default=None,
                            help="add lock-and-key temporal checking: "
                                 "use-after-free, double free and dangling "
                                 "stack pointers trap (implies --softbound)")
    run_parser.add_argument("--no-temporal", dest="temporal",
                            action="store_false",
                            help="spatial-only checking (the default)")
    run_parser.add_argument("--no-shrink-bounds", action="store_true",
                            help="disable sub-object bound shrinking")
    run_parser.add_argument("--no-optimize", action="store_true",
                            help="same as -O 0: skip the "
                                 "pre-instrumentation optimizer")
    run_parser.add_argument("-O", "--opt-level", type=int, default=None,
                            choices=(0, 1, 2), metavar="N",
                            help="optimization level: 0 only the "
                                 "post-instrumentation check cleanup, 1 "
                                 "adds the pre-instrumentation pipeline "
                                 "(default), 2 adds solver-backed static "
                                 "check elimination (policies must "
                                 "declare 'provable')")
    run_parser.add_argument("--stats", action="store_true",
                            help="print cost-model statistics after the run")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the structured RunReport as JSON "
                                 "instead of the program's output")
    run_parser.add_argument("--stdin-file", metavar="PATH",
                            help="file whose contents become the program's stdin")
    run_parser.add_argument("--engine", choices=("compiled", "interp"),
                            default=None,
                            help="VM dispatch engine: closure-compiled "
                                 "(default) or the reference interpreter")
    run_parser.add_argument("--trace", metavar="PATH",
                            default=argparse.SUPPRESS,
                            help="emit a JSON-lines span trace to PATH")

    check_parser = sub.add_parser(
        "check", help="run a file under full SoftBound checking")
    check_parser.add_argument("file", nargs="+")
    check_parser.add_argument("--stats", action="store_true")
    check_parser.add_argument("--json", action="store_true",
                              help="emit the structured RunReport as JSON")
    check_parser.add_argument("--stdin-file", metavar="PATH")
    check_parser.add_argument("--temporal", action="store_true", default=None,
                              help="also check temporal safety "
                                   "(lock-and-key)")
    check_parser.add_argument("--no-temporal", dest="temporal",
                              action="store_false")
    check_parser.add_argument("--engine", choices=("compiled", "interp"),
                              default=None)
    check_parser.add_argument("--trace", metavar="PATH",
                              default=argparse.SUPPRESS,
                              help="emit a JSON-lines span trace to PATH")

    profile_parser = sub.add_parser(
        "profile",
        help="check-site profiler: run a workload or C file under a "
             "protection profile and rank the source sites by executed "
             "sb_check / sb_temporal_check / sb_meta_load counts")
    profile_parser.add_argument(
        "target",
        help="a built-in workload name (see `python -m repro workloads`) "
             "or a C source file")
    profile_parser.add_argument(
        "--profile", metavar="NAME", default="spatial",
        help="protection profile to instrument under (default: spatial)")
    profile_parser.add_argument("--engine", choices=("compiled", "interp"),
                                default=None,
                                help="VM dispatch engine (per-site counts "
                                     "are identical under both)")
    profile_parser.add_argument("--top", type=int, default=20, metavar="N",
                                help="rows in the hot-site table "
                                     "(default: 20)")
    profile_parser.add_argument("-O", "--opt-level", type=int, default=1,
                                choices=(0, 1, 2), metavar="N",
                                help="optimization level to profile at "
                                     "(default: 1; 2 shows which sites "
                                     "were statically proved away)")
    profile_parser.add_argument("--json", action="store_true",
                                help="emit the obs-profile-v1 report as "
                                     "JSON instead of the table")
    profile_parser.add_argument("--trace", metavar="PATH",
                                default=argparse.SUPPRESS,
                                help="emit a JSON-lines span trace to PATH")

    profiles_parser = sub.add_parser(
        "profiles",
        help="list the registered protection profiles (the --profile axis, "
             "derived from the repro.policy registry incl. plugins)")
    profiles_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry as a JSON array for tooling")

    tables_parser = sub.add_parser(
        "tables", help="regenerate the paper's tables and figures")
    tables_parser.add_argument("name", nargs="?", choices=_TABLE_NAMES,
                               help="one artifact (default: all)")
    tables_parser.add_argument("--jobs", "-j", type=int, default=None,
                               metavar="N",
                               help="fan the workload×scheme matrix out over "
                                    "N worker processes (default: REPRO_JOBS "
                                    "or serial); output is identical to a "
                                    "serial run")

    workloads_parser = sub.add_parser(
        "workloads",
        help="list the built-in workload families (benchmarks, attacks, "
             "bug programs, temporal attacks)")
    workloads_parser.add_argument(
        "--group", metavar="NAME", default=None,
        help="only list entries whose family or group matches "
             "(substring, e.g. 'spec', 'attack', 'temporal', 'bugbench')")

    bench_parser = sub.add_parser(
        "bench", help="wall-clock benchmark: interpreter vs compiled engine")
    bench_parser.add_argument("--quick", action="store_true",
                              help="time only the quick subset")
    bench_parser.add_argument("--repeats", type=int, default=2,
                              help="timed repetitions per engine (best-of)")
    bench_parser.add_argument("--output", metavar="PATH", default=None,
                              help="also record the JSON report at PATH "
                                   "(e.g. BENCH_interp.json)")

    from .fuzz.cli import add_fuzz_parser
    from .serve.cli import add_serve_parser
    from .store.cli import add_cache_parser

    add_fuzz_parser(sub)
    add_serve_parser(sub)
    add_cache_parser(sub)
    return parser


def _build_profile(args, stderr):
    """The run command's protection profile: ``--profile NAME``, or the
    flag pile through ``ProtectionProfile.from_flags`` — never both
    (silently dropping a checking flag the user asked for would
    downgrade protection)."""
    from .api import ProtectionProfile

    if getattr(args, "profile", None):
        conflicting = [flag for flag, given in (
            ("--softbound", args.softbound),
            ("--store-only", args.store_only),
            ("--hash-table", args.hash_table),
            ("--fnptr-signatures", args.fnptr_signatures),
            ("--no-shrink-bounds", args.no_shrink_bounds),
            ("--temporal/--no-temporal", args.temporal is not None),
        ) if given]
        if conflicting:
            print(f"error: --profile cannot be combined with "
                  f"{', '.join(conflicting)}; pick a profile or compose "
                  f"flags, not both", file=stderr)
            return None
        try:
            return ProtectionProfile.from_name(args.profile)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=stderr)
            return None
    from .api import UsageError

    try:
        return ProtectionProfile.from_flags(
            softbound=args.softbound,
            store_only=args.store_only,
            hash_table=args.hash_table,
            temporal=bool(args.temporal),
            fnptr_signatures=args.fnptr_signatures,
            shrink_bounds=not args.no_shrink_bounds,
        )
    except UsageError as error:
        print(f"error: {error}", file=stderr)
        return None


def _read_source(path, stderr):
    """The text of the C source ``path``, or, after one error line, the
    exit status: a usage error for a file that cannot be read, a compile
    error for one that is not UTF-8."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=stderr)
        return EX_USAGE
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        print(f"compile error: {path}: not UTF-8 at byte offset "
              f"{error.start}", file=stderr)
        return EX_COMPILE
    # Universal newlines, as a file opened in text mode reads them.
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _compile_cli(sources, profile, optimize):
    """Compile the CLI's input, consulting the persistent artifact
    store (``REPRO_STORE``) for single-file programs; multi-unit links
    always compile directly.  Returns ``(compiled, origin)``."""
    from .api import Session, compile_sources, resolve_store

    if len(sources) == 1 and resolve_store() is not None:
        return Session(optimize=optimize).lookup(sources[0], profile)
    return compile_sources(sources, profile=profile,
                           optimize=optimize), None


def _execute(sources, profile, args, stdout, stderr, name="program"):
    from .api import UsageError, run_compiled
    from .frontend.errors import FrontendError
    from .harness.linker import LinkError

    input_data = b""
    if getattr(args, "stdin_file", None):
        with open(args.stdin_file, "rb") as handle:
            input_data = handle.read()
    optimize = not getattr(args, "no_optimize", False)
    level = getattr(args, "opt_level", None)
    if level is not None:
        optimize = level
    try:
        compiled, origin = _compile_cli(sources, profile, optimize)
        report = run_compiled(compiled, profile=profile, name=name,
                              input_data=input_data,
                              engine=getattr(args, "engine", None))
        if origin is not None:
            report.cache = {"origin": origin}
    except FrontendError as error:
        print(f"compile error: {error}", file=stderr)
        return EX_COMPILE
    except LinkError as error:
        print(f"link error: {error}", file=stderr)
        return EX_COMPILE
    except UsageError as error:
        # e.g. ProveNotSupportedError: -O2 under a non-provable policy.
        print(f"error: {error}", file=stderr)
        return EX_USAGE
    if getattr(args, "json", False):
        json.dump(report.to_json(), stdout, indent=2, sort_keys=True)
        stdout.write("\n")
        return exit_code_for(report)
    if report.output:
        stdout.write(report.output)
        if not report.output.endswith("\n"):
            stdout.write("\n")
    if getattr(args, "stats", False):
        _print_stats(report, stdout)
    if report.trap is not None:
        print(f"trap: {report.trap}", file=stderr)
    return exit_code_for(report)


def _print_stats(report, stdout):
    stats = report.stats
    lines = [
        "--- stats ---",
        f"cost units:        {stats.cost}",
        f"instructions:      {stats.instructions}",
        f"memory ops:        {stats.memory_ops}",
        f"pointer mem ops:   {stats.pointer_memory_ops} "
        f"({stats.pointer_memory_op_fraction:.1%})",
        f"bounds checks:     {stats.checks}",
        f"temporal checks:   {stats.temporal_checks}",
        f"metadata loads:    {stats.metadata_loads}",
        f"metadata stores:   {stats.metadata_stores}",
        f"peak heap bytes:   {stats.peak_heap}",
        f"metadata bytes:    {stats.metadata_bytes}",
    ]
    stdout.write("\n".join(lines) + "\n")


def _list_profiles(stdout, as_json=False):
    from .api import all_profiles

    profiles = all_profiles()
    if as_json:
        from .policy import get_policy

        entries = []
        for profile in profiles:
            policy = get_policy(profile.name)
            entries.append({
                "name": profile.name,
                "family": profile.family,
                "description": profile.description,
                "protected": profile.is_protected,
                "label": profile.label,
                "transform_based": profile.config is not None,
                "observer_based": profile.observer_factory is not None,
                "meta_arity": policy.meta_arity,
                "detects": sorted(policy.detects),
                "capabilities": {
                    "dedupable": policy.dedupable,
                    "widenable": policy.widenable,
                    "provable": getattr(policy, "provable", False),
                },
            })
        json.dump(entries, stdout, indent=2, sort_keys=True)
        stdout.write("\n")
        return EX_OK
    name_width = max(len(p.name) for p in profiles)
    family_width = max(len(p.family) for p in profiles)
    for profile in profiles:
        stdout.write(f"{profile.name:<{name_width}}  "
                     f"[{profile.family:<{family_width}}] "
                     f"{profile.description}\n")
    return EX_OK


def _render_tables(name, stdout, jobs=None):
    from .api import resolve_jobs
    from .harness import tables

    jobs = resolve_jobs(jobs)
    if jobs > 1:
        tables.prewarm(jobs=jobs, only=name)

    renderers = {
        "table1": tables.render_table1,
        "table3": tables.render_table3,
        "table4": tables.render_table4,
        "figure1": tables.render_figure1,
        "figure2": tables.render_figure2,
        "sec64": tables.render_sec64,
        "sec65": tables.render_sec65,
        "metadata": tables.render_metadata_ablation,
        "temporal": tables.render_temporal,
    }
    if name:
        stdout.write(renderers[name]() + "\n")
    else:
        stdout.write(tables.render_all() + "\n")
    return EX_OK


def _run_bench(args, stdout):
    from .harness.stats import write_report
    from .harness.wallclock import render_report, run_benchmarks

    report = run_benchmarks(quick=args.quick, repeats=max(args.repeats, 1))
    stdout.write(render_report(report) + "\n")
    if args.output:
        write_report(report, args.output)
        stdout.write(f"recorded {args.output}\n")
    return EX_OK


def _list_workloads(stdout, group=None):
    """List every runnable program family: benchmark analogues, the
    Wilander spatial attacks, the BugBench programs, and the temporal
    attack suite — filterable with ``--group``."""
    from .workloads.attacks import all_attacks
    from .workloads.bugbench import all_bugs
    from .workloads.programs import WORKLOADS
    from .workloads.temporal_attacks import all_temporal_attacks

    entries = []  # (name, family, group, description)
    for name, workload in WORKLOADS.items():
        entries.append((name, "bench", workload.suite, workload.description))
    for attack in all_attacks():
        entries.append((attack.name, "attack", attack.group,
                        f"{attack.technique} ({attack.location}) -> "
                        f"{attack.target}"))
    for bug in all_bugs():
        entries.append((bug.name, "bugbench", bug.bug_class, bug.description))
    for attack in all_temporal_attacks():
        entries.append((attack.name, "temporal", attack.kind,
                        attack.description))
    if group:
        needle = group.lower()
        entries = [e for e in entries
                   if needle in e[1].lower() or needle in e[2].lower()]
    if not entries:
        stdout.write(f"no workloads match group {group!r}\n")
        return EX_OK
    name_width = max(len(e[0]) for e in entries)
    tag_width = max(len(f"{e[1]}/{e[2]}") for e in entries)
    for name, family, grp, description in entries:
        tag = f"{family}/{grp}"
        stdout.write(f"{name:<{name_width}}  [{tag:<{tag_width}}] "
                     f"{description}\n")
    return EX_OK


def _run_site_profile(args, stdout, stderr):
    """``python -m repro profile TARGET`` — the check-site profiler."""
    from .frontend.errors import FrontendError
    from .obs.profiler import profile_source, render_table
    from .workloads.programs import WORKLOADS

    target = args.target
    if target in WORKLOADS:
        source = WORKLOADS[target].source
    else:
        source = _read_source(target, stderr)
        if isinstance(source, int):
            return source
    try:
        report = profile_source(source, profile=args.profile,
                                engine=args.engine, program=target,
                                optimize=getattr(args, "opt_level", 1))
    except FrontendError as error:
        print(f"compile error: {error}", file=stderr)
        return EX_COMPILE
    except KeyError as error:
        print(f"error: {error.args[0]}", file=stderr)
        return EX_USAGE
    if args.json:
        json.dump(report.to_json(), stdout, indent=2, sort_keys=True)
        stdout.write("\n")
    else:
        render_table(report, top=args.top, out=stdout)
    return EX_OK


def main(argv=None, stdout=None, stderr=None):
    """Top-level entry: dispatch, with Ctrl-C mapped to the
    conventional exit status 130 instead of a traceback (long-running
    subcommands — serve, fuzz, tables — are interrupted routinely)."""
    stderr = stderr if stderr is not None else sys.stderr
    try:
        return _dispatch(argv, stdout, stderr)
    except KeyboardInterrupt:
        print("interrupted", file=stderr)
        return 130


def _dispatch(argv=None, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_error:
        return EX_USAGE if exit_error.code not in (0, None) else EX_OK

    if getattr(args, "trace", None):
        from .obs import enable_tracing

        enable_tracing(args.trace)

    if args.command in ("run", "check", "profile"):
        # Resolved before any compile, so a bad REPRO_ENGINE is a usage
        # error like a bad --engine.
        from .api import UsageError, resolve_engine

        try:
            args.engine = resolve_engine(args.engine)
        except UsageError as error:
            print(f"error: {error}", file=stderr)
            return EX_USAGE

    if args.command == "profile":
        return _run_site_profile(args, stdout, stderr)
    if args.command == "profiles":
        return _list_profiles(stdout, as_json=getattr(args, "json", False))
    if args.command == "workloads":
        return _list_workloads(stdout, group=getattr(args, "group", None))
    if args.command == "tables":
        return _render_tables(args.name, stdout, jobs=args.jobs)
    if args.command == "bench":
        return _run_bench(args, stdout)
    if args.command == "fuzz":
        from .fuzz.cli import run_fuzz

        return run_fuzz(args, stdout, stderr)
    if args.command == "serve":
        from .serve.cli import run_serve

        return run_serve(args, stdout, stderr)
    if args.command == "cache":
        from .store.cli import run_cache

        return run_cache(args, stdout, stderr)

    sources = []
    for path in args.file:
        source = _read_source(path, stderr)
        if isinstance(source, int):
            return source
        sources.append(source)
    name = args.file[0]
    if args.command == "check":
        profile = "temporal" if args.temporal else "spatial"
        return _execute(sources, profile, args, stdout, stderr, name=name)
    profile = _build_profile(args, stderr)
    if profile is None:
        return EX_USAGE
    return _execute(sources, profile, args, stdout, stderr, name=name)
