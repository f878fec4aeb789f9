"""``python -m repro cache`` — operate the persistent artifact store.

Subcommands::

    cache stats    contents, bounds and counters of a store directory
    cache verify   re-validate every entry; quarantine corrupt ones
    cache gc       sweep tmp and lock orphans, enforce bounds

Exit status is deterministic: 0 on success, 1 when ``verify`` found (and
quarantined) corrupt entries, 64 for usage errors (no store directory).
The store directory comes from ``--store`` or the ``REPRO_STORE``
environment variable — the same resolution every other entry point uses
(``repro.api.resolve_store``).

The argparse wiring lives here (not in :mod:`repro.cli`) so the
top-level CLI only pays for store imports when the subcommand is used.
"""

import json

EX_OK = 0
EX_CORRUPT = 1
EX_USAGE = 64


def add_cache_parser(sub):
    cache = sub.add_parser(
        "cache", help="operate the persistent compiled-artifact store "
                      "(REPRO_STORE): stats, integrity verification, gc")
    csub = cache.add_subparsers(dest="cache_command", required=True)

    def common(parser):
        parser.add_argument("--store", metavar="DIR", default=None,
                            help="store directory (default: the "
                                 "REPRO_STORE environment variable)")
        parser.add_argument("--json", action="store_true",
                            help="emit the report as JSON")

    stats = csub.add_parser(
        "stats", help="show store contents, bounds and counters")
    common(stats)

    verify = csub.add_parser(
        "verify", help="re-validate every entry (magic, version, digest, "
                       "payload); quarantine corrupt ones (exit 1 when "
                       "any are found)")
    common(verify)
    verify.add_argument("--shallow", action="store_true",
                        help="skip unpickling each payload (digest and "
                             "framing checks only)")

    gc = csub.add_parser(
        "gc", help="sweep stale tmp and lock files and enforce the size "
                   "bounds")
    common(gc)
    gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="evict LRU entries past this total size "
                         "(default: the store's standing bound)")
    gc.add_argument("--max-entries", type=int, default=None, metavar="N",
                    help="evict LRU entries past this count")
    gc.add_argument("--sweep-corrupt", action="store_true",
                    help="also delete quarantined entries")
    return cache


def _open(args, stderr):
    from ..api import open_store

    store = open_store(args.store)
    if store is None:
        stderr.write("error: no store directory: pass --store DIR or set "
                     "REPRO_STORE\n")
    return store


def run_cache(args, stdout, stderr):
    store = _open(args, stderr)
    if store is None:
        return EX_USAGE
    if args.cache_command == "stats":
        return _cmd_stats(store, args, stdout)
    if args.cache_command == "verify":
        return _cmd_verify(store, args, stdout)
    if args.cache_command == "gc":
        return _cmd_gc(store, args, stdout)
    return EX_USAGE


def _cmd_stats(store, args, stdout):
    report = store.stats_report()
    if args.json:
        stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return EX_OK
    stdout.write(
        f"{report['root']}: {report['entries']} entr"
        f"{'y' if report['entries'] == 1 else 'ies'}, "
        f"{report['total_bytes']:,} bytes "
        f"(bounds: {report['max_entries']} entries / "
        f"{report['max_bytes']:,} bytes), "
        f"{report['quarantined']} quarantined\n")
    counters = report["counters"]
    stdout.write("  counters: " + ", ".join(
        f"{name} {value}" for name, value in counters.items()) + "\n")
    return EX_OK


def _cmd_verify(store, args, stdout):
    report = store.verify(deep=not args.shallow)
    if args.json:
        stdout.write(json.dumps(report.as_dict(), indent=2, sort_keys=True)
                     + "\n")
    else:
        stdout.write(f"checked {report.checked} entr"
                     f"{'y' if report.checked == 1 else 'ies'}: "
                     f"{report.ok} ok, {len(report.corrupt)} corrupt\n")
        for key, reason, detail in report.corrupt:
            stdout.write(f"  {key[:12]}: {reason} — {detail} "
                         f"(quarantined)\n")
    return EX_CORRUPT if report.corrupt else EX_OK


def _cmd_gc(store, args, stdout):
    report = store.gc(max_bytes=args.max_bytes,
                      max_entries=args.max_entries,
                      sweep_corrupt=args.sweep_corrupt)
    status = store.stats_report()
    if args.json:
        stdout.write(json.dumps({"gc": report, "stats": status},
                                indent=2, sort_keys=True) + "\n")
        return EX_OK
    stdout.write(
        f"gc: swept {report['tmp_swept']} tmp file(s) and "
        f"{report['locks_swept']} lock file(s), evicted "
        f"{report['evicted']} entr"
        f"{'y' if report['evicted'] == 1 else 'ies'}"
        + (f", deleted {report['corrupt_swept']} quarantined"
           if args.sweep_corrupt else "") + "\n")
    stdout.write(f"store now holds {status['entries']} entr"
                 f"{'y' if status['entries'] == 1 else 'ies'}, "
                 f"{status['total_bytes']:,} bytes\n")
    return EX_OK
