"""Check-site profiler: which *source sites* pay the SoftBound bill.

The instrumentation transform stamps every check it emits with an
``obs_site`` triple ``(function, source_line, seq)`` (the pre-rename
function name, the line of the statement the check guards, and a
per-function emission sequence number that keeps distinct checks on one
line apart).  Both VM engines — the reference interpreter and the
closure-compiled engine — bump a :class:`SiteProfile` at the *same
program points* relative to the per-instruction resource-limit check,
so per-site counts are bit-identical across engines, including runs
that end in a trap or hit the instruction limit.

The profiler is opt-in per machine (``machine.attach_site_profile``);
the compiled engine emits a check template's ``?profile`` counter line
only when a profile is attached at code-generation time, so the
disabled path generates no profiling code at all.

:func:`profile_source` is the high-level entry the ``python -m repro
profile`` CLI uses: compile under a profile, run under one engine,
return a :class:`ProfileReport` with the ranked hot-site table,
per-kind totals, attribution percentages and the optimizer's
elimination counters.
"""

from dataclasses import dataclass, field, fields, is_dataclass

#: The three profiled opcode kinds, in table-column order.
SITE_KINDS = ("sb_check", "sb_temporal_check", "sb_meta_load")

_UNKNOWN = ("?", None, -1)


def site_of(instr):
    """The site triple for an instruction: its ``obs_site`` stamp, or a
    deterministic unknown-site fallback for unstamped instructions
    (e.g. checks synthesized after the transform)."""
    site = getattr(instr, "obs_site", None)
    if site is not None:
        return site
    line = getattr(instr, "src_line", None)
    if line is not None:
        return ("?", line, -1)
    return _UNKNOWN


class SiteProfile:
    """Per-site execution counts, keyed ``(kind, function, line, seq)``.

    The dict is exposed directly: the compiled engine pre-binds it (and
    the pre-computed key) into counting closures, the interpreter
    handlers bump it inline.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def record(self, kind, site):
        key = (kind,) + tuple(site)
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1

    def total(self, kind):
        return sum(n for key, n in self.counts.items() if key[0] == kind)

    def attributed(self, kind):
        """Executions at sites with a known source line."""
        return sum(n for key, n in self.counts.items()
                   if key[0] == kind and key[2] is not None and key[1] != "?")

    def merge(self, other):
        counts = self.counts
        for key, n in other.counts.items():
            counts[key] = counts.get(key, 0) + n


def _stats_dict(stats):
    if stats is None:
        return None
    if is_dataclass(stats):
        return {f.name: getattr(stats, f.name) for f in fields(stats)}
    if isinstance(stats, dict):
        return dict(stats)
    return None


@dataclass
class ProfileReport:
    """Everything ``python -m repro profile`` prints."""

    program: str
    profile: str
    engine: str
    exit_code: int = 0
    trap: str = None
    #: Ranked site rows: {function, line, seq, per-kind counts, total}.
    sites: list = field(default_factory=list)
    #: Executed totals per kind as seen by the profiler.
    totals: dict = field(default_factory=dict)
    #: Executed totals per kind as seen by the VM cost model.
    executed: dict = field(default_factory=dict)
    #: Fraction of executed instructions of each kind attributed to a
    #: ranked source site (known function + line).
    attribution: dict = field(default_factory=dict)
    #: Post-instrumentation optimizer counters (what was eliminated
    #: before anything ran) — the other half of the cost story.
    eliminated: dict = None
    #: Check instructions deleted at compile time, per kind — they never
    #: execute at all (checkelim's dominated duplicates plus the -O2
    #: prove pass's solver-deleted checks).
    eliminated_static: dict = field(default_factory=dict)
    #: Check instructions whose *executions* were reduced by runtime-path
    #: optimizations — widened behind a loop guard (the instruction
    #: still exists in the guarded slow loop; the fast loop runs
    #: without it).
    eliminated_dynamic: dict = field(default_factory=dict)
    #: Number of -O2 deletion certificates the compile carries.
    certificates: int = 0
    instructions: int = 0
    dynamic_cost: int = 0

    def to_json(self):
        row = {
            "schema": "obs-profile-v1",
            "program": self.program,
            "profile": self.profile,
            "engine": self.engine,
            "exit_code": self.exit_code,
            "trap": self.trap,
            "instructions": self.instructions,
            "dynamic_cost": self.dynamic_cost,
            "totals": self.totals,
            "executed": self.executed,
            "attribution": {k: round(v, 4) for k, v in self.attribution.items()},
            "sites": self.sites,
            # Always present (zeros when nothing was eliminated) so
            # downstream diff tools never key-miss.
            "eliminated_static": self.eliminated_static,
            "eliminated_dynamic": self.eliminated_dynamic,
            "certificates": self.certificates,
        }
        if self.eliminated is not None:
            row["eliminated"] = self.eliminated
        return row


def build_report(profile_obj, result, *, program, profile_name, engine,
                 compiled=None, top=None):
    """Fold a finished run's :class:`SiteProfile` + ExecutionResult into
    a :class:`ProfileReport`."""
    per_site = {}
    for (kind, func, line, seq), n in profile_obj.counts.items():
        row = per_site.setdefault((func, line, seq), dict.fromkeys(SITE_KINDS, 0))
        row[kind] += n
    # Sites the -O2 prove pass deleted never execute, so they are
    # invisible to the dynamic counts — surface them as zero-count rows
    # annotated with the number of statically proved checks.
    certificates = ()
    if compiled is not None:
        certificates = tuple(
            getattr(compiled, "prove_certificates", None) or ())
    proved_by_site = {}
    for cert in certificates:
        kind = ("sb_temporal_check" if cert.kind == "temporal"
                else "sb_check")
        row = proved_by_site.setdefault(tuple(cert.site),
                                        dict.fromkeys(SITE_KINDS, 0))
        row[kind] += 1
    for key in proved_by_site:
        per_site.setdefault(key, dict.fromkeys(SITE_KINDS, 0))
    sites = []
    for (func, line, seq), kinds in per_site.items():
        proved = proved_by_site.get((func, line, seq))
        sites.append({
            "function": func,
            "line": line,
            "seq": seq,
            "counts": kinds,
            "total": sum(kinds.values()),
            "proved": sum(proved.values()) if proved else 0,
        })
    sites.sort(key=lambda r: (-r["total"], r["function"],
                              r["line"] if r["line"] is not None else -1,
                              r["seq"]))
    if top is not None:
        sites = sites[:top]

    stats = result.stats
    executed = {}
    if stats is not None:
        executed = {
            "sb_check": stats.checks,
            "sb_temporal_check": stats.temporal_checks,
            "sb_meta_load": stats.metadata_loads,
        }
    totals = {kind: profile_obj.total(kind) for kind in SITE_KINDS}
    attribution = {}
    for kind in SITE_KINDS:
        denom = executed.get(kind) or totals[kind]
        attribution[kind] = (profile_obj.attributed(kind) / denom) if denom else 1.0

    eliminated = None
    post = {}
    if compiled is not None:
        eliminated = {}
        for label, bag in (("optimize", getattr(compiled, "pass_stats", None)),
                           ("post_optimize",
                            getattr(compiled, "check_opt_stats", None))):
            as_dict = _stats_dict(bag)
            if as_dict:
                eliminated[label] = as_dict
        post = eliminated.get("post_optimize", {})
        if not eliminated:
            eliminated = None
    eliminated_static = {
        "sb_check": (post.get("removed_checks", 0)
                     + post.get("proved_checks", 0)),
        "sb_temporal_check": (post.get("removed_temporal_checks", 0)
                              + post.get("proved_temporal_checks", 0)),
        "by_proof": {
            "sb_check": post.get("proved_checks", 0),
            "sb_temporal_check": post.get("proved_temporal_checks", 0),
        },
    }
    eliminated_dynamic = {
        "widened_checks": post.get("widened_checks", 0),
    }

    return ProfileReport(
        program=program,
        profile=profile_name,
        engine=engine,
        exit_code=result.exit_code,
        trap=result.trap.kind.name if result.trap is not None else None,
        sites=sites,
        totals=totals,
        executed=executed,
        attribution=attribution,
        eliminated=eliminated,
        eliminated_static=eliminated_static,
        eliminated_dynamic=eliminated_dynamic,
        certificates=len(certificates),
        instructions=stats.instructions if stats is not None else 0,
        dynamic_cost=stats.cost if stats is not None else 0,
    )


def profile_source(source, profile="spatial", engine=None, input_data=b"",
                   max_instructions=200_000_000, program="<source>", top=None,
                   optimize=True):
    """Compile ``source`` under ``profile`` at ``optimize`` (any level
    the toolchain accepts, including 2 / a ProveConfig), run it once
    under ``engine`` with a site profile attached, and report."""
    from ..api import as_profile, compile_source, resolve_engine

    prof = as_profile(profile)
    engine = resolve_engine(engine)
    compiled = compile_source(source, profile=prof, optimize=optimize)
    machine = compiled.instantiate(
        input_data=input_data, max_instructions=max_instructions,
        observers=prof.make_observers(), engine=engine)
    site_profile = SiteProfile()
    machine.attach_site_profile(site_profile)
    result = machine.run()
    return build_report(site_profile, result, program=program,
                        profile_name=prof.name, engine=engine,
                        compiled=compiled, top=top)


def render_table(report, top=20, out=None):
    """Format the hot-site table as aligned text lines."""
    lines = []
    lines.append("check-site profile: %s  (profile=%s engine=%s)"
                 % (report.program, report.profile, report.engine))
    lines.append("instructions=%d dynamic_cost=%d exit=%d%s"
                 % (report.instructions, report.dynamic_cost,
                    report.exit_code,
                    " trap=%s" % report.trap if report.trap else ""))
    header = ("%-4s %-28s %6s %12s %12s %12s %12s %7s"
              % ("#", "site", "line", "sb_check", "temporal", "meta_load",
                 "total", "proved"))
    lines.append(header)
    lines.append("-" * len(header))
    rows = report.sites[:top] if top is not None else report.sites
    for rank, row in enumerate(rows, 1):
        line = row["line"] if row["line"] is not None else "?"
        site = "%s#%d" % (row["function"], row["seq"])
        counts = row["counts"]
        proved = row.get("proved", 0)
        lines.append("%-4d %-28s %6s %12d %12d %12d %12d %7s"
                     % (rank, site, line, counts["sb_check"],
                        counts["sb_temporal_check"], counts["sb_meta_load"],
                        row["total"],
                        ("%d" % proved) if proved else ""))
    if len(report.sites) > len(rows):
        lines.append("... %d more sites" % (len(report.sites) - len(rows)))
    lines.append("attribution: " + "  ".join(
        "%s=%.1f%%" % (kind, report.attribution.get(kind, 0.0) * 100)
        for kind in SITE_KINDS))
    static = report.eliminated_static or {}
    dynamic = report.eliminated_dynamic or {}
    by_proof = static.get("by_proof", {})
    lines.append(
        "eliminated static: sb_check=%d sb_temporal_check=%d "
        "(by proof: %d+%d, %d certificates)"
        % (static.get("sb_check", 0), static.get("sb_temporal_check", 0),
           by_proof.get("sb_check", 0), by_proof.get("sb_temporal_check", 0),
           report.certificates))
    lines.append("eliminated dynamic: widened_checks=%d"
                 % dynamic.get("widened_checks", 0))
    if report.eliminated:
        for label, bag in report.eliminated.items():
            interesting = {k: v for k, v in bag.items() if v}
            if interesting:
                lines.append("eliminated[%s]: " % label + "  ".join(
                    "%s=%d" % kv for kv in sorted(interesting.items())))
    text = "\n".join(lines)
    if out is not None:
        out.write(text + "\n")
    return text
