"""``python -m repro fuzz`` — drive, re-minimize and inspect campaigns.

Subcommands::

    fuzz run       run a campaign (exit 0 = clean, 1 = discrepancies
                   or infra failures)
    fuzz minimize  re-run delta minimization for an archived finding
    fuzz corpus    summarize a corpus directory and list its findings

The argparse wiring lives here (not in :mod:`repro.cli`) so the
top-level CLI only pays for fuzzing imports when the subcommand is
actually used.
"""

import json
import os

EX_OK = 0
EX_FINDINGS = 1
EX_USAGE = 64


def add_fuzz_parser(sub):
    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing campaign: generate random "
                     "(and defect-seeded) programs, diff every policy × "
                     "engine × opt level, minimize discrepancies")
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    run = fsub.add_parser(
        "run", help="run a campaign (exit 0 clean / 1 discrepancies)")
    run.add_argument("--corpus", metavar="DIR", default=".fuzz-corpus",
                     help="corpus directory (checkpoint + programs + "
                          "findings); created if missing")
    run.add_argument("--seeds", type=int, default=25, metavar="N",
                     help="seed indices to fuzz; each yields one clean "
                          "and one defect-seeded program (default 25)")
    run.add_argument("--start-seed", type=int, default=0, metavar="N")
    run.add_argument("--time-budget", type=float, default=None, metavar="S",
                     help="stop starting new seeds after S wallclock "
                          "seconds (judged seeds are checkpointed)")
    run.add_argument("--jobs", type=int, default=2, metavar="N",
                     help="crash-isolated worker processes (default 2)")
    run.add_argument("--task-timeout", type=float, default=60.0, metavar="S",
                     help="per-task wallclock deadline; a worker past it "
                          "is killed and the run becomes a timeout "
                          "verdict (default 60)")
    run.add_argument("--policies", metavar="A,B,...", default=None,
                     help="restrict the matrix to these policies "
                          "(default: every registered policy)")
    run.add_argument("--quick", action="store_true",
                     help="single engine/opt cell per policy instead of "
                          "the full engine × opt matrix")
    run.add_argument("--max-statements", type=int, default=10, metavar="N")
    run.add_argument("--no-minimize", action="store_true",
                     help="archive findings without delta minimization")
    run.add_argument("--chaos", action="store_true",
                     help="front-load fault-injection tasks (hang, "
                          "worker kill, flake) to drill the robustness "
                          "layer before fuzzing")
    run.add_argument("--resume", action="store_true",
                     help="skip seeds already judged in the corpus "
                          "checkpoint (how a killed campaign continues)")
    run.add_argument("--json", action="store_true",
                     help="emit the campaign result as JSON")

    mini = fsub.add_parser(
        "minimize", help="re-run minimization for an archived finding")
    mini.add_argument("case", metavar="CASE_DIR",
                      help="a findings/<id>/ directory (case.json + "
                           "original.c)")
    mini.add_argument("--max-tests", type=int, default=500, metavar="N")
    mini.add_argument("--jobs", type=int, default=1, metavar="N")
    mini.add_argument("--task-timeout", type=float, default=60.0,
                      metavar="S")

    corpus = fsub.add_parser(
        "corpus", help="summarize a corpus directory")
    corpus.add_argument("--corpus", metavar="DIR", default=".fuzz-corpus")
    corpus.add_argument("--json", action="store_true")
    return fuzz


def run_fuzz(args, stdout, stderr):
    if args.fuzz_command == "run":
        return _cmd_run(args, stdout, stderr)
    if args.fuzz_command == "minimize":
        return _cmd_minimize(args, stdout, stderr)
    if args.fuzz_command == "corpus":
        return _cmd_corpus(args, stdout, stderr)
    return EX_USAGE


def _cmd_run(args, stdout, stderr):
    from .campaign import Campaign, CampaignConfig
    from .oracle import ConfigMatrix

    policies = None
    if args.policies:
        from ..policy import get_policy

        policies = tuple(name.strip() for name in args.policies.split(",")
                         if name.strip())
        for name in policies:
            try:
                get_policy(name)
            except KeyError as error:
                stderr.write(f"{error.args[0]}\n")
                return EX_USAGE
    matrix_cls = ConfigMatrix.quick if args.quick else ConfigMatrix.full
    matrix = matrix_cls(policies=policies)
    config = CampaignConfig(
        corpus=args.corpus, seeds=args.seeds, start_seed=args.start_seed,
        time_budget=args.time_budget, jobs=args.jobs,
        task_timeout=args.task_timeout, max_statements=args.max_statements,
        matrix=matrix, minimize=not args.no_minimize, chaos=args.chaos,
        resume=args.resume)
    campaign = Campaign(config, log=lambda message:
                        stdout.write(message + "\n"))
    result = campaign.run()
    if args.json:
        stdout.write(json.dumps(result.to_json(), indent=2, sort_keys=True)
                     + "\n")
    else:
        summary = campaign.corpus.summary()
        stdout.write(
            f"judged {result.judged} seed(s) "
            f"(+{result.skipped} resumed) in {result.elapsed:.1f}s "
            f"[{result.stopped}]: {result.clean} clean, "
            f"{result.discrepancy_seeds} discrepancy, "
            f"{result.infra_seeds} infra; corpus now holds "
            f"{summary['judged']} judged / {summary['findings']} "
            f"finding(s) at {os.path.abspath(args.corpus)}\n")
    return result.exit_code


def _cmd_minimize(args, stdout, stderr):
    from .minimize import minimize, predicate_for
    from .oracle import Discrepancy
    from ..harness.pool import IsolatedPool

    case_path = os.path.join(args.case, "case.json")
    original_path = os.path.join(args.case, "original.c")
    if not (os.path.exists(case_path) and os.path.exists(original_path)):
        stderr.write(f"{args.case}: not a finding directory "
                     f"(case.json/original.c missing)\n")
        return EX_USAGE
    with open(case_path) as handle:
        case = json.load(handle)
    with open(original_path) as handle:
        original = handle.read()
    discrepancy = Discrepancy(
        kind=case["kind"], detail=case.get("detail", ""),
        configs=tuple(case.get("configs") or ()),
        policy=case.get("policy"),
        expected_class=case.get("expected_class"),
        reference_policy=case.get("reference_policy"))
    with IsolatedPool(jobs=args.jobs,
                      task_timeout=args.task_timeout) as pool:
        predicate = predicate_for(discrepancy, pool=pool,
                                  timeout=args.task_timeout)
        if predicate is None:
            stderr.write(f"finding kind {case['kind']!r} has no shrink "
                         f"predicate\n")
            return EX_FINDINGS
        result = minimize(original, predicate, max_tests=args.max_tests)
    if not result.reproduced:
        stderr.write("original no longer reproduces the discrepancy "
                     "(fixed since it was archived?)\n")
        return EX_FINDINGS
    with open(os.path.join(args.case, "minimized.c"), "w") as handle:
        handle.write(result.source)
    stdout.write(f"minimized {result.original_lines} -> "
                 f"{result.minimized_lines} lines in {result.steps} "
                 f"step(s) / {result.tests} test(s)\n")
    return EX_OK


def _cmd_corpus(args, stdout, stderr):
    from .corpus import Corpus

    if not os.path.isdir(args.corpus):
        stderr.write(f"{args.corpus}: no such corpus directory\n")
        return EX_USAGE
    corpus = Corpus(args.corpus)
    findings = list(corpus.iter_findings())
    if args.json:
        stdout.write(json.dumps({
            "summary": corpus.summary(),
            "findings": findings,
        }, indent=2, sort_keys=True) + "\n")
        return EX_OK
    summary = corpus.summary()
    stdout.write(f"{os.path.abspath(args.corpus)}: "
                 f"{summary['judged']} judged "
                 f"({summary['clean']} clean, "
                 f"{summary['discrepancy']} discrepancy, "
                 f"{summary['infra']} infra), "
                 f"{summary['findings']} finding(s)\n")
    for case in findings:
        stdout.write(f"  {case.get('id')}: {case.get('kind')} "
                     f"[{case.get('policy')}] "
                     f"{case.get('original_lines')}->"
                     f"{case.get('minimized_lines')} lines — "
                     f"{str(case.get('detail', ''))[:80]}\n")
    return EX_OK
