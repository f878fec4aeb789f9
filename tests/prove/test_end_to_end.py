"""End-to-end contracts of the -O2 prove level.

The property the whole subsystem rests on: deleting a proven check is
*observationally invisible* — every (opt level, engine) cell agrees
byte-for-byte — while the deletions themselves are visible exactly
where they should be: in the stats, the certificates, the profiler's
elimination summary and the store's cache key.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import compile_source, run_compiled, run_source
from repro.api.profiles import UsageError
from repro.prove import (
    ProveConfig,
    ProveNotSupportedError,
    opt_level,
    prove_config_of,
    replay_certificate,
)
from repro.store.format import cache_key_text
from repro.api import as_profile

LOOP_PROGRAM = r'''
int main(void) {
    int a[100];
    long total = 0;
    int i;
    for (i = 0; i < 100; i++) a[i] = i;
    for (i = 0; i < 100; i++) total += a[i];
    printf("total=%ld\n", total);
    return 0;
}
'''

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_opt_level_normalization():
    assert opt_level(None) == opt_level(False) == opt_level(0) == 0
    assert opt_level(True) == opt_level(1) == 1
    assert opt_level(2) == opt_level(ProveConfig()) == 2
    with pytest.raises(UsageError):
        opt_level(3)
    assert prove_config_of(1) is None
    assert prove_config_of(2) == ProveConfig()
    custom = ProveConfig(case_split_limit=16)
    assert prove_config_of(custom) is custom


def test_o2_deletes_loop_checks_with_certificates():
    o1 = compile_source(LOOP_PROGRAM, profile="spatial", optimize=1)
    o2 = compile_source(LOOP_PROGRAM, profile="spatial", optimize=2)
    r1 = run_compiled(o1, profile="spatial")
    r2 = run_compiled(o2, profile="spatial")
    assert r1.trap is None and r2.trap is None
    assert (r1.exit_code, r1.output) == (r2.exit_code, r2.output)
    # -O1 already widened these loop checks behind a preheader guard
    # (the fast loop runs none of them); -O2 deletes them outright, so
    # the proved build is strictly cheaper and strictly shorter.
    assert r2.stats.cost < r1.stats.cost
    assert r2.stats.instructions < r1.stats.instructions

    certs = tuple(getattr(o2, "prove_certificates", None) or ())
    stats = o2.check_opt_stats
    proved = stats.proved_checks + stats.proved_temporal_checks
    assert proved == len(certs) > 0
    for cert in certs:
        ok, reason = replay_certificate(cert)
        assert ok, f"{cert.function}:{cert.site}: {reason}"


def test_matrix_byte_identity_across_levels_and_engines():
    rows = {}
    for engine in ("compiled", "interp"):
        for level in (0, 1, 2):
            report = run_source(LOOP_PROGRAM, profile="full",
                                engine=engine, optimize=level)
            assert report.trap is None
            rows[(engine, level)] = (report.exit_code, report.output)
    assert len(set(rows.values())) == 1, rows


def test_prove_config_spelling_reaches_the_pass():
    # max_blocks=0 skips the analysis for every function — a sound
    # no-op whose fingerprint (zero certificates) proves the tuned
    # config actually reached the pass.
    gated = compile_source(LOOP_PROGRAM, profile="spatial",
                           optimize=ProveConfig(max_blocks=0))
    full = compile_source(LOOP_PROGRAM, profile="spatial", optimize=2)
    assert not (getattr(gated, "prove_certificates", None) or ())
    assert len(getattr(full, "prove_certificates", None) or ()) > 0
    # skipping is sound: the gated build still runs correctly
    report = run_compiled(gated, profile="spatial")
    assert report.trap is None and report.exit_code == 0


def test_non_provable_policies_refuse_o2():
    for policy in ("mscc", "valgrind", "fatptr-naive"):
        with pytest.raises(ProveNotSupportedError):
            compile_source(LOOP_PROGRAM, profile=policy, optimize=2)
    # ...but still accept -O1 (nothing changed for them)
    report = run_source(LOOP_PROGRAM, profile="mscc", optimize=1)
    assert report.trap is None


def test_store_keys_keep_proved_builds_distinct():
    profile = as_profile("spatial")
    tokens = {cache_key_text(profile, optimize)
              for optimize in (False, True, 2, ProveConfig(),
                               ProveConfig(case_split_limit=8))}
    # O0, O1, O2-default and each tuned config are all distinct
    # artifacts; the historical bool spellings alias their int twins.
    assert len(tokens) == 5
    assert cache_key_text(profile, True) == cache_key_text(profile, 1)
    assert cache_key_text(profile, False) == cache_key_text(profile, 0)


def _cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + (":" + env["PYTHONPATH"]
                            if env.get("PYTHONPATH") else ""))
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_opt_level_flag(tmp_path):
    source = tmp_path / "loop.c"
    source.write_text(LOOP_PROGRAM)
    ok = _cli("run", str(source), "--profile", "spatial", "-O", "2",
              "--json")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["exit_code"] == 0
    # typed refusal for a non-provable policy: usage error, exit 64
    refused = _cli("run", str(source), "--profile", "valgrind", "-O", "2")
    assert refused.returncode == 64, (refused.returncode, refused.stderr)
    assert "provable" in refused.stderr


def test_cli_profile_emits_elimination_counters(tmp_path):
    source = tmp_path / "loop.c"
    source.write_text(LOOP_PROGRAM)
    proc = _cli("profile", str(source), "--json", "-O", "2")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    static = report["eliminated_static"]
    assert static["by_proof"]["sb_check"] > 0
    assert report["certificates"] == static["by_proof"]["sb_check"] \
        + static["by_proof"]["sb_temporal_check"]
    assert set(report["eliminated_dynamic"]) == {"widened_checks"}
    # the proved sites keep a zero-total row instead of vanishing
    proved_rows = [row for row in report["sites"]
                   if row.get("proved", 0) > 0]
    assert proved_rows, "proved sites missing from the site table"
