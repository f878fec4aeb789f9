"""Tests for the ``python -m repro`` command-line interface."""

import io
import json

import pytest

from repro.cli import (
    EX_COMPILE,
    EX_SPATIAL,
    EX_TEMPORAL,
    EX_TRAP,
    EX_USAGE,
    main,
)

SAFE_PROGRAM = r'''
int main(void) {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i;
    printf("sum %d\n", a[0] + a[1] + a[2] + a[3]);
    return 6;
}
'''

BUGGY_PROGRAM = r'''
int main(void) {
    char b[4];
    strcpy(b, "definitely too long");
    return 0;
}
'''


@pytest.fixture
def capture():
    return io.StringIO(), io.StringIO()


def write_program(tmp_path, text, name="prog.c"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodeContract:
    def test_deterministic_codes_are_documented_values(self):
        assert (EX_SPATIAL, EX_TEMPORAL, EX_COMPILE) == (2, 3, 4)


class TestRun:
    def test_clean_run_returns_program_exit(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path], out, err) == 6
        assert "sum 6" in out.getvalue()

    def test_unprotected_buggy_run_may_finish_silently(self, tmp_path, capture):
        out, err = capture
        code = main(["run", write_program(tmp_path, BUGGY_PROGRAM)], out, err)
        # Without SoftBound the overflow corrupts silently (exit 0) or
        # segfaults (EX_TRAP) — never the violation codes.
        assert code in (0, EX_TRAP)

    def test_softbound_flag_catches_overflow(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, BUGGY_PROGRAM)
        assert main(["run", path, "--softbound"], out, err) == EX_SPATIAL
        assert "spatial_violation" in err.getvalue()

    def test_store_only_flag_implies_softbound(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, BUGGY_PROGRAM)
        assert main(["run", path, "--store-only"], out, err) == EX_SPATIAL

    def test_hash_table_flag(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--hash-table", "--stats"], out, err) == 6
        assert "metadata" in out.getvalue()

    def test_stats_flag_prints_cost_model(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        main(["run", path, "--softbound", "--stats"], out, err)
        text = out.getvalue()
        assert "cost units" in text
        assert "bounds checks" in text

    def test_stdin_file(self, tmp_path, capture):
        out, err = capture
        program = write_program(tmp_path, r'''
        int main(void) { char b[32]; gets(b); puts(b); return 0; }
        ''')
        stdin_path = tmp_path / "input.txt"
        stdin_path.write_text("hello\n")
        code = main(["run", program, "--stdin-file", str(stdin_path)], out, err)
        assert code == 0
        assert "hello" in out.getvalue()

    def test_missing_file_is_usage_error(self, capture):
        out, err = capture
        assert main(["run", "/does/not/exist.c"], out, err) == EX_USAGE
        assert "cannot read" in err.getvalue()

    def test_compile_error_reported(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, "int main( { not C ;")
        assert main(["run", path], out, err) == EX_COMPILE
        assert "compile error" in err.getvalue()

    @pytest.mark.parametrize("literal", ["09", "1" * 5001])
    def test_bad_integer_literal_is_a_compile_error(self, tmp_path, capture,
                                                    literal):
        out, err = capture
        path = write_program(tmp_path,
                             f"int main(void) {{ return {literal}; }}")
        assert main(["run", path], out, err) == EX_COMPILE
        (line,) = err.getvalue().splitlines()
        assert line.startswith("compile error: 1:25: ")

    @pytest.mark.parametrize("command", ["run", "check", "profile"])
    def test_source_that_is_not_utf8_is_a_compile_error(self, tmp_path,
                                                        capture, command):
        out, err = capture
        data = b"int main(void) { return 0; } /* \xff */\n"
        path = tmp_path / "latin.c"
        path.write_bytes(data)
        assert main([command, str(path)], out, err) == EX_COMPILE
        (line,) = err.getvalue().splitlines()
        assert line == (f"compile error: {path}: not UTF-8 at byte offset "
                        f"{data.index(0xff)}")
        assert out.getvalue() == ""

    def test_no_optimize_flag_still_runs(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--no-optimize"], out, err) == 6


class TestEngineEnvironment:
    @pytest.mark.parametrize("argv", [["run"], ["check"], ["profile"]])
    def test_unknown_env_engine_is_a_usage_error(self, tmp_path, capture,
                                                 monkeypatch, argv):
        out, err = capture
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(argv + [path], out, err) == EX_USAGE
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert "REPRO_ENGINE" in line and "compiled, interp" in line
        assert out.getvalue() == ""

    def test_flag_overrides_a_bad_env_engine(self, tmp_path, capture,
                                             monkeypatch):
        out, err = capture
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--engine", "interp"], out, err) == 6


class TestProfileFlag:
    def test_profile_selects_protection(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, BUGGY_PROGRAM)
        assert main(["run", path, "--profile", "spatial"], out, err) \
            == EX_SPATIAL

    def test_profile_none_runs_unprotected(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--profile", "none"], out, err) == 6

    def test_unknown_profile_is_usage_error(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--profile", "nope"], out, err) == EX_USAGE
        assert "unknown profile" in err.getvalue()

    def test_profile_conflicts_with_checking_flags(self, tmp_path, capture):
        """--profile must not silently discard an explicit checking flag
        (a user combining them would get downgraded protection)."""
        out, err = capture
        path = write_program(tmp_path, UAF_PROGRAM)
        code = main(["run", path, "--profile", "spatial", "--temporal"],
                    out, err)
        assert code == EX_USAGE
        assert "cannot be combined" in err.getvalue()

    def test_profiles_subcommand_lists_registry(self, capture):
        out, err = capture
        assert main(["profiles"], out, err) == 0
        text = out.getvalue()
        for name in ("none", "spatial", "temporal", "full", "mscc",
                     "valgrind", "jones-kelly"):
            assert name in text


class TestJsonFlag:
    def test_json_emits_run_report(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--json"], out, err) == 6
        report = json.loads(out.getvalue())
        assert report["exit_code"] == 6
        assert report["ok"] is True
        assert report["profile"] == "none"
        assert report["stats"]["instructions"] > 0
        assert report["value"] == report["stats"]["cost"]

    def test_json_reports_trap(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, BUGGY_PROGRAM)
        code = main(["run", path, "--softbound", "--json"], out, err)
        assert code == EX_SPATIAL
        report = json.loads(out.getvalue())
        assert report["detected_violation"] is True
        assert report["trap"]["kind"] == "spatial_violation"
        assert report["trap"]["source"] == "softbound"


class TestCheck:
    def test_check_catches_overflow(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, BUGGY_PROGRAM)
        assert main(["check", path], out, err) == EX_SPATIAL

    def test_check_passes_clean_program(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["check", path], out, err) == 6


UAF_PROGRAM = r'''
int main(void) {
    long *p = (long *)malloc(16);
    free(p);
    p[0] = 1;
    return 0;
}
'''


class TestTemporalFlag:
    def test_run_temporal_catches_uaf(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, UAF_PROGRAM)
        assert main(["run", path, "--temporal"], out, err) == EX_TEMPORAL
        assert "temporal_violation" in err.getvalue()

    def test_spatial_only_misses_uaf(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, UAF_PROGRAM)
        assert main(["run", path, "--softbound", "--no-temporal"],
                    out, err) == 0

    def test_check_temporal_flag(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, UAF_PROGRAM)
        assert main(["check", path, "--temporal"], out, err) == EX_TEMPORAL

    def test_temporal_exit_code_distinct_from_spatial(self, tmp_path, capture):
        out, err = capture
        uaf = write_program(tmp_path, UAF_PROGRAM, name="uaf.c")
        overflow = write_program(tmp_path, BUGGY_PROGRAM, name="ovf.c")
        assert main(["run", uaf, "--temporal"], out, err) == EX_TEMPORAL
        assert main(["run", overflow, "--temporal"], out, err) == EX_SPATIAL

    def test_temporal_transparent_on_clean_program(self, tmp_path, capture):
        out, err = capture
        path = write_program(tmp_path, SAFE_PROGRAM)
        assert main(["run", path, "--temporal"], out, err) == 6
        assert "sum 6" in out.getvalue()


class TestTablesAndWorkloads:
    def test_workloads_lists_all_fifteen(self, capture):
        out, err = capture
        assert main(["workloads"], out, err) == 0
        text = out.getvalue()
        for name in ("go", "compress", "treeadd", "bisort", "li"):
            assert name in text

    def test_workloads_lists_attack_and_bug_families(self, capture):
        out, err = capture
        assert main(["workloads"], out, err) == 0
        text = out.getvalue()
        for name in ("stack_direct_ret", "polymorph", "uaf_read",
                     "double_free"):
            assert name in text

    def test_workloads_group_filter(self, capture):
        out, err = capture
        assert main(["workloads", "--group", "temporal"], out, err) == 0
        text = out.getvalue()
        assert "uaf_read" in text and "key_collision_stress" in text
        assert "treeadd" not in text and "stack_direct_ret" not in text

    def test_workloads_group_filter_spec(self, capture):
        out, err = capture
        assert main(["workloads", "--group", "spec"], out, err) == 0
        text = out.getvalue()
        assert "compress" in text and "uaf_read" not in text

    def test_workloads_group_no_match(self, capture):
        out, err = capture
        assert main(["workloads", "--group", "zzz"], out, err) == 0
        assert "no workloads match" in out.getvalue()

    def test_temporal_table_renders(self, capture):
        out, err = capture
        assert main(["tables", "temporal"], out, err) == 0
        text = out.getvalue()
        assert "uaf_read" in text and "lock-and-key" in text

    def test_single_table_renders(self, capture):
        out, err = capture
        assert main(["tables", "table3"], out, err) == 0
        assert "attack" in out.getvalue().lower()

    def test_unknown_table_is_usage_error(self, capture):
        out, err = capture
        assert main(["tables", "nonexistent"], out, err) == EX_USAGE

    def test_usage_error_without_command(self, capture):
        out, err = capture
        assert main([], out, err) == EX_USAGE
