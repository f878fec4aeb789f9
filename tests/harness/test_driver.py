"""Driver and measurement-harness tests."""

import pytest

from repro import CheckMode, MetadataScheme, SoftBoundConfig, compile_source
from repro.harness.stats import average, measure, overhead_matrix, pointer_fractions
from repro.harness.tables import render_metadata_ablation, render_table1
from repro.softbound.config import FIGURE2_CONFIGS, FULL_SHADOW


def test_top_level_api_reexports():
    result = compile_source("int main(void) { return 9; }").run()
    assert result.exit_code == 9
    config = SoftBoundConfig(mode=CheckMode.STORE_ONLY,
                             scheme=MetadataScheme.HASH_TABLE)
    assert config.label == "HashTable-Stores"


def test_compiled_program_is_reusable():
    compiled = compile_source(r'''
    int counter;
    int main(void) { counter++; return counter; }
    ''')
    # Fresh machine per run: no state leaks between executions.
    assert compiled.run().exit_code == 1
    assert compiled.run().exit_code == 1


def test_compiled_program_accepts_input_per_run():
    compiled = compile_source(r'''
    int main(void) { char b[32]; gets(b); return (int)strlen(b); }
    ''')
    assert compiled.run(input_data=b"abc\n").exit_code == 3
    assert compiled.run(input_data=b"longer line\n").exit_code == 11


def test_figure2_configs_cover_the_grid():
    labels = {c.label for c in FIGURE2_CONFIGS}
    assert labels == {"HashTable-Complete", "ShadowSpace-Complete",
                      "HashTable-Stores", "ShadowSpace-Stores"}


def test_measure_is_memoized():
    first = measure("health")
    second = measure("health")
    assert first is second


def test_measure_reports_instrumentation_stats():
    baseline = measure("health")
    protected = measure("health", FULL_SHADOW)
    assert baseline.checks == 0
    assert protected.checks > 0
    assert protected.metadata_loads > 0
    assert protected.cost > baseline.cost
    assert protected.metadata_bytes > 0


def test_pointer_fractions_cover_all_workloads():
    fractions = pointer_fractions()
    assert len(fractions) == 15
    assert all(0.0 <= f <= 1.0 for f in fractions.values())


def test_overhead_matrix_asserts_equivalence():
    matrix = overhead_matrix(configs=(FULL_SHADOW,), workload_names=("hmmer",))
    assert "ShadowSpace-Complete" in matrix
    assert matrix["ShadowSpace-Complete"]["hmmer"] > 0


def test_average_helper():
    assert average([1, 2, 3]) == 2
    assert average([]) == 0.0


def test_render_functions_produce_text():
    assert "SoftBound" in render_table1()
    assert "shadow_space" in render_metadata_ablation()


def test_entry_point_resolution_for_transformed_modules():
    compiled = compile_source("int main(void) { return 4; }", FULL_SHADOW)
    assert "_sb_main" in compiled.module.functions
    assert compiled.run().exit_code == 4  # run() resolves main -> _sb_main


def test_unknown_entry_raises():
    compiled = compile_source("int main(void) { return 0; }")
    with pytest.raises(KeyError):
        compiled.run(entry="nonexistent")
