"""Policy registry, plugin discovery and VM/opt extension points.

These tests exercise the *extensibility* claims end to end: a checker
registered at runtime (or discovered from a plugin module) is
immediately selectable through every facade surface, its opcodes
dispatch in both VM engines, its cost keys price, and its opcode traits
steer the optimizer's invalidation sets — all with zero core edits.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.api import ProtectionProfile, Session, UsageError, all_profiles
from repro.policy import (
    CheckerPolicy,
    OpcodeTraits,
    PolicyError,
    get_policy,
    load_plugins,
    lock_releaser_opcodes,
    register_opcode_traits,
    register_policy,
    table_writer_opcodes,
    traits_of,
    unregister_policy,
)
from repro.vm.machine import Observer

CLEAN = "int main(void) { int a[2]; a[0] = 41; return a[0] + 1; }"


class CountingObserver(Observer):
    """Module-level so the derived profile stays picklable."""

    def __init__(self):
        self.loads = 0

    def on_load(self, addr, size):
        self.loads += 1


class CountingPolicy(CheckerPolicy):
    name = "test-counting"
    description = "test observer policy"
    family = "plugin"
    observer_factory = CountingObserver
    detects = frozenset()


@pytest.fixture
def counting_policy():
    policy = register_policy(CountingPolicy)
    yield policy
    unregister_policy(policy.name)


class TestRegistration:
    def test_registered_policy_is_a_profile_everywhere(self, counting_policy):
        profile = ProtectionProfile.from_name("test-counting")
        assert profile.family == "plugin"
        assert profile in all_profiles()
        report = Session().run(CLEAN, profile="test-counting")
        assert report.exit_code == 42
        assert report.trap is None

    def test_registration_is_idempotent(self, counting_policy):
        assert register_policy(CountingPolicy) is counting_policy

    def test_name_collision_with_different_class_raises(self, counting_policy):
        class Impostor(CheckerPolicy):
            name = "test-counting"
            description = "shadowing attempt"

        with pytest.raises(PolicyError, match="already registered"):
            register_policy(Impostor)

    def test_shadowing_a_builtin_raises(self):
        class Impostor(CheckerPolicy):
            name = "spatial"
            description = "shadowing attempt"

        with pytest.raises(PolicyError, match="already registered"):
            register_policy(Impostor)

    def test_nameless_policy_raises(self):
        class Nameless(CheckerPolicy):
            description = "no name"

        with pytest.raises(PolicyError, match="no name"):
            register_policy(Nameless)

    def test_get_policy_lists_known_names_on_typo(self):
        with pytest.raises(KeyError, match="spatial"):
            get_policy("not-a-policy")

    def test_transform_based_policy_default_plan_does_not_recurse(self):
        """A transform-based plugin that keeps the base-class
        ``instrumentation_plan`` gets the built-in plan for its config's
        axes (regression: the old default resolved through
        ``plan_for_config``, which resolves back to the same policy —
        infinite recursion)."""
        from dataclasses import replace

        from repro.policy import SpatialPlan
        from repro.softbound.config import FULL_SHADOW

        class VariantPolicy(CheckerPolicy):
            name = "test-variant"
            description = "transform-based, default plan"
            family = "plugin"
            config = replace(FULL_SHADOW, variant="test_variant")

        policy = register_policy(VariantPolicy)
        try:
            plan = policy.instrumentation_plan()
            assert isinstance(plan, SpatialPlan)
            report = Session().run(CLEAN, profile="test-variant")
            assert report.exit_code == 42
            assert report.stats.checks > 0
        finally:
            unregister_policy("test-variant")


class TestPluginDiscovery:
    def test_redzone_rides_the_builtin_plugin_path(self):
        """The in-tree red-zone plugin is loaded through the same
        discovery mechanism external plugins use."""
        policy = get_policy("redzone")
        assert policy.family == "plugin"
        assert type(policy).__module__ == "repro.policy.redzone"

    def test_load_plugins_extra_imports_and_registers(self, tmp_path,
                                                      monkeypatch):
        module_dir = tmp_path / "plugmod"
        module_dir.mkdir()
        (module_dir / "__init__.py").write_text(textwrap.dedent("""
            from repro.policy import CheckerPolicy, register_policy
            from repro.vm.machine import Observer

            class NullObserver(Observer):
                pass

            class TmpPolicy(CheckerPolicy):
                name = "test-tmp-plugin"
                description = "tmp plugin"
                family = "plugin"
                observer_factory = NullObserver

            register_policy(TmpPolicy)
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            loaded = load_plugins(extra=["plugmod"])
            assert "plugmod" in loaded
            assert get_policy("test-tmp-plugin").description == "tmp plugin"
            report = Session().run(CLEAN, profile="test-tmp-plugin")
            assert report.exit_code == 42
        finally:
            unregister_policy("test-tmp-plugin")

    def test_repro_plugins_env_is_honoured_in_a_fresh_process(self, tmp_path):
        """The documented zero-core-edit path: REPRO_PLUGINS names a
        module; `python -m repro profiles` lists its policy."""
        module_dir = tmp_path / "envplug"
        module_dir.mkdir()
        (module_dir / "__init__.py").write_text(textwrap.dedent("""
            from repro.policy import CheckerPolicy, register_policy
            from repro.vm.machine import Observer

            class NullObserver(Observer):
                pass

            class EnvPolicy(CheckerPolicy):
                name = "env-plugin"
                description = "discovered via REPRO_PLUGINS"
                family = "plugin"
                observer_factory = NullObserver

            register_policy(EnvPolicy)
        """))
        import os

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{tmp_path}" + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_PLUGINS"] = "envplug"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "profiles"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "env-plugin" in proc.stdout
        assert "discovered via REPRO_PLUGINS" in proc.stdout


class TestVmOpcodeExtension:
    def test_custom_opcode_dispatches_in_both_engines(self):
        """An opcode registered through the public door executes under
        the reference interpreter *and* the compiled engine (via the
        generic adapter), charging its registered cost."""
        from dataclasses import dataclass

        from repro.ir import instructions as ins
        from repro.ir.irtypes import I64
        from repro.ir.module import Function, Module
        from repro.ir.values import Const
        from repro.vm.costs import OP_COSTS, register_costs
        from repro.vm.dispatch import register_opcode
        from repro.vm.machine import Machine

        @dataclass
        class TestTick(ins.Instruction):
            opcode = "test_tick"

        register_costs({"test.tick": 5})

        def exec_tick(machine, frame, instr):
            machine.stats.charge("test.tick")
            machine.stats.checks += 1

        register_opcode("test_tick", interp=exec_tick)

        def build_module():
            module = Module()
            func = Function("main", I64)
            block = func.new_block("entry")
            block.append(TestTick())
            block.append(TestTick())
            block.append(ins.Ret(value=Const(7, I64)))
            module.add_function(func)
            return module

        results = {}
        for engine in ("interp", "compiled"):
            machine = Machine(build_module(), engine=engine)
            result = machine.run()
            results[engine] = (result.exit_code, machine.stats.checks,
                               machine.stats.cost)
        assert results["interp"] == (7, 2, 2 * OP_COSTS["test.tick"]
                                     + OP_COSTS["ret"])
        assert results["interp"] == results["compiled"]

    def test_cost_repricing_raises(self):
        from repro.vm.costs import register_costs

        register_costs({"sb.check": 3})  # identical: fine
        with pytest.raises(ValueError, match="refusing to re-price"):
            register_costs({"sb.check": 99})

    def test_conflicting_opcode_handler_raises(self):
        from repro.vm.dispatch import register_opcode

        def other(machine, frame, instr):
            pass

        with pytest.raises(ValueError, match="already has"):
            register_opcode("sb_check", interp=other)


class TestOpcodeTraits:
    def test_core_traits_registered(self):
        assert traits_of("sb_check").widenable
        assert not traits_of("sb_temporal_check").widenable
        assert not traits_of("sb_meta_load").writes_metadata_table
        assert traits_of("sb_meta_store").writes_metadata_table
        assert traits_of("sb_meta_clear").writes_metadata_table

    def test_traits_carry_only_what_the_passes_read(self):
        from dataclasses import fields

        assert [f.name for f in fields(OpcodeTraits)] == [
            "opcode", "widenable", "writes_metadata_table",
            "releases_locks"]

    def test_unknown_opcode_has_no_capabilities(self):
        traits = traits_of("never_registered")
        assert not (traits.widenable or traits.writes_metadata_table
                    or traits.releases_locks)

    def test_registered_traits_extend_invalidation_sets(self):
        register_opcode_traits(OpcodeTraits(
            opcode="test_table_poke",
            writes_metadata_table=True, releases_locks=True))
        assert "test_table_poke" in table_writer_opcodes()
        assert "test_table_poke" in lock_releaser_opcodes()
        assert "call" in lock_releaser_opcodes()  # core set still there

    def test_conflicting_traits_raise(self):
        with pytest.raises(ValueError, match="conflicting traits"):
            register_opcode_traits(OpcodeTraits(opcode="sb_check"))


class TestFromFlagsUsageErrors:
    def test_unknown_flag_raises_usage_error(self):
        with pytest.raises(UsageError, match="unknown protection flag"):
            ProtectionProfile.from_flags(hash=True)

    def test_store_only_plus_temporal_conflicts(self):
        with pytest.raises(UsageError, match="conflicting flags"):
            ProtectionProfile.from_flags(store_only=True, temporal=True)

    def test_cli_maps_conflict_to_exit_64(self, tmp_path):
        import io

        from repro.cli import EX_USAGE, main

        path = tmp_path / "t.c"
        path.write_text("int main(void) { return 0; }")
        out, err = io.StringIO(), io.StringIO()
        code = main(["run", str(path), "--store-only", "--temporal"],
                    out, err)
        assert code == EX_USAGE
        assert "conflicting flags" in err.getvalue()

    def test_profiles_json_lists_every_policy(self):
        import io
        import json

        from repro.cli import main
        from repro.policy import all_policies

        out, err = io.StringIO(), io.StringIO()
        assert main(["profiles", "--json"], out, err) == 0
        entries = json.loads(out.getvalue())
        names = {entry["name"] for entry in entries}
        assert {policy.name for policy in all_policies()} <= names
        redzone = next(e for e in entries if e["name"] == "redzone")
        assert redzone["observer_based"] and not redzone["transform_based"]
        assert "heap_overflow" in redzone["detects"]
