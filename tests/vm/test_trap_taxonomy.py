"""Trap taxonomy: each trap kind is reachable from a real program and
classified the way the detection experiments rely on."""

import pytest

from repro.api import compile_source
from repro.softbound.config import FULL_SHADOW
from repro.vm.errors import ATTACK_EXIT_CODE, ExecutionResult, Trap, TrapKind


def kind_of(source, **kwargs):
    result = compile_source(source).run(**kwargs)
    return result.trap.kind if result.trap else None


class TestTrapKindsAreReachable:
    def test_segfault(self):
        assert kind_of("int main(void){ int *p = (int *)4; return *p; }") \
            is TrapKind.SEGFAULT

    def test_div_by_zero(self):
        assert kind_of("int main(void){ int z = 0; return 7 / z; }") \
            is TrapKind.DIV_BY_ZERO

    def test_stack_overflow(self):
        source = "int f(int n){ int pad[256]; pad[0]=n; return f(n+1)+pad[0]; }" \
                 " int main(void){ return f(0); }"
        assert kind_of(source) is TrapKind.STACK_OVERFLOW

    def test_abort(self):
        assert kind_of("int main(void){ abort(); return 0; }") is TrapKind.ABORT

    def test_out_of_memory(self):
        # Heap exhaustion is the formal semantics' OutOfMem outcome
        # (Theorem 4.2's third case), reported as a trap kind.
        source = "int main(void){ char *p = (char *)malloc(1 << 30); return p != 0; }"
        assert kind_of(source) is TrapKind.OUT_OF_MEMORY

    def test_resource_limit(self):
        result = compile_source("int main(void){ while (1) {} return 0; }").run(
            max_instructions=10_000)
        assert result.trap.kind is TrapKind.RESOURCE_LIMIT

    def test_spatial_violation_source_is_softbound(self):
        result = compile_source(
            "int main(void){ int a[2]; a[5] = 1; return 0; }",
            FULL_SHADOW).run()
        assert result.trap.kind is TrapKind.SPATIAL_VIOLATION
        assert result.trap.source == "softbound"


class TestClassificationProperties:
    def test_detected_violation_excludes_crashes(self):
        crash = ExecutionResult(trap=Trap(TrapKind.SEGFAULT))
        hijack = ExecutionResult(trap=Trap(TrapKind.CONTROL_FLOW_HIJACK))
        caught = ExecutionResult(trap=Trap(TrapKind.SPATIAL_VIOLATION))
        assert not crash.detected_violation
        assert not hijack.detected_violation
        assert caught.detected_violation

    def test_attack_succeeded_via_exit_code_or_hijack(self):
        payload = ExecutionResult(exit_code=ATTACK_EXIT_CODE)
        hijack = ExecutionResult(trap=Trap(TrapKind.CONTROL_FLOW_HIJACK))
        clean = ExecutionResult(exit_code=0)
        assert payload.attack_succeeded
        assert hijack.attack_succeeded
        assert not clean.attack_succeeded

    def test_ok_means_no_trap(self):
        assert ExecutionResult().ok
        assert not ExecutionResult(trap=Trap(TrapKind.ABORT)).ok


class TestTrapFormatting:
    def test_str_includes_kind_address_source(self):
        trap = Trap(TrapKind.SPATIAL_VIOLATION, "store of 4 bytes",
                    address=0x1234, source="softbound")
        text = str(trap)
        assert "spatial_violation" in text
        assert "@0x1234" in text
        assert "[softbound]" in text

    def test_str_includes_hijack_target(self):
        trap = Trap(TrapKind.CONTROL_FLOW_HIJACK, "return address overwritten",
                    address=0x1010, target_symbol="attack_payload")
        assert "-> attack_payload" in str(trap)

    def test_zero_address_omitted(self):
        assert "@" not in str(Trap(TrapKind.ABORT, "called"))
