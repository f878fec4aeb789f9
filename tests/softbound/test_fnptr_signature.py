"""Function-pointer signature encoding (paper Section 5.2 extension).

The paper notes that "cast between function pointers of incompatible
types presents a challenge" and sketches — but does not implement — "the
ultimate solution ... to encode the pointer/non-pointer signature of the
function's arguments, allowing a dynamic check".  We implement that
extension behind ``SoftBoundConfig(encode_fnptr_signature=True)``.

One modelling note: in our VM the base/bound companion values travel in
a side band rather than in argument registers, so a mismatched cast
cannot *manufacture* bounds the way the paper fears on real hardware —
the callee just sees NULL bounds.  What the signature check restores is
detection fidelity: the violation is reported eagerly and precisely at
the indirect call, including cases (a callee that never dereferences,
an int silently reinterpreted) that otherwise go unnoticed entirely.
"""

import pytest

from repro.api import compile_source
from repro.softbound.config import CheckMode, SoftBoundConfig
from repro.vm.errors import TrapKind

SIG_CONFIG = SoftBoundConfig(encode_fnptr_signature=True)


def trap_kind(result):
    return result.trap.kind if result.trap is not None else None


class TestCompatibleCallsStillWork:
    def test_matching_int_signature(self):
        source = r'''
        int twice(int x) { return 2 * x; }
        int main() { int (*f)(int) = twice; return f(21); }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.exit_code == 42
        assert result.trap is None

    def test_matching_pointer_signature(self):
        source = r'''
        int first(int *p) { return p[0]; }
        int main() {
            int a[4]; a[0] = 9;
            int (*f)(int *) = first;
            return f(a);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.exit_code == 9
        assert result.trap is None

    def test_matching_mixed_signature(self):
        source = r'''
        int pick(int *p, int i, char *q) { return p[i] + q[0]; }
        int main() {
            int a[4]; a[2] = 5;
            char c[2]; c[0] = 3;
            int (*f)(int *, int, char *) = pick;
            return f(a, 2, c);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.exit_code == 8
        assert result.trap is None

    def test_function_pointer_through_struct_and_call_chain(self):
        source = r'''
        typedef struct { int (*op)(int, int); } Table;
        int add(int a, int b) { return a + b; }
        int main() {
            Table t;
            t.op = add;
            return t.op(30, 12);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.exit_code == 42
        assert result.trap is None


class TestIncompatibleCastsTrapAtCallSite:
    def test_int_passed_where_pointer_declared(self):
        source = r'''
        int deref(int *p) { return *p; }
        int main() {
            int (*f)(long) = (int(*)(long))deref;
            return f(77L);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(result) is TrapKind.FUNCTION_POINTER_VIOLATION
        assert "signature mismatch" in result.trap.detail

    def test_pointer_passed_where_int_declared(self):
        """Without the signature check this is *silent* misbehaviour:
        the callee treats the pointer's numeric value as data."""
        source = r'''
        long identity(long x) { return x; }
        int main() {
            int value = 5;
            long (*f)(int *) = (long(*)(int *))identity;
            return (int)f(&value);
        }
        '''
        unchecked = compile_source(source, SoftBoundConfig()).run()
        assert unchecked.trap is None  # silently returns an address
        checked = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(checked) is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_arity_mismatch_too_few_args(self):
        source = r'''
        int add3(int a, int b, int c) { return a + b + c; }
        int main() {
            int (*f)(int, int) = (int(*)(int, int))add3;
            return f(1, 2);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(result) is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_arity_mismatch_too_many_args(self):
        source = r'''
        int one(int a) { return a; }
        int main() {
            int (*f)(int, int) = (int(*)(int, int))one;
            return f(1, 2);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(result) is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_callee_that_never_dereferences_is_still_caught(self):
        """The case plain SoftBound cannot see at all: the callee ignores
        its (mistyped) argument, so no bounds check ever fires."""
        source = r'''
        int constant(int *p) { return 7; }
        int main() {
            int (*f)(int) = (int(*)(int))constant;
            return f(123);
        }
        '''
        unchecked = compile_source(source, SoftBoundConfig()).run()
        assert unchecked.trap is None
        assert unchecked.exit_code == 7
        checked = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(checked) is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_store_only_mode_also_checks_signatures(self):
        source = r'''
        int deref(int *p) { return *p; }
        int main() {
            int (*f)(long) = (int(*)(long))deref;
            return f(4L);
        }
        '''
        config = SoftBoundConfig(mode=CheckMode.STORE_ONLY,
                                 encode_fnptr_signature=True)
        result = compile_source(source, config).run()
        assert trap_kind(result) is TrapKind.FUNCTION_POINTER_VIOLATION


class TestVarargsAndEdgeCases:
    def test_vararg_callee_accepts_extra_args(self):
        source = r'''
        int sum(int n, ...) {
            va_list ap;
            va_start(&ap);
            int total = 0;
            for (int i = 0; i < n; i++) total += (int)va_arg_long(&ap);
            va_end(&ap);
            return total;
        }
        int main() {
            int (*f)(int, int, int) = (int(*)(int, int, int))sum;
            return f(2, 20, 22);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.trap is None
        assert result.exit_code == 42

    def test_vararg_callee_still_requires_fixed_prefix(self):
        source = r'''
        int tally(int *out, ...) { return out[0]; }
        int main() {
            int (*f)(int) = (int(*)(int))tally;
            return f(5);
        }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert trap_kind(result) is TrapKind.FUNCTION_POINTER_VIOLATION

    def test_direct_calls_are_not_signature_checked(self):
        # Direct calls are linked by name; the check applies to indirect
        # calls only, exactly as the paper scopes the problem.
        source = r'''
        int add(int a, int b) { return a + b; }
        int main() { return add(40, 2); }
        '''
        result = compile_source(source, SIG_CONFIG).run()
        assert result.exit_code == 42

    def test_flag_off_preserves_prototype_behaviour(self):
        """With the flag off (the paper's actual prototype) the mismatch
        is only caught later, inside the callee, as a spatial violation
        against NULL bounds."""
        source = r'''
        int deref(int *p) { return *p; }
        int main() {
            int (*f)(long) = (int(*)(long))deref;
            return f(77L);
        }
        '''
        result = compile_source(source, SoftBoundConfig()).run()
        assert trap_kind(result) is TrapKind.SPATIAL_VIOLATION

    def test_signature_check_charges_cost(self):
        source = r'''
        int twice(int x) { return 2 * x; }
        int main() {
            int (*f)(int) = twice;
            int total = 0;
            for (int i = 0; i < 10; i++) total += f(i);
            return total;
        }
        '''
        plain = compile_source(source, SoftBoundConfig()).run()
        checked = compile_source(source, SIG_CONFIG).run()
        assert checked.exit_code == plain.exit_code == 90
        assert checked.stats.cost > plain.stats.cost
