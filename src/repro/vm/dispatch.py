"""Shared VM dispatch registry: one door for new opcodes, two engines.

The interpreting machine (:mod:`repro.vm.machine`) dispatches through
:data:`INTERP_HANDLERS`, which it populates at import and checker
policies extend at registration
(:meth:`repro.policy.base.CheckerPolicy.register_vm_handlers`).

A registration is one interpreter handler, ``fn(machine, frame,
instr)``: return ``None`` to fall through to the next instruction, or a
truthy value after setting ``frame.block``/``index`` for control
transfers (exactly the discipline of the built-in handlers).

The region-compiled engine (:mod:`repro.vm.engine`) generates its own
code for the core opcodes from templates; an opcode registered here
ends a region there and runs, every time, through its handler with the
interpreter's bookkeeping (count, budget check, then the handler).
The compiled engine runs every call its generated ops do not cover
(indirect calls, variadic callees, observed machines) through the
``call`` handler the same way, and follows the frame that handler
pushes or the frame ``longjmp`` resumes.  Registered opcodes must
still be straight-line: a handler that transfers control traps on the
compiled engine.

Both engines read the *live* dict, so opcodes registered after a
machine was constructed are still dispatchable (the compiled engine
translates blocks lazily).
"""

#: opcode -> fn(machine, frame, instr) for the reference interpreter.
INTERP_HANDLERS = {}


def register_opcode(opcode, interp):
    """Register the interpreter handler for ``opcode``.

    Idempotent for identical re-registration; a conflicting handler for
    the same opcode raises (two policies disagreeing on an opcode's
    semantics is a bug).
    """
    if interp is None:
        raise ValueError(f"register_opcode({opcode!r}): no handler given")
    existing = INTERP_HANDLERS.get(opcode)
    if existing is not None and existing is not interp:
        raise ValueError(f"opcode {opcode!r} already has a registered "
                         f"handler")
    INTERP_HANDLERS[opcode] = interp
    return opcode
