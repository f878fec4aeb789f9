"""Opcode-trait registry: what the optimizer may do with a check opcode.

The check passes (:mod:`repro.opt.checkelim`, :mod:`repro.opt.checkwiden`)
used to rely on two hard-coded invalidation sets in
:mod:`repro.ir.instructions` and an opcode-name match.  That closed the
optimizer to exactly the built-in instrumentation: a policy adding its
own check opcode could never be widened, and — worse — could silently
*be* moved past by a pass that did not know the opcode had effects.

This module is the open replacement.  Every check-like opcode declares
:class:`OpcodeTraits` describing its obligations:

* ``widenable`` — whether :mod:`repro.opt.checkwiden` may delete a
  per-iteration occurrence from a loop's fast version behind a widened
  preheader guard.  A widenable opcode must carry the ``sb_check``
  operand shape (``ptr``/``base``/``bound``/``size``) that the widened
  guard is computed from.  An unregistered opcode is not widenable, so a plugin opcode
  is conservatively left alone until its policy says otherwise.
* ``writes_metadata_table`` / ``releases_locks`` — whether executing
  the opcode can invalidate metadata-table reads or temporal liveness;
  these extend the core invalidation sets that
  :mod:`repro.opt.checkelim` consults before reusing an earlier
  ``sb_meta_load`` or ``sb_temporal_check``.

Redundant-check elimination and the ``-O2`` prove pass
(:mod:`repro.prove`) select the checks they may delete by opcode name
and IR class, and whether the prove pass runs is the policy's call
(:class:`repro.policy.base.CheckerPolicy`'s ``provable``), so they read
no trait here.

The core SoftBound opcodes are registered here (they are the reference
instances of the protocol); policies register additional opcodes via
:func:`register_opcode_traits`, usually through
:meth:`repro.policy.base.CheckerPolicy.register_vm_handlers`.
"""

from dataclasses import dataclass

from ..ir.instructions import LOCK_RELEASERS, METADATA_TABLE_WRITERS


@dataclass(frozen=True)
class OpcodeTraits:
    """Optimizer-facing contract of one check-like opcode."""

    opcode: str
    widenable: bool = False
    writes_metadata_table: bool = False
    releases_locks: bool = False


#: opcode name -> OpcodeTraits.  Mutated only by register_opcode_traits.
_TRAITS = {}

_NO_TRAITS = OpcodeTraits(opcode="?")


def register_opcode_traits(traits):
    """Register (or idempotently re-register) an opcode's traits.

    Re-registering with *different* traits raises: two policies
    disagreeing about what the optimizer may do with an opcode is a
    bug, not a tie to break silently.
    """
    existing = _TRAITS.get(traits.opcode)
    if existing is not None and existing != traits:
        raise ValueError(
            f"conflicting traits for opcode {traits.opcode!r}: "
            f"{existing} vs {traits}")
    _TRAITS[traits.opcode] = traits
    return traits


def traits_of(opcode):
    """The registered traits for ``opcode`` (capability-free defaults
    when unregistered — unknown opcodes are never touched)."""
    return _TRAITS.get(opcode, _NO_TRAITS)


def table_writer_opcodes():
    """Opcodes that may write the disjoint metadata table: the core set
    plus every registered opcode declaring ``writes_metadata_table``."""
    extra = {op for op, t in _TRAITS.items() if t.writes_metadata_table}
    return METADATA_TABLE_WRITERS | frozenset(extra)


def lock_releaser_opcodes():
    """Opcodes that may change temporal liveness: the core set plus
    every registered opcode declaring ``releases_locks``."""
    extra = {op for op, t in _TRAITS.items() if t.releases_locks}
    return LOCK_RELEASERS | frozenset(extra)


# -- the core SoftBound opcodes, registered through the same door ------------

register_opcode_traits(OpcodeTraits(opcode="sb_check", widenable=True))
# Never widened: widening removes per-iteration evaluation, and
# liveness is genuinely per-access.
register_opcode_traits(OpcodeTraits(opcode="sb_temporal_check"))
register_opcode_traits(OpcodeTraits(opcode="sb_meta_load"))
register_opcode_traits(OpcodeTraits(
    opcode="sb_meta_store", writes_metadata_table=True))
