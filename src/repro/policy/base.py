"""The ``CheckerPolicy`` interface: one protection scheme, one object.

A policy owns everything one memory-safety checker needs to exist in
this system, so a new checker is a *plugin* rather than core surgery:

* **Identity** — ``name`` / ``description`` / ``family``, which is what
  ``python -m repro profiles`` lists and what
  :class:`repro.api.profiles.ProtectionProfile` derives from.
* **Instrumentation** — ``config`` (a
  :class:`~repro.softbound.config.SoftBoundConfig` or ``None``) plus
  :meth:`instrumentation_plan`, the hook object the SoftBound IR
  transform calls at every load/store/call/alloc site (see
  :mod:`repro.policy.instrumentation`).  ``handles_config`` lets the
  runtime resolve an *ad-hoc* config (e.g. an ablation variant) back to
  the policy that owns its ``variant``.
* **Metadata shape** — ``meta_arity``: how many companion values ride
  with each pointer through calls, returns, varargs and the disjoint
  table (2 = (base, bound); 4 adds (key, lock)).
* **Runtime** — :meth:`make_facility` builds the metadata facility the
  VM's SoftBound runtime drives; ``check_cost_key`` prices the
  per-access check; :meth:`make_observers` builds per-run access
  observers for observer-style checkers (Valgrind/Mudflap/red-zone).
* **VM dispatch** — :meth:`register_vm_handlers` is called once at
  registration with :func:`repro.vm.dispatch.register_opcode`; a policy
  with its own IR opcode registers its interpreter handler there (the
  compiled engine runs it through an adapter) and declares the opcode's
  optimizer traits via :func:`repro.policy.opcodes.register_opcode_traits`.
* **Costs** — ``cost_model`` is merged into
  :data:`repro.vm.costs.OP_COSTS` at registration
  (:func:`repro.vm.costs.register_costs`).
* **Optimizer capabilities** — ``dedupable`` / ``hoistable`` /
  ``widenable`` / ``provable``: whether the post-instrumentation
  pipeline may run redundant-check elimination, LICM, check widening,
  and (at ``-O2``) solver-backed static check *deletion* over code this
  policy instrumented.  The pipeline queries these instead of
  pattern-matching variant names.  ``provable`` is opt-in: it asserts
  the policy's check semantics are exactly the ``(base, bound)`` /
  ``(key, lock)`` contract the prove subsystem (:mod:`repro.prove`)
  models, so a proof of "never traps" transfers to the real runtime.
* **Evaluation** — ``detects`` (violation classes the conformance suite
  asserts), :meth:`capability_row` (an extension row for the Table 1
  capability matrix) and :meth:`temporal_row` (an extension row for the
  temporal detection table).

Policies must be stateless and picklable-by-reference: per-run state
lives in the observers/facilities they *create*, never on the policy
itself, so batch execution can resolve the same policy in worker
processes.
"""


class CheckerPolicy:
    """Base class for protection schemes.  Subclass, set the class
    attributes, override the factory methods you need, and call
    :func:`repro.policy.register_policy`."""

    # -- identity ------------------------------------------------------
    name = None
    description = ""
    #: "none", "softbound", "baseline", or anything a plugin chooses.
    family = "baseline"

    # -- instrumentation -----------------------------------------------
    #: SoftBoundConfig driving the IR transform, or None for policies
    #: that do not rewrite the program (observer-style checkers).
    config = None
    #: Zero-arg callable building one fresh per-run access observer
    #: (:class:`repro.vm.machine.Observer`), or None.  Must be a
    #: module-level class/function so profiles stay picklable.
    observer_factory = None

    # -- metadata shape ------------------------------------------------
    #: Companion values per pointer through calls/returns/varargs.
    meta_arity = 2

    # -- optimizer capabilities ----------------------------------------
    dedupable = True
    hoistable = False
    widenable = False
    #: Whether -O2 solver-backed static check elimination is sound for
    #: this policy.  Off by default: a proof is only as good as the
    #: match between the solver's model and the policy's actual check
    #: semantics, so every policy must opt in explicitly (after audit).
    provable = False

    # -- costs ---------------------------------------------------------
    #: Cost keys this policy charges, merged into OP_COSTS at
    #: registration ({key: units}).  Keys already priced identically
    #: are fine; conflicting re-pricings raise.
    cost_model = {}
    #: OP_COSTS key charged per sb_check executed under this policy.
    check_cost_key = "sb.check"

    # -- evaluation ----------------------------------------------------
    #: Violation classes the conformance suite asserts this policy
    #: detects.  Known classes: "stack_overflow", "heap_overflow",
    #: "subobject_overflow", "use_after_free", "double_free",
    #: "dangling_stack".
    detects = frozenset()

    # -- derived -------------------------------------------------------

    @property
    def is_protected(self):
        return self.config is not None or bool(self.observer_factories())

    @classmethod
    def handles_config(cls, config):
        """Whether this policy owns ``config`` — consulted by the
        runtime to resolve ad-hoc configs (never-registered ablation
        variants) to the policy whose discipline they follow.  The
        default matches on the config's ``variant``/``temporal`` axes
        against this policy's own config."""
        own = cls.config
        if config is None or own is None:
            return config is None and own is None
        return (getattr(config, "variant", "softbound")
                == getattr(own, "variant", "softbound")
                and bool(getattr(config, "temporal", False))
                == bool(getattr(own, "temporal", False)))

    # -- factories -----------------------------------------------------

    def instrumentation_plan(self, config=None):
        """The hook object the SoftBound transform drives (None when
        ``config`` is None — nothing to instrument).  ``config`` is the
        possibly-ad-hoc config being compiled, defaulting to the
        policy's own.

        The default builds the built-in plan for the config's axes
        (temporal → :class:`TemporalPlan`, else :class:`SpatialPlan`) —
        deliberately *not* via ``plan_for_config``, which resolves back
        to this policy.  Override to emit your own check opcodes."""
        config = config if config is not None else self.config
        if config is None:
            return None
        from .instrumentation import SpatialPlan, TemporalPlan

        plan_cls = (TemporalPlan if getattr(config, "temporal", False)
                    else SpatialPlan)
        return plan_cls(config)

    def make_facility(self, config=None):
        """The metadata facility backing the VM runtime (None when the
        policy is not transform-based)."""
        if (config or self.config) is None:
            return None
        from ..softbound.metadata import make_facility

        return make_facility((config or self.config).scheme)

    def observer_factories(self):
        """Zero-arg callables building fresh per-run observers."""
        return (self.observer_factory,) if self.observer_factory else ()

    def make_observers(self):
        """Fresh per-run observers (observers carry per-run state)."""
        return tuple(factory() for factory in self.observer_factories())

    # -- registration hooks --------------------------------------------

    def register_vm_handlers(self, register_opcode):
        """Called once when the policy is registered.  ``register_opcode``
        is :func:`repro.vm.dispatch.register_opcode`; policies with
        their own IR opcodes install their interpreter handlers here.
        Default: nothing to register."""

    def capability_row(self):
        """An extension :class:`~repro.baselines.capabilities.CapabilityRow`
        for the Table 1 matrix, or None to stay out of it.  Built-in
        policies return None — their rows are the paper's own."""
        return None

    def temporal_row(self):
        """``(label, {attack_name: detected})`` extension row for the
        temporal detection table, or None to stay out of it."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"
