"""The staged compilation pipeline behind every entry point.

:class:`Toolchain` runs source through six named stages::

    parse -> typecheck -> lower -> optimize -> instrument -> post-optimize

Each stage is observable (``before_stage``/``after_stage`` hooks fire on
every attached :class:`ToolchainObserver`) and leaves its artifact —
tokens, AST, typed program, IR module, pass statistics — retrievable
from ``toolchain.artifacts`` after a compile, so tools can inspect any
intermediate state instead of re-deriving it.  The stage list is the
pass-manager design the ICOOOLPS pipeline surveys recommend: explicit
steps with inspectable state rather than one monolithic convenience
function.

``instrument``/``post-optimize`` run only when the toolchain's
:class:`~repro.api.profiles.ProtectionProfile` carries a
``SoftBoundConfig``; a skipped stage fires no hooks and records no
artifact.
"""

import time
from dataclasses import dataclass

from ..frontend.builtins import BUILTIN_TYPEDEFS
from ..frontend.parser import Parser
from ..frontend.typecheck import check
from ..ir.verifier import verify_module
from ..lower.lowering import lower
from ..obs.trace import StageTracer, tracing_enabled
from ..opt.pipeline import optimize_after_instrumentation, optimize_module
from ..vm.machine import Machine
from .profiles import as_profile

#: Stage names, in execution order.
STAGES = ("parse", "typecheck", "lower", "optimize", "instrument",
          "post-optimize")


class ToolchainObserver:
    """Hook interface for watching a compile (no-op defaults).

    ``before_stage`` receives the stage's input (source text for
    ``parse``, the working object afterwards); ``after_stage`` receives
    the artifact dict the stage recorded.
    """

    def before_stage(self, stage, payload):
        pass

    def after_stage(self, stage, artifact):
        pass


@dataclass
class CompiledProgram:
    """A compiled module plus the configuration it was built with."""

    module: object
    softbound_config: object = None
    pass_stats: object = None
    #: PassStats of the post-instrumentation cleanup pipeline (None for
    #: unprotected builds or ``optimize_checks=False``; set at every
    #: optimization level, ``-O0`` included); carries the check-pass
    #: counters (removed/deduped/widened).
    check_opt_stats: object = None
    #: Tuple of :class:`repro.prove.Certificate` for every check the
    #: ``-O2`` prove pass deleted (None below level 2).  Read with
    #: ``getattr(..., "prove_certificates", None)`` when the program may
    #: predate this field (old pickled store artifacts).
    prove_certificates: object = None

    @property
    def is_protected(self):
        return self.softbound_config is not None

    def instantiate(self, input_data=b"", heap_size=None, stack_size=None,
                    max_instructions=200_000_000, observers=(), engine=None):
        """Create a fresh machine (fresh memory) for one run.

        ``engine`` selects the dispatch strategy — ``"compiled"``
        (closure-compiled, the default) or ``"interp"`` (the reference
        interpreter); see :class:`repro.vm.machine.Machine`.
        """
        machine = Machine(self.module, heap_size=heap_size, stack_size=stack_size,
                          input_data=input_data, max_instructions=max_instructions,
                          engine=engine)
        if self.softbound_config is not None:
            from ..softbound.runtime import SoftBoundRuntime

            SoftBoundRuntime(self.softbound_config).attach(machine)
        for observer in observers:
            machine.attach_observer(observer)
        return machine

    def run(self, entry="main", input_data=b"", observers=(), **kwargs):
        """Execute the program once and return an ExecutionResult; the
        machine's memory image is freed before returning."""
        machine = self.instantiate(input_data=input_data, observers=observers, **kwargs)
        result = machine.run(entry=entry)
        machine.memory.release()
        return result


class Toolchain:
    """A configured pipeline instance, reusable across compiles.

    ``profile`` is anything :func:`~repro.api.profiles.as_profile`
    accepts (a profile, a profile name, a raw ``SoftBoundConfig`` or
    ``None``).  ``unit_mode=True`` compiles a translation unit that may
    reference symbols defined elsewhere (the linker's per-TU mode:
    unresolved symbols verify clean and the bare module is returned for
    linking).
    """

    def __init__(self, profile=None, optimize=True, verify=True,
                 observers=(), unit_mode=False):
        self.profile = as_profile(profile)
        self.optimize = optimize
        # Normalize the optimize spelling up front: levels 0/1/2, where
        # 2 (or a ProveConfig) additionally runs the solver-backed
        # static check elimination.  Raises UsageError on junk.
        from ..prove import opt_level, prove_config_of

        self.opt_level = opt_level(optimize)
        self.prove_config = prove_config_of(optimize)
        self.verify = verify
        self.observers = list(observers)
        if tracing_enabled():
            self.observers.append(StageTracer())
        self.unit_mode = unit_mode
        #: Stage artifacts of the most recent compile ({stage: dict}).
        self.artifacts = {}
        #: Wall-clock seconds per stage of the most recent compile.
        self.stage_seconds = {}

    def attach_observer(self, observer):
        self.observers.append(observer)
        return observer

    # -- hook plumbing -------------------------------------------------

    def _before(self, stage, payload):
        for observer in self.observers:
            observer.before_stage(stage, payload)
        self._stage_start = time.perf_counter()

    def _after(self, stage, artifact):
        self.stage_seconds[stage] = time.perf_counter() - self._stage_start
        self.artifacts[stage] = artifact
        for observer in self.observers:
            observer.after_stage(stage, artifact)

    def _verify(self, module):
        if self.verify:
            verify_module(module, allow_unresolved=self.unit_mode)

    def _require_provable(self):
        """Gate ``-O2`` on the checker policy's ``provable`` capability
        (refuse, never silently downgrade)."""
        from ..prove import ProveNotSupportedError

        policy = self.profile.policy
        if policy is None and self.profile.config is not None:
            from ..policy import policy_for_config

            policy = policy_for_config(self.profile.config)
        if policy is None or not getattr(policy, "provable", False):
            name = policy.name if policy is not None else self.profile.name
            raise ProveNotSupportedError(
                f"policy {name!r} does not declare the 'provable' "
                f"capability; -O2 static check elimination is only "
                f"sound for policies whose (base, bound) / (key, lock) "
                f"metadata discipline matches the solver's model. "
                f"Use -O1 for this policy.")

    # -- the pipeline --------------------------------------------------

    def compile(self, source, name=None):
        """Run every stage over ``source``; returns a
        :class:`CompiledProgram` (or the bare IR module in unit mode,
        for the linker to merge)."""
        self.artifacts = {}
        self.stage_seconds = {}
        config = self.profile.config
        if self.opt_level >= 2:
            self._require_provable()

        self._before("parse", source)
        parser = Parser(source)
        parser.typedefs.update(BUILTIN_TYPEDEFS)
        unit = parser.parse()
        self._after("parse", {"tokens": parser.tokens, "ast": unit})

        self._before("typecheck", unit)
        program = check(unit)
        self._after("typecheck", {"program": program})

        self._before("lower", program)
        module = lower(program)
        if name is not None:
            module.name = name
        self._verify(module)
        self._after("lower", {"module": module})

        pass_stats = None
        if self.opt_level >= 1:
            self._before("optimize", module)
            if self.unit_mode:
                # The linker's historical sequencing: optimize without
                # the pipeline-internal strict verify, then verify in
                # unresolved-tolerant mode.
                pass_stats = optimize_module(module, verify=False)
                self._verify(module)
            else:
                pass_stats = optimize_module(module, verify=self.verify)
            self._after("optimize", {"pass_stats": pass_stats})

        check_opt_stats = None
        if config is not None:
            self._before("instrument", module)
            from ..softbound.transform import SoftBoundTransform

            SoftBoundTransform(config).run(module)
            self._verify(module)
            self._after("instrument", {"module": module})

            if config.optimize_checks:
                self._before("post-optimize", module)
                if self.unit_mode:
                    check_opt_stats = optimize_after_instrumentation(
                        module, verify=False, config=config,
                        prove=self.prove_config)
                    self._verify(module)
                else:
                    check_opt_stats = optimize_after_instrumentation(
                        module, verify=self.verify, config=config,
                        prove=self.prove_config)
                self._after("post-optimize",
                            {"check_opt_stats": check_opt_stats})

        prove_certificates = getattr(module, "prove_certificates", None)
        if self.unit_mode:
            module.check_opt_stats = check_opt_stats
            return module
        return CompiledProgram(module=module, softbound_config=config,
                               pass_stats=pass_stats,
                               check_opt_stats=check_opt_stats,
                               prove_certificates=prove_certificates)


def compile_source(source, profile=None, optimize=True, verify=True,
                   observers=()):
    """One-shot compile through a fresh :class:`Toolchain`."""
    return Toolchain(profile=profile, optimize=optimize, verify=verify,
                     observers=observers).compile(source)


def compile_sources(sources, profile=None, optimize=True, verify=True):
    """Compile translation units separately and link them.

    ``sources`` is an iterable of C source strings — or of
    ``(source, profile)`` pairs for mixed links (e.g. an untransformed
    library against a transformed main, the paper's Section 3.3 story).
    The link-time runtime configuration is the first non-None unit
    config, unless an explicit overall ``profile`` provides one.
    """
    from ..harness.linker import link_modules

    units = []
    unit_profiles = []
    for index, item in enumerate(sources):
        if isinstance(item, tuple):
            source, unit_profile = item
            unit_profile = as_profile(unit_profile)
        else:
            source, unit_profile = item, as_profile(profile)
        unit_profiles.append(unit_profile)
        toolchain = Toolchain(profile=unit_profile, optimize=optimize,
                              verify=verify, unit_mode=True)
        units.append(toolchain.compile(source, name=f"tu{index}"))
    overall = as_profile(profile)
    runtime_config = overall.config
    if runtime_config is None:
        runtime_config = next(
            (p.config for p in unit_profiles if p.config is not None), None)
    return link_modules(units, softbound=runtime_config)
