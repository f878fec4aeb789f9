"""IR containers: basic blocks, functions, globals and modules."""

from dataclasses import dataclass, field

from .irtypes import IRType, PTR, VOID
from .values import Register


@dataclass
class BasicBlock:
    label: str
    instructions: list = field(default_factory=list)
    #: Compiled-code cache stamp.  The closure-compiling engine
    #: (:mod:`repro.vm.engine`) caches a per-block template keyed by this
    #: value; every pass that rewrites ``instructions`` must bump it (the
    #: optimizer pipeline and the SoftBound transform call
    #: :func:`invalidate_compiled`).
    version: int = 0

    @property
    def terminator(self):
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def append(self, instruction):
        self.instructions.append(instruction)

    def invalidate_compiled(self):
        self.version += 1


@dataclass
class Param:
    """A formal parameter: its register plus its C type (SoftBound needs
    to know which parameters are pointers to append base/bound args)."""

    register: Register
    ctype: object
    name: str = ""


class Function:
    """An IR function: ordered basic blocks plus a register pool."""

    def __init__(self, name, return_irtype=VOID, return_ctype=None, varargs=False):
        self.name = name
        self.return_type = return_irtype
        self.return_ctype = return_ctype
        self.varargs = varargs
        self.params = []  # list of Param
        self.blocks = []  # ordered; blocks[0] is the entry
        self.block_map = {}
        self._next_reg = 0
        # Filled by the SoftBound transform:
        self.sb_transformed = False
        self.sb_extra_params = []  # base/bound companion Params

    def __getstate__(self):
        # Running a program memoizes an engine template and a frame
        # layout on each function; they are per-process closures, so a
        # pickle leaves them out and stays the same before and after a
        # run.
        state = dict(self.__dict__)
        state.pop("_engine_template", None)
        state.pop("_frame_layout", None)
        return state

    def new_reg(self, irtype, hint=""):
        reg = Register(self._next_reg, irtype, hint)
        self._next_reg += 1
        return reg

    def new_block(self, label_hint="bb"):
        label = f"{label_hint}{len(self.blocks)}"
        while label in self.block_map:
            label += "_"
        block = BasicBlock(label)
        self.blocks.append(block)
        self.block_map[label] = block
        return block

    def block(self, label):
        return self.block_map[label]

    @property
    def entry(self):
        return self.blocks[0]

    def instructions(self):
        """Iterate over all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self):
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


@dataclass
class GlobalVar:
    """A global variable image.

    ``data`` is the initialized byte image (zero-filled when there is no
    initializer).  ``relocs`` is a list of ``(offset, symbol, addend)``
    triples: at load time the VM writes the resolved address of
    ``symbol + addend`` at ``offset``.  ``pointer_fields`` lists
    ``(offset, target_symbol, addend)`` for pointer-typed initialized
    fields — SoftBound's global initialization hook (paper Section 5.2)
    consumes this to seed the in-memory metadata table.
    """

    name: str
    ctype: object
    data: bytes = b""
    relocs: list = field(default_factory=list)
    align: int = 8
    is_string_literal: bool = False

    @property
    def size(self):
        return len(self.data)


def invalidate_compiled(module):
    """Bump every block's compiled-code stamp after a pass pipeline has
    rewritten instruction lists.  This invalidates the machine-
    independent templates cached on functions (consulted when an engine
    compiles a function); an engine that already specialized a function
    must additionally call its own ``invalidate()`` — in practice all IR
    rewriting happens before any machine executes."""
    for func in module.functions.values():
        for block in func.blocks:
            block.invalidate_compiled()


class Module:
    """A translation unit in IR form."""

    def __init__(self, name="module"):
        self.name = name
        self.functions = {}
        self.globals = {}  # name -> GlobalVar
        self._string_count = 0

    def add_function(self, function):
        self.functions[function.name] = function
        return function

    def add_global(self, gvar):
        self.globals[gvar.name] = gvar
        return gvar

    def intern_string(self, data):
        """Intern a string literal as a read-only global; returns its name."""
        for name, gvar in self.globals.items():
            if gvar.is_string_literal and gvar.data == data + b"\x00":
                return name
        name = f".str{self._string_count}"
        self._string_count += 1
        self.add_global(GlobalVar(name=name, ctype=None, data=data + b"\x00", align=1, is_string_literal=True))
        return name

    def function(self, name):
        return self.functions[name]

    def __repr__(self):
        return f"<Module {self.name}: {len(self.functions)} functions, {len(self.globals)} globals>"
