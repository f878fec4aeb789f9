"""Natural-loop analysis and loop-shape CFG utilities.

Built on the dominator information of :class:`repro.ir.cfg.CFG`: a back
edge is an edge ``latch -> header`` whose target dominates its source;
the natural loop of that edge is the header plus every block that can
reach the latch without passing through the header.  Loops sharing a
header are merged (the classic definition), and the resulting loops are
arranged into a forest by block-set containment.

The loop-aware check optimizer (:mod:`repro.opt.checkwiden`)
consumes this analysis and the two structural utilities here:

* :func:`ensure_preheader` — guarantee a dedicated out-of-loop block
  whose only successor is the header, the landing pad for the widened
  guard.  A single entering critical edge is handled with the generic
  :func:`repro.ir.cfg.split_edge`; multiple entering edges are
  redirected through one fresh block (:func:`make_preheader`).

Both utilities mutate the function; any CFG/Loop objects computed
before the mutation are stale afterwards and must be rebuilt.
"""

from . import instructions as ins
from .cfg import (CFG, insert_block, redirect_terminator, split_edge,
                  unique_label)


class Loop:
    """One natural loop: header label, member labels, nesting links."""

    def __init__(self, header, blocks):
        self.header = header          # label
        self.blocks = set(blocks)     # labels, header included
        self.latches = []             # labels of back-edge sources
        self.parent = None            # enclosing Loop or None
        self.children = []            # immediately nested Loops
        self.depth = 1                # 1 = outermost

    @property
    def is_innermost(self):
        return not self.children

    def exit_edges(self, cfg):
        """``(from_label, to_label)`` pairs leaving the loop."""
        edges = []
        for label in self.blocks:
            for succ in cfg.succs.get(label, []):
                if succ.label not in self.blocks:
                    edges.append((label, succ.label))
        return edges

    def exiting_blocks(self, cfg):
        return sorted({src for src, _ in self.exit_edges(cfg)})

    def entering_preds(self, cfg):
        """Predecessor blocks of the header that sit outside the loop."""
        return [p for p in cfg.preds.get(self.header, [])
                if p.label not in self.blocks]

    def instructions(self, func):
        for label in self.blocks:
            yield from func.block_map[label].instructions

    def __repr__(self):
        return (f"<Loop header={self.header} blocks={len(self.blocks)} "
                f"depth={self.depth}>")


def find_loops(cfg):
    """All natural loops of ``cfg`` as a list sorted outermost-first
    (by depth, then header label for determinism), with parent/children
    links populated."""
    back_edges = []
    for block in cfg.rpo:
        for succ in cfg.succs[block.label]:
            if cfg.dominates(succ.label, block.label):
                back_edges.append((block.label, succ.label))
    by_header = {}
    for latch, header in back_edges:
        loop = by_header.setdefault(header, Loop(header, {header}))
        loop.latches.append(latch)
        # Walk backwards from the latch, stopping at the header.
        stack = [latch]
        while stack:
            label = stack.pop()
            if label in loop.blocks:
                continue
            loop.blocks.add(label)
            stack.extend(p.label for p in cfg.preds.get(label, []))
    loops = sorted(by_header.values(), key=lambda l: (len(l.blocks), l.header))
    # Containment nesting: the smallest strict superset is the parent.
    for i, loop in enumerate(loops):
        for candidate in loops[i + 1:]:
            if loop.header in candidate.blocks and loop is not candidate:
                loop.parent = candidate
                candidate.children.append(loop)
                break
    for loop in loops:
        depth = 1
        cursor = loop.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        loop.depth = depth
    loops.sort(key=lambda l: (l.depth, l.header))
    return loops


def innermost_loops(cfg):
    return [loop for loop in find_loops(cfg) if loop.is_innermost]


def make_preheader(func, cfg, loop, label_hint=None):
    """Create a fresh preheader for ``loop``: a new block ending in
    ``br header`` that every entering edge (including the implicit
    function-entry edge when the header is the entry block) is
    redirected through.  Returns the new block.

    The caller's ``cfg``/``loop`` objects are stale after this call.
    """
    from .module import BasicBlock

    header = loop.header
    label = unique_label(func, label_hint or f"{header}.ph")
    pre = BasicBlock(label)
    pre.append(ins.Br(label=header))
    for pred in loop.entering_preds(cfg):
        redirect_terminator(pred, header, label)
    return insert_block(func, pre, header)


def ensure_preheader(func, cfg, loop):
    """Return the loop's preheader, creating one if needed.

    An existing block qualifies when it is the *only* entering
    predecessor, ends in an unconditional branch to the header, and the
    header is not the function entry (the entry's implicit edge cannot
    be redirected into an existing block).  A single entering *critical*
    edge (conditional predecessor) is split in place; multiple entering
    edges get a fresh block they are all redirected through.
    """
    entering = loop.entering_preds(cfg)
    header_is_entry = func.entry.label == loop.header
    if len(entering) == 1 and not header_is_entry:
        pred = entering[0]
        term = pred.terminator
        if term is not None and term.opcode == "br" and term.label == loop.header:
            return pred
        return split_edge(func, pred, loop.header,
                          label_hint=f"{loop.header}.ph")
    return make_preheader(func, cfg, loop)
