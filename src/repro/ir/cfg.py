"""Control-flow graph and dominator analysis over the register IR.

Built on demand by optimization passes (notably the dominance-based
redundant-check elimination, which generalizes what the paper obtains by
re-running LLVM's pipeline over instrumented code, Section 6.1).

Dominators are computed with the Cooper–Harvey–Kennedy iterative
algorithm over a reverse-postorder numbering — simple, and linear in
practice on the small CFGs the C-subset frontend produces.
"""


class CFG:
    """Successor/predecessor maps plus orderings for one function.

    Only blocks reachable from the entry are included: unreachable
    blocks have no dominator semantics (and the lowerer occasionally
    leaves an unreachable landing block behind).
    """

    def __init__(self, func):
        self.func = func
        self.entry = func.blocks[0]
        self.succs = {}
        self.preds = {}
        self._build()
        self.rpo = self._reverse_postorder()
        self.rpo_index = {block.label: i for i, block in enumerate(self.rpo)}
        self.idom = self._dominators()

    # -- construction --------------------------------------------------------

    def _block(self, label):
        return self.func.block_map[label]

    def _successor_labels(self, block):
        term = block.terminator
        if term is None:
            return []
        if term.opcode == "br":
            return [term.label]
        if term.opcode == "cbr":
            if term.true_label == term.false_label:
                return [term.true_label]
            return [term.true_label, term.false_label]
        return []  # ret / unreachable

    def _build(self):
        worklist = [self.entry]
        seen = {self.entry.label}
        while worklist:
            block = worklist.pop()
            succs = [self._block(label) for label in self._successor_labels(block)]
            self.succs[block.label] = succs
            self.preds.setdefault(block.label, [])
            for succ in succs:
                self.preds.setdefault(succ.label, []).append(block)
                if succ.label not in seen:
                    seen.add(succ.label)
                    worklist.append(succ)

    def _reverse_postorder(self):
        order = []
        visited = set()

        def visit(block):
            visited.add(block.label)
            for succ in self.succs[block.label]:
                if succ.label not in visited:
                    visit(succ)
            order.append(block)

        visit(self.entry)
        order.reverse()
        return order

    # -- dominators ------------------------------------------------------------

    def _dominators(self):
        """Immediate dominators (Cooper–Harvey–Kennedy).  The entry's
        idom is itself."""
        idom = {self.entry.label: self.entry}
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                processed = [p for p in self.preds[block.label] if p.label in idom]
                if not processed:
                    continue
                new_idom = processed[0]
                for pred in processed[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom.get(block.label) is not new_idom:
                    idom[block.label] = new_idom
                    changed = True
        return idom

    def _intersect(self, a, b, idom):
        while a is not b:
            while self.rpo_index[a.label] > self.rpo_index[b.label]:
                a = idom[a.label]
            while self.rpo_index[b.label] > self.rpo_index[a.label]:
                b = idom[b.label]
        return a

    # -- queries ------------------------------------------------------------

    def dominates(self, a_label, b_label):
        """True when block ``a`` dominates block ``b`` (reflexive)."""
        if a_label == b_label:
            return True
        return any(block.label == a_label for block in self.dominator_chain(b_label))

    def dominator_chain(self, label):
        """Blocks strictly dominating ``label``, nearest first."""
        chain = []
        current = label
        while True:
            parent = self.idom.get(current)
            if parent is None or parent.label == current:
                break
            chain.append(parent)
            current = parent.label
        return chain

    def dominator_tree_children(self):
        """Map label -> children blocks in the dominator tree."""
        children = {block.label: [] for block in self.rpo}
        for block in self.rpo:
            if block is self.entry:
                continue
            parent = self.idom.get(block.label)
            if parent is not None:
                children[parent.label].append(block)
        return children


# -- structural edge utilities ----------------------------------------------
#
# Used by loop-shape transformations (repro.ir.loops): they mutate the
# function, so any CFG built beforehand is stale afterwards.


def redirect_terminator(block, old_label, new_label):
    """Rewrite every occurrence of ``old_label`` in ``block``'s
    terminator to ``new_label``.  Returns the number of labels changed."""
    term = block.terminator
    if term is None:
        return 0
    changed = 0
    if term.opcode == "br" and term.label == old_label:
        term.label = new_label
        changed += 1
    elif term.opcode == "cbr":
        if term.true_label == old_label:
            term.true_label = new_label
            changed += 1
        if term.false_label == old_label:
            term.false_label = new_label
            changed += 1
    if changed:
        block.invalidate_compiled()
    return changed


def unique_label(func, base):
    """``base``, suffixed until it collides with no existing block."""
    label = base
    while label in func.block_map:
        label += "_"
    return label


def insert_block(func, block, before_label):
    """Register ``block`` in the function, placed just before
    ``before_label`` in layout order (so a block inserted before the
    entry becomes the new entry)."""
    index = next(i for i, b in enumerate(func.blocks)
                 if b.label == before_label)
    func.blocks.insert(index, block)
    func.block_map[block.label] = block
    return block


def split_edge(func, pred_block, succ_label, label_hint=None):
    """Split the CFG edge ``pred_block -> succ_label``: insert a fresh
    block containing only ``br succ_label`` and point the predecessor's
    terminator at it.  Returns the new block."""
    from . import instructions as ins
    from .module import BasicBlock

    label = unique_label(
        func, label_hint or f"{pred_block.label}.{succ_label}.split")
    split = BasicBlock(label)
    split.append(ins.Br(label=succ_label))
    if not redirect_terminator(pred_block, succ_label, label):
        raise ValueError(
            f"no edge {pred_block.label} -> {succ_label} to split")
    return insert_block(func, split, succ_label)
