"""The fill unit: packs decoded bytecode into DB-cache lines.

Paper section 3.3.3: "The fill unit collects the decoded bytecode and
fills the cache lines according to data dependencies and control logic.
All instructions in the same line are combined together and can be issued
in the same cycle."

Line-termination rules implemented here (sections 3.3.3–3.3.4):

* **Functional-unit fields** — each line has one fixed-length field per
  functional unit, so a second instruction needing an occupied unit ends
  the line.
* **RAW dependencies** — a within-line RAW normally ends the line; one RAW
  between two *reconfigurable* (half-cycle) units can be hidden by data
  forwarding (the F field), at most once per line. Instruction folding
  eliminates PUSH→consumer RAWs before they count.
* **WAR/WAW** — eliminated by the R/W stack sequence numbers, never
  terminate a line.
* **Control flow** — a branch is included and ends its line (the successor
  address is recorded at the end of the line); JUMPDESTs start new lines
  so jump targets are line-addressable; frame terminators end the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...evm import opcodes
from ...obs import get_registry
from ...evm.opcodes import (
    FORWARD_CONSUMER_CATEGORIES,
    RECONFIGURABLE_CATEGORIES,
    Category,
)
from .folding import FoldedOp, try_fold

#: Hard cap on issued (post-folding) ops per line: one per functional unit
#: would allow 11; real fill units bound line length lower.
MAX_SLOTS_PER_LINE = 8

#: Marker for stack values that predate the line (no within-line RAW).
_EXTERNAL = -1


@dataclass(frozen=True)
class LineSlot:
    """One issued (possibly folded) operation within a line."""

    op: FoldedOp
    forwarded_from: int | None = None  # F field: producer slot index


@dataclass
class DBCacheLine:
    """One decoded-bytecode cache line."""

    code_address: int
    start_pc: int
    slots: list[LineSlot]
    next_pc: int  # fall-through successor (recorded at line end)
    gas_static: int = 0  # G field
    reads: int = 0  # R field: stack words consumed at issue
    writes: int = 0  # W field: stack words produced at issue

    @property
    def pcs(self) -> tuple[int, ...]:
        """All original instruction pcs covered, in execution order."""
        result: list[int] = []
        for slot in self.slots:
            result.extend(slot.op.pcs)
        return tuple(result)

    @property
    def orig_count(self) -> int:
        """Original instructions represented (folded PUSHes included)."""
        return sum(slot.op.orig_count for slot in self.slots)

    @property
    def issued_count(self) -> int:
        """Post-folding operations issued in parallel."""
        return len(self.slots)

    @property
    def used_forward(self) -> bool:
        return any(slot.forwarded_from is not None for slot in self.slots)

    @property
    def cacheable(self) -> bool:
        """Lines holding a single instruction are not cached (section
        3.4.1: fetching one instruction from the DB cache is inefficient;
        such lines are only recorded for hotspot path tracking)."""
        return self.orig_count >= 2

    @property
    def ends_with_branch(self) -> bool:
        last = self.slots[-1].op.primary.op
        return opcodes.is_branch(last) or last.is_terminator


#: Issued ops a line may hold per functional unit. Stack and memory units
#: are dual-ported (two fixed-length fields each) — without this, the ISA's
#: 62% stack share (paper Table 6) would cap lines at ~2 instructions,
#: far below the ~3.8 original-instructions-per-line Table 7 implies.
DEFAULT_UNIT_CAPACITY: dict[Category, int] = {
    Category.STACK: 3,
    Category.MEMORY: 2,
    Category.ARITHMETIC: 2,
    Category.LOGIC: 2,
}


@dataclass
class FillConfig:
    """Ablation switches for the fill unit (paper Fig. 12)."""

    folding: bool = True  # IF: instruction folding
    forwarding: bool = True  # DF: data forwarding
    max_slots: int = MAX_SLOTS_PER_LINE
    unit_capacity: dict[Category, int] = field(
        default_factory=lambda: dict(DEFAULT_UNIT_CAPACITY)
    )

    def capacity(self, category: Category) -> int:
        return self.unit_capacity.get(category, 1)


def _stack_reads(op: FoldedOp) -> list[int]:
    """Depths (0 = top) this op reads from the pre-op stack."""
    name = op.primary.op.name
    if opcodes.is_dup(op.primary.op):
        n = op.primary.op.value - 0x80 + 1
        return [n - 1]
    if opcodes.is_swap(op.primary.op):
        n = op.primary.op.value - 0x90 + 1
        return [0, n]
    return list(range(op.stack_inputs))


def _stack_delta(op: FoldedOp) -> tuple[int, int]:
    """(pops, pushes) against the simulated stack for this op."""
    primary = op.primary.op
    if opcodes.is_dup(primary):
        return (0, 1)
    if opcodes.is_swap(primary):
        return (0, 0)  # handled specially (positions swap in place)
    return (op.stack_inputs, primary.pushes)


def build_line(
    code_address: int,
    decoded,
    start_pc: int,
    config: FillConfig | None = None,
) -> DBCacheLine | None:
    """Build one line starting at *start_pc*; None if pc is undecodable.

    *decoded* is what the PU packs from: the code's
    :class:`~repro.evm.decoded.DecodedProgram`, or the hotspot
    optimizer's view of it — anything with ``instructions`` and
    ``index_of_pc``.
    """
    config = config or FillConfig()
    instructions = decoded.instructions
    start_index = decoded.index_of_pc.get(start_pc)
    if start_index is None:
        return None

    slots: list[LineSlot] = []
    used_units: dict[Category, int] = {}
    forward_used = False
    gas_static = 0
    reads = 0
    writes = 0
    # Simulated top-of-stack segment: producer slot index or _EXTERNAL.
    sim: list[int] = []
    external_reads = 0

    index = start_index
    pos_pc = start_pc
    while index < len(instructions) and len(slots) < config.max_slots:
        op, next_index = try_fold(instructions, index, config.folding)
        primary = op.primary.op

        # JUMPDESTs begin new lines (jump targets must be line heads) —
        # unless this one *is* the head.
        if primary.name == "JUMPDEST" and slots:
            break

        category = primary.category
        if used_units.get(category, 0) >= config.capacity(category):
            break

        # Dependency analysis against within-line producers.
        read_depths = _stack_reads(op)
        producer_slots = []
        for depth in read_depths:
            if depth < len(sim):
                producer = sim[len(sim) - 1 - depth]
                if producer != _EXTERNAL:
                    producer_slots.append(producer)
        forwarded_from: int | None = None
        if producer_slots:
            producer_index = producer_slots[0]
            producer_category = (
                slots[producer_index].op.primary.op.category
            )
            can_forward = (
                config.forwarding
                and not forward_used
                and len(producer_slots) == 1
                and producer_category in RECONFIGURABLE_CATEGORIES
                and category in FORWARD_CONSUMER_CATEGORIES
            )
            if can_forward:
                forward_used = True
                forwarded_from = producer_index
            else:
                break

        # Accept the op into the line.
        slot_index = len(slots)
        slots.append(LineSlot(op=op, forwarded_from=forwarded_from))
        used_units[category] = used_units.get(category, 0) + 1
        gas_static += op.static_gas

        # Update the simulated stack.
        if opcodes.is_dup(primary):
            # The duplicate is produced by this DUP slot.
            sim.append(slot_index)
        elif opcodes.is_swap(primary):
            n = primary.value - 0x90 + 1
            while len(sim) < n + 1:
                sim.insert(0, _EXTERNAL)
                external_reads += 1
            sim[-1], sim[-1 - n] = sim[-1 - n], sim[-1]
        else:
            pops, pushes = _stack_delta(op)
            for _ in range(pops):
                if sim:
                    sim.pop()
                else:
                    external_reads += 1
            for _ in range(pushes):
                sim.append(slot_index)

        index = next_index
        pos_pc = op.end_pc

        if (
            opcodes.is_branch(primary)
            or primary.is_terminator
            or primary.category is Category.CONTEXT
        ):
            # Control leaves the straight-line window: branches take the
            # pipeline elsewhere, terminators end the frame, and
            # context-switching ops hand execution to the callee.
            break

    if not slots:
        return None

    reads = external_reads
    writes = len(sim)
    line = DBCacheLine(
        code_address=code_address,
        start_pc=start_pc,
        slots=slots,
        next_pc=pos_pc,
        gas_static=gas_static,
        reads=reads,
        writes=writes,
    )
    registry = get_registry()
    if registry.enabled:
        registry.counter("fill.lines_built").inc()
        registry.counter("fill.instructions_packed").inc(line.orig_count)
        folded = line.orig_count - line.issued_count
        if folded:
            registry.counter("fill.folded_instructions").inc(folded)
        if forward_used:
            registry.counter("fill.forwards").inc()
        registry.histogram("fill.line_length").observe(line.orig_count)
    return line
