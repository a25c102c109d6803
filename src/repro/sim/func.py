"""Functional simulation: architectural execution of an executable.

Executes the program to completion, producing the architectural result
(the program checksum returned by ``main``) and, optionally, the dynamic
instruction trace consumed by the timing model.  A trace entry is a
``(pc, effective_address)`` pair (-1 when the instruction touches no
memory); control-flow outcomes are implied by the pc sequence.  The
trace is recorded as two int lists and returned as a
:class:`~repro.sim.tracepack.PackedTrace`, never as per-instruction
tuples.

The interpreter shares its operator semantics with the constant folder
through :mod:`repro.ir.semantics`, so optimizing and non-optimizing
builds of a program are architecturally indistinguishable by
construction -- the property the semantics-preservation test suite
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.codegen.isa import OpClass, RA, RV, SP, ZERO
from repro.codegen.linker import Executable
from repro.ir.semantics import eval_int_binop, wrap_int
from repro.sim.tracepack import PackedTrace

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


class SimulationError(Exception):
    """The program misbehaved (ran too long, bad pc, ...)."""


@dataclass
class FunctionalResult:
    """Outcome of a functional run."""

    #: Value returned by main (the program checksum).
    return_value: int
    #: Dynamic instruction count.
    instruction_count: int
    #: Optional (pc, effective_address) trace.
    trace: Optional[PackedTrace]


def execute(
    exe: Executable,
    collect_trace: bool = True,
    max_instructions: int = 50_000_000,
) -> FunctionalResult:
    """Run the program to completion."""
    iregs = [0] * 32
    fregs = [0.0] * 32
    iregs[SP] = exe.stack_base
    mem: Dict[int, object] = {}
    for sym in exe.symbols.values():
        if sym.init:
            for i, value in enumerate(sym.init):
                mem[sym.address + 8 * i] = value

    instrs = exe.instrs
    n_instrs = len(instrs)
    trace_pcs: List[int] = []
    trace_eas: List[int] = []
    pc_append = trace_pcs.append
    ea_append = trace_eas.append
    pc = exe.entry_pc
    count = 0
    mem_get = mem.get

    while True:
        if count >= max_instructions:
            raise SimulationError(
                f"exceeded {max_instructions} instructions (infinite loop?)"
            )
        if pc < 0 or pc >= n_instrs:
            raise SimulationError(f"pc {pc} out of range")
        instr = instrs[pc]
        op = instr.op
        count += 1
        ea = -1
        next_pc = pc + 1

        if op == "addi":
            v = iregs[instr.srcs[0]] + instr.imm
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "add":
            v = iregs[instr.srcs[0]] + iregs[instr.srcs[1]]
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "ld":
            ea = iregs[instr.srcs[0]] + instr.imm
            v = mem_get(ea, 0)
            iregs[instr.dst] = v if isinstance(v, int) else wrap_int(int(v))
        elif op == "st":
            ea = iregs[instr.srcs[0]] + instr.imm
            mem[ea] = iregs[instr.srcs[1]]
        elif op == "mov":
            iregs[instr.dst] = iregs[instr.srcs[0]]
        elif op == "li":
            iregs[instr.dst] = instr.imm
        elif op == "la":
            iregs[instr.dst] = instr.imm
        elif op == "bnez":
            if iregs[instr.srcs[0]] != 0:
                next_pc = instr.target_pc
        elif op == "beqz":
            if iregs[instr.srcs[0]] == 0:
                next_pc = instr.target_pc
        elif op == "j":
            next_pc = instr.target_pc
        elif op == "sub":
            v = iregs[instr.srcs[0]] - iregs[instr.srcs[1]]
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "mul":
            iregs[instr.dst] = wrap_int(
                iregs[instr.srcs[0]] * iregs[instr.srcs[1]]
            )
        elif op in ("div", "mod"):
            iregs[instr.dst] = eval_int_binop(
                op, iregs[instr.srcs[0]], iregs[instr.srcs[1]]
            )
        elif op == "and":
            iregs[instr.dst] = iregs[instr.srcs[0]] & iregs[instr.srcs[1]]
        elif op == "or":
            iregs[instr.dst] = iregs[instr.srcs[0]] | iregs[instr.srcs[1]]
        elif op == "xor":
            iregs[instr.dst] = iregs[instr.srcs[0]] ^ iregs[instr.srcs[1]]
        elif op == "shl":
            iregs[instr.dst] = wrap_int(
                iregs[instr.srcs[0]] << (iregs[instr.srcs[1]] & 63)
            )
        elif op == "shr":
            iregs[instr.dst] = iregs[instr.srcs[0]] >> (
                iregs[instr.srcs[1]] & 63
            )
        elif op == "neg":
            iregs[instr.dst] = wrap_int(-iregs[instr.srcs[0]])
        elif op == "not":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] == 0 else 0
        elif op == "cmpeq":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] == iregs[instr.srcs[1]] else 0
        elif op == "cmpne":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] != iregs[instr.srcs[1]] else 0
        elif op == "cmplt":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] < iregs[instr.srcs[1]] else 0
        elif op == "cmple":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] <= iregs[instr.srcs[1]] else 0
        elif op == "cmpgt":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] > iregs[instr.srcs[1]] else 0
        elif op == "cmpge":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] >= iregs[instr.srcs[1]] else 0
        elif op == "fld":
            ea = iregs[instr.srcs[0]] + instr.imm
            v = mem_get(ea, 0.0)
            fregs[instr.dst - 32] = v if isinstance(v, float) else float(v)
        elif op == "fst":
            ea = iregs[instr.srcs[0]] + instr.imm
            mem[ea] = fregs[instr.srcs[1] - 32]
        elif op == "fmov":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32]
        elif op == "lif":
            fregs[instr.dst - 32] = instr.imm
        elif op == "fadd":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] + fregs[instr.srcs[1] - 32]
        elif op == "fsub":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] - fregs[instr.srcs[1] - 32]
        elif op == "fmul":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] * fregs[instr.srcs[1] - 32]
        elif op == "fdiv":
            b = fregs[instr.srcs[1] - 32]
            fregs[instr.dst - 32] = (
                fregs[instr.srcs[0] - 32] / b if b != 0.0 else 0.0
            )
        elif op == "fneg":
            fregs[instr.dst - 32] = -fregs[instr.srcs[0] - 32]
        elif op == "itof":
            fregs[instr.dst - 32] = float(iregs[instr.srcs[0]])
        elif op == "ftoi":
            iregs[instr.dst] = wrap_int(int(fregs[instr.srcs[0] - 32]))
        elif op == "fcmpeq":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] == fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpne":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] != fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmplt":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] < fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmple":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] <= fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpgt":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] > fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpge":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] >= fregs[instr.srcs[1] - 32] else 0
        elif op == "jal":
            iregs[RA] = pc + 1
            next_pc = instr.target_pc
        elif op == "jr":
            next_pc = iregs[RA]
        elif op == "pf":
            ea = iregs[instr.srcs[0]] + instr.imm
        elif op == "nop":
            pass
        elif op == "halt":
            pc_append(pc)
            ea_append(-1)
            return FunctionalResult(
                return_value=iregs[RV],
                instruction_count=count,
                trace=PackedTrace.from_lists(trace_pcs, trace_eas)
                if collect_trace
                else None,
            )
        else:
            raise SimulationError(f"unknown opcode {op!r} at pc {pc}")

        iregs[ZERO] = 0  # r0 stays hardwired
        if collect_trace:
            pc_append(pc)
            ea_append(ea)
        pc = next_pc
