"""Branch prediction: combined bimodal + 2-level predictor, BTB, RAS.

The paper's ``bpred_size`` parameter sets "the size of the predictor
tables in a combined branch predictor consisting of a bimodal predictor
and a 2-level predictor of equal sizes"; the chooser table has the same
number of entries.  The 2-level component is gshare-style: a global
history register XORed into the pc.  Targets come from a direct-mapped
BTB of fixed size, and returns from a 16-deep return-address stack.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

#: Outcome flags of one predicted control transfer.
MISPREDICT = 1  # fetch is redirected when the transfer resolves
WRONG_DIRECTION = 2  # the direction predictor was wrong (statistics only)


class CombinedPredictor:
    """Bimodal + gshare with a chooser, all tables of ``size`` entries."""

    def __init__(self, size: int):
        if size & (size - 1):
            raise ValueError("predictor size must be a power of two")
        self.size = size
        self._mask = size - 1
        self._bimodal = [2] * size  # weakly taken
        self._gshare = [2] * size
        self._chooser = [2] * size  # prefer bimodal initially
        self._history = 0
        self._history_bits = max(1, size.bit_length() - 1)
        self._history_mask = (1 << self._history_bits) - 1
        self.lookups = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> bool:
        """Predicted direction for the conditional branch at ``pc``."""
        if self._chooser[pc & self._mask] >= 2:
            return self._bimodal[pc & self._mask] >= 2
        return self._gshare[(pc ^ self._history) & self._mask] >= 2

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train, and record statistics; returns the prediction."""
        flags = self.predict_stream(BranchTargetBuffer(1), (0,), (pc,), (taken,), (pc,))
        wrong = bool(flags[0] & WRONG_DIRECTION)
        self.lookups += 1
        self.mispredictions += wrong
        return taken != wrong

    def predict_stream(
        self,
        btb: "BranchTargetBuffer",
        positions: Sequence[int],
        pcs: Sequence[int],
        taken: Sequence[bool],
        next_pc: Sequence[int],
    ) -> bytearray:
        """Predict and train on the conditional branches at ``positions``.

        Returns one byte of ``MISPREDICT | WRONG_DIRECTION`` flags per
        branch.  A taken branch also needs the BTB to hold its target,
        and trains it.  This is :meth:`predict_and_update` plus the BTB
        over a whole stream, without the statistics (the timing loop
        counts those for the windows it times).
        """
        bim_tab = self._bimodal
        gsh_tab = self._gshare
        cho_tab = self._chooser
        mask = self._mask
        history = self._history
        h_mask = self._history_mask
        btb_tags = btb._tags
        btb_targets = btb._targets
        btb_mask = btb._mask
        flags = bytearray(len(positions))
        for k, i in enumerate(positions):
            pc = pcs[i]
            pcm = pc & mask
            gsh = (pc ^ history) & mask
            b = bim_tab[pcm]
            g = gsh_tab[gsh]
            bim_p = b >= 2
            gsh_p = g >= 2
            pred = bim_p if cho_tab[pcm] >= 2 else gsh_p
            t = taken[i]
            # The chooser trains toward whichever component was right.
            if bim_p != gsh_p:
                c = cho_tab[pcm]
                if bim_p == t:
                    cho_tab[pcm] = c + 1 if c < 3 else 3
                else:
                    cho_tab[pcm] = c - 1 if c > 0 else 0
            if t:
                bim_tab[pcm] = b + 1 if b < 3 else 3
                gsh_tab[gsh] = g + 1 if g < 3 else 3
                history = ((history << 1) | 1) & h_mask
                target = next_pc[i]
                bi = pc & btb_mask
                if not pred:
                    flags[k] = MISPREDICT | WRONG_DIRECTION
                elif btb_tags[bi] != pc or btb_targets[bi] != target:
                    flags[k] = MISPREDICT
                btb_tags[bi] = pc
                btb_targets[bi] = target
            else:
                bim_tab[pcm] = b - 1 if b > 0 else 0
                gsh_tab[gsh] = g - 1 if g > 0 else 0
                history = (history << 1) & h_mask
                if pred:
                    flags[k] = MISPREDICT | WRONG_DIRECTION
        self._history = history
        return flags

    def misprediction_rate(self) -> float:
        return self.mispredictions / self.lookups if self.lookups else 0.0


class BranchTargetBuffer:
    """Direct-mapped BTB: pc -> last observed target."""

    def __init__(self, entries: int):
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        self._mask = entries - 1
        self._tags: List[int] = [-1] * entries
        self._targets: List[int] = [0] * entries

    def predict(self, pc: int) -> Optional[int]:
        idx = pc & self._mask
        if self._tags[idx] == pc:
            return self._targets[idx]
        return None

    def update(self, pc: int, target: int) -> None:
        idx = pc & self._mask
        self._tags[idx] = pc
        self._targets[idx] = target


class ReturnAddressStack:
    """A small RAS for predicting ``jr`` targets."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        self._stack.append(return_pc)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        if self._stack:
            return self._stack.pop()
        return None

    def predict_stream(
        self,
        positions: Sequence[int],
        is_call: Sequence[bool],
        pcs: Sequence[int],
        next_pc: Sequence[int],
    ) -> bytearray:
        """Push at the calls and pop at the returns among ``positions``.

        Returns one byte per position: ``MISPREDICT`` where a return's
        predicted target is not the pc that follows it.
        """
        flags = bytearray(len(positions))
        for k, i in enumerate(positions):
            if is_call[k]:
                self.push(pcs[i] + 1)
            elif self.pop() != next_pc[i]:
                flags[k] = MISPREDICT
        return flags
