"""Tracing and replaying the RSA-CRT victim's multiplication sequence.

The explorer needs to address every multiplication the victim issues —
"operation 173 of the signature" — and to re-run the signature with
exactly one of those operations corrupted.  Both needs are met by ALUs
that share :class:`~repro.faults.alu.BigIntALU`'s ``modmul``/``modexp``
with the attack-path :class:`~repro.faults.alu.FaultableALU`, so the
traced operation indices address the fault-injecting ALU's
multiplications one for one:

* :class:`TracingALU` executes the signature exactly and records every
  ``bigmul`` — operands, exact product, and the modulus the product is
  reduced by immediately afterwards (``None`` for the final Garner
  recombination multiply, which is consumed mod ``n``).
* :class:`ReplayALU` executes with real arithmetic but returns a
  corrupted product at exactly one operation index — the deterministic
  single-fault adversary of the ARMORY model.  Run over a whole
  signature it is the reference the suffix replay is checked against.

Region labels follow from the exponent structure: square-and-multiply
over ``e`` issues ``popcount(e) + bit_length(e) - 1`` modular
multiplications, so the trace splits exactly into the ``sp`` and ``sq``
exponentiations followed by the two Garner recombination ops.

Keys and golden traces are pure functions of their inputs, so each
process memoizes them (:func:`~repro.attacks.rsa_crt.victim_key`,
:func:`victim_trace`) and every job shard of a map it runs shares one
immutable trace.  :func:`replay_with_fault` resumes from that trace: it
rebuilds the exponentiation state just before the faulted operation and
re-runs only the suffix the fault can reach.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey, victim_key
from repro.errors import ConfigurationError
from repro.faults.alu import BigIntALU, modexp_op_count, modexp_state

#: Region labels in trace order.
REGION_SP = "sp"
REGION_SQ = "sq"
REGION_RECOMBINE_H = "recombine-h"
REGION_RECOMBINE_MUL = "recombine-mul"

#: Instruction class every big-integer limb multiply decomposes into.
VICTIM_INSTRUCTION = "imul"


@dataclass(frozen=True)
class TracedOp:
    """One recorded ``bigmul`` of the victim signature.

    ``reduce_mod`` is the modulus applied to the product immediately
    after (by ``modmul``); ``None`` marks the final recombination
    multiply, whose product is consumed mod ``n`` by the signer itself.
    Frozen: one trace is shared by every job shard a process runs.
    """

    index: int
    lhs: int
    rhs: int
    product: int
    reduce_mod: Optional[int] = None
    region: str = ""
    instruction: str = VICTIM_INSTRUCTION


class TracingALU(BigIntALU):
    """Executes arithmetic exactly while recording every ``bigmul``.

    ``regions[i]`` labels op ``i`` as it is recorded; ops past the end of
    ``regions`` stay unlabelled for :func:`trace_victim`'s op-count check.
    """

    def __init__(self, regions: Sequence[str]) -> None:
        self.ops: List[TracedOp] = []
        self.regions = regions
        self._reduce_mod: Optional[int] = None

    def bigmul(self, lhs: int, rhs: int) -> int:
        if lhs < 0 or rhs < 0:
            raise ConfigurationError("bigmul operates on non-negative integers")
        product = lhs * rhs
        index = len(self.ops)
        region = self.regions[index] if index < len(self.regions) else ""
        self.ops.append(TracedOp(index, lhs, rhs, product, self._reduce_mod, region))
        self._reduce_mod = None
        return product

    def modmul(self, lhs: int, rhs: int, modulus: int) -> int:
        # The bigmul this call issues records the modulus it is reduced by.
        self._reduce_mod = modulus
        return super().modmul(lhs, rhs, modulus)


class ReplayALU(BigIntALU):
    """Executes arithmetic exactly except at one corrupted operation.

    ``corruptor`` maps the exact product of operation ``target_index`` to
    the value the faulted multiplier would have produced; every other
    operation is computed correctly.  This is the deterministic
    single-fault adversary: one transient fault per signature.
    """

    def __init__(self, target_index: int, corruptor: Callable[[int], int]) -> None:
        self.target_index = target_index
        self.corruptor = corruptor
        self.op_count = 0

    def bigmul(self, lhs: int, rhs: int) -> int:
        if lhs < 0 or rhs < 0:
            raise ConfigurationError("bigmul operates on non-negative integers")
        product = lhs * rhs
        if self.op_count == self.target_index:
            product = self.corruptor(product)
        self.op_count += 1
        return product


@dataclass(frozen=True)
class VictimTrace:
    """The victim signature's full, regioned multiplication trace."""

    key: RSAKey
    message: int
    golden_signature: int
    ops: Tuple[TracedOp, ...]

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def region_sizes(self) -> dict:
        """Op counts per region, in trace order."""
        sizes: dict = {}
        for op in self.ops:
            sizes[op.region] = sizes.get(op.region, 0) + 1
        return sizes

    def consumed_modulus(self, op: TracedOp) -> int:
        """The modulus the op's product is effectively consumed under.

        ``modmul`` ops are reduced by their recorded modulus; the final
        recombination product enters ``(s_q + q*h) % n``, so only its
        residue mod ``n`` can reach the signature.
        """
        return op.reduce_mod if op.reduce_mod is not None else self.key.n


def trace_victim(key: RSAKey, message: int) -> VictimTrace:
    """Trace one RSA-CRT signature and label every op with its region.

    The region boundaries are derived from the exponent structure and
    asserted against the recorded trace, so a drift between the signer's
    op sequence and the explorer's addressing is a hard error, never a
    silently misattributed fault.
    """
    n_sp = modexp_op_count(key.dp)
    n_sq = modexp_op_count(key.dq)
    alu = TracingALU(
        (REGION_SP,) * n_sp
        + (REGION_SQ,) * n_sq
        + (REGION_RECOMBINE_H, REGION_RECOMBINE_MUL)
    )
    golden = RSACRTSigner(key).sign(alu, message)
    expected = n_sp + n_sq + 2  # + Garner h-multiply + final recombination
    if len(alu.ops) != expected:
        raise ConfigurationError(
            f"victim trace recorded {len(alu.ops)} ops, expected {expected} "
            f"(sp={n_sp}, sq={n_sq}, recombine=2)"
        )
    if alu.ops[-1].reduce_mod is not None:
        raise ConfigurationError(
            "final recombination op unexpectedly carries a reduce modulus"
        )
    return VictimTrace(
        key=key, message=message, golden_signature=golden, ops=tuple(alu.ops)
    )


@functools.lru_cache(maxsize=4)
def victim_trace(key: RSAKey, message: int, /) -> VictimTrace:
    """``trace_victim(key, message)``, traced once per process.

    Bounded like :func:`~repro.attacks.rsa_crt.victim_key`;
    :func:`~repro.explore.runner.run_explore` clears both before each
    map, so one map pays one keygen and one trace per process.
    """
    return trace_victim(key, message)


def clear_victim_memo() -> None:
    """Forget every memoized key and trace."""
    victim_key.cache_clear()
    victim_trace.cache_clear()


def replay_with_fault(
    key: RSAKey, message: int, op_index: int, corruptor: Callable[[int], int]
) -> int:
    """The signature produced with operation ``op_index`` corrupted.

    Equal to ``RSACRTSigner(key).sign(ReplayALU(op_index, corruptor),
    message)``, but only the computation the fault can reach is redone:
    the faulted exponentiation resumes from its traced state just before
    ``op_index``, the other half's result comes from the golden trace,
    and the two Garner recombination ops run on top.  A fault in the
    recombination costs two multiplications.
    """
    trace = victim_trace(key, message)
    if not 0 <= op_index < trace.op_count:
        return trace.golden_signature
    m = message % key.n
    n_sp = modexp_op_count(key.dp)
    n_sq = modexp_op_count(key.dq)
    # Resumed ops count from zero, so the corrupted op is the first one
    # issued, or the recombination op the index names.
    alu = ReplayALU(max(0, op_index - n_sp - n_sq), corruptor)
    halves = []
    for start, count, exponent, prime in (
        (0, n_sp, key.dp, key.p),
        (n_sp, n_sq, key.dq, key.q),
    ):
        if start <= op_index < start + count:
            prefix = (op.product for op in trace.ops[start:op_index])
            state = modexp_state(prefix, m % prime, exponent, prime)
            halves.append(alu.modexp_from(*state, prime))
        else:
            # The multiply that clears e is the exponentiation's last op.
            last = trace.ops[start + count - 1].product if count else 1
            halves.append(last % prime)
    return RSACRTSigner(key).recombine(alu, *halves)
