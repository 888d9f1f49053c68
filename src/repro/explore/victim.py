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
  signature it is the oracle the closed-form replay is checked against.

Region labels follow from the exponent structure: square-and-multiply
over ``e`` issues ``popcount(e) + bit_length(e) - 1`` modular
multiplications, so the trace splits exactly into the ``sp`` and ``sq``
exponentiations followed by the two Garner recombination ops.

Keys and golden traces are pure functions of their inputs, so each
process memoizes them (:func:`~repro.attacks.rsa_crt.victim_key`,
:func:`victim_trace`) and every job shard of a map it runs shares one
immutable trace.  The trace holds the ``modexp`` loop state before each
exponentiation op, so :func:`replay_with_fault` costs one faulted op,
one exact builtin ``pow`` and the two Garner ops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey, victim_key
from repro.errors import ConfigurationError
from repro.faults.alu import BigIntALU, modexp_op_count

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
    """The victim's regioned multiplication trace and its :func:`loop_states`."""

    key: RSAKey
    message: int
    golden_signature: int
    ops: Tuple[TracedOp, ...]
    states: Tuple[Tuple[int, int, int], ...] = ()

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
        key=key, message=message, golden_signature=golden, ops=tuple(alu.ops),
        states=loop_states(key, message, alu.ops),
    )


def loop_states(
    key: RSAKey, message: int, ops: Sequence[TracedOp]
) -> Tuple[Tuple[int, int, int], ...]:
    """The ``modexp`` state ``(result, acc, e)`` before each ``sp``/``sq`` op.

    Follows :meth:`~repro.faults.alu.BigIntALU.modexp` over both CRT
    halves, taking each next state from the traced product.  An op whose
    recorded operands or modulus are not the ones its state predicts
    means the trace drifted from the loop the replay resumes: a hard error.
    """
    m = message % key.n
    states = []
    for exponent, prime in ((key.dp, key.p), (key.dq, key.q)):
        result, acc, e = 1 % prime, m % prime, exponent
        while e:
            op = ops[len(states)]
            states.append((result, acc, e))
            if (op.lhs, op.rhs, op.reduce_mod) != (result if e & 1 else acc, acc, prime):
                raise ConfigurationError(
                    f"traced op {op.index} does not multiply its modexp state"
                )
            if e & 1:
                result, e = op.product % prime, e ^ 1
            else:
                acc, e = op.product % prime, e >> 1
    return tuple(states)


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
    message)``: the faulted op runs from its traced loop state, the rest
    of its exponentiation is the exact ``result * acc**e mod prime`` the
    ``modexp`` loop returns, the other half comes from the golden
    signature, and the two Garner recombination ops run on top.
    """
    trace = victim_trace(key, message)
    if not 0 <= op_index < trace.op_count:
        return trace.golden_signature
    n_exp = len(trace.states)
    # The faulted op is the first one issued, or the recombination op
    # the index names.
    alu = ReplayALU(max(0, op_index - n_exp), corruptor)
    # Garner's output is s_p mod p and s_q mod q: the golden halves.
    halves = [trace.golden_signature % key.p, trace.golden_signature % key.q]
    if op_index < n_exp:
        half = trace.ops[op_index].region == REGION_SQ
        prime = (key.p, key.q)[half]
        result, acc, e = trace.states[op_index]
        if e & 1:  # multiply: result * acc, then acc**(e - 1)
            halves[half] = alu.modmul(result, acc, prime) * pow(acc, e - 1, prime) % prime
        else:  # square: result * (acc * acc)**(e / 2)
            halves[half] = result * pow(alu.modmul(acc, acc, prime), e >> 1, prime) % prime
    return RSACRTSigner(key).recombine(alu, *halves)
