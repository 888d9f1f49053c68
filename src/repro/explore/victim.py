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

:func:`injection_verdict` decides most faults without even that: a
fault in an ``sp``/``sq`` op of a consistent CRT key is ``exploitable``
exactly when it changes its half, and whether it does follows from the
op's loop state in one comparison (multiply) or two tiny ``pow`` calls
(squaring).  The Garner ops and zero states go through
:func:`replay_verdict`, the replay-and-Bellcore oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey, bellcore_extract, victim_key
from repro.errors import ConfigurationError
from repro.explore.faultspace import corruptor
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

    @functools.cached_property
    def key_consistent(self) -> bool:
        """Whether ``dp``/``dq`` invert ``e`` and Garner recombines to ``n``.

        Then ``x -> x^e`` is a bijection mod each prime that the signer's
        half exponent undoes (so ``gcd(e, p-1) = gcd(e, q-1) = 1``), and
        the signature's residue mod each prime is that prime's half: the
        premises of :func:`injection_verdict`'s closed form.  Keys from
        :meth:`~repro.attacks.rsa_crt.RSAKey.generate` always are.
        """
        key = self.key
        return (
            key.n == key.p * key.q
            and key.e * key.dp % (key.p - 1) == 1
            and key.e * key.dq % (key.q - 1) == 1
            and key.q * key.qinv % key.p == 1
        )

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


def replay_verdict(trace: VictimTrace, op_index: int, corrupt: Callable[[int], int]) -> str:
    """The oracle verdict: replay the signature, then try Bellcore on it.

    ``masked`` if the signature survived, ``exploitable`` if Bellcore
    factoring recovers the key's primes, else ``corrupted``.
    """
    key = trace.key
    signature = replay_with_fault(key, trace.message, op_index, corrupt)
    if signature == trace.golden_signature:
        return "masked"
    result = bellcore_extract(key.n, key.e, trace.message, signature)
    if result is not None and result.factors() == tuple(sorted((key.p, key.q))):
        return "exploitable"
    return "corrupted"


def decided_in_closed_form(trace: VictimTrace, op_index: int) -> bool:
    """Whether :func:`injection_verdict` decides this op without a replay.

    True for an ``sp``/``sq`` op of a consistent key whose loop state has
    no zero residue; the two Garner ops are always replayed.
    """
    if not (0 <= op_index < len(trace.states) and trace.key_consistent):
        return False
    result, acc, _ = trace.states[op_index]
    return result != 0 and acc != 0  # states are reduced mod their prime


def injection_verdict(trace: VictimTrace, op_index: int, model: str) -> str:
    """The verdict of corrupting op ``op_index`` with fault ``model``.

    Equal to :func:`replay_verdict`.  For an exponentiation op it follows
    from the loop state ``(r, a, e)`` before the op, on the half's prime
    ``p``:

    * The other half is untouched and ``x -> x^e_pub`` is a bijection mod
      ``p``, so Bellcore recovers the factors whenever this half changes:
      the verdict is never ``corrupted``.
    * Multiply: the half is ``r' * a^(e-1)`` with ``a`` invertible, so it
      changes iff ``r' = corrupt(r*a)`` differs from ``r*a`` mod ``p``.
    * Squaring: the half is ``r * a'^k`` with ``k = e >> 1`` and ``r``
      invertible.  ``a'^k = (a^2)^k`` iff ``x^k = 1`` for
      ``x = a' / a^2``, and by Bezout and Fermat iff
      ``x^gcd(k, p-1) = 1``, i.e. iff ``a'^g = (a^2)^g`` with that ``g``.

    Everything else — Garner ops, zero states, inconsistent keys — is
    replayed (see :func:`decided_in_closed_form`).
    """
    corrupt = corruptor(model)
    if not decided_in_closed_form(trace, op_index):
        return replay_verdict(trace, op_index, corrupt)
    op = trace.ops[op_index]
    prime = op.reduce_mod
    golden, faulted = op.product % prime, corrupt(op.product) % prime
    e = trace.states[op_index][2]
    if not e & 1:
        g = math.gcd(e >> 1, prime - 1)
        golden, faulted = pow(golden, g, prime), pow(faulted, g, prime)
    return "masked" if faulted == golden else "exploitable"
