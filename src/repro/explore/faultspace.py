"""The explorer's deterministic fault-model catalog.

Where the attack path samples *random* bit flips from the probabilistic
injector, the explorer enumerates *named, deterministic* corruptions so
the fault space is finite and every point addressable:

* ``flip:<b>`` — XOR bit ``b`` of the exact product (the single-bit
  upsets Plundervolt observed on faulted ``imul``);
* ``zero`` — force the product to zero (a fully skipped multiply);
* ``trunc64`` — keep only the low 64 bits (a lost carry chain above the
  first limb: masked whenever the product already fits one limb).

The catalog is intentionally open-ended: any ``family:arg`` spelling the
parser understands is a valid plan entry, and :data:`DEFAULT_FAULT_MODELS`
is merely the small set small plans default to.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.errors import ConfigurationError

_MASK64 = (1 << 64) - 1

#: The default model set for explore plans: low/high single-bit flips,
#: a carry-chain truncation, and a skipped multiply.
DEFAULT_FAULT_MODELS: Tuple[str, ...] = ("flip:0", "flip:63", "trunc64", "zero")


def corruptor(model: str) -> Callable[[int], int]:
    """The deterministic corruption function a model name denotes."""
    if model == "zero":
        return lambda value: 0
    if model == "trunc64":
        return lambda value: value & _MASK64
    if model.startswith("flip:"):
        arg = model.split(":", 1)[1]
        try:
            bit = int(arg)
        except ValueError:
            raise ConfigurationError(f"malformed fault model {model!r}") from None
        if bit < 0:
            raise ConfigurationError(f"fault model {model!r}: bit must be >= 0")
        # One spelling per model: flip:03 or flip:+3 would let a plan
        # list flip:3 twice and double its share of the injection axis.
        if arg != str(bit):
            raise ConfigurationError(
                f"fault model {model!r}: write the bit as flip:{bit}"
            )
        return lambda value: value ^ (1 << bit)
    raise ConfigurationError(
        f"unknown fault model {model!r}; expected flip:<bit>, trunc64 or zero"
    )


def corrupt(model: str, value: int) -> int:
    """Apply one named corruption to an exact product."""
    return corruptor(model)(value)


def validate_models(models) -> Tuple[str, ...]:
    """Normalize and validate a fault-model list (order-preserving)."""
    names = tuple(models)
    if not names:
        raise ConfigurationError("an explore plan needs at least one fault model")
    seen = set()
    for name in names:
        corruptor(name)  # raises on malformed names
        if name in seen:
            raise ConfigurationError(f"duplicate fault model {name!r}")
        seen.add(name)
    return names
