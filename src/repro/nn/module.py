"""Module/Parameter containers, a minimal analogue of ``torch.nn``.

A :class:`Module` owns named :class:`Parameter` leaves and nested
sub-modules; ``parameters()`` walks the tree so optimizers can update
every trainable tensor of a model with one call.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor.tensor import bump_data_version

__all__ = ["Parameter", "Module"]


#: The dtypes a parameter may hold; anything else is stored as float32.
FLOAT_DTYPES = (np.float32, np.float64)


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by construction).

    An ndarray that is already float32 or float64 is aliased, not copied
    (the out-of-core path wraps float64 memmaps this way); anything else
    (lists, Python numbers, integer arrays) becomes float32, the dtype
    every model is built in.
    """

    def __init__(self, data, name: str | None = None):
        if not (isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES):
            data = np.asarray(data, dtype=np.float32)
        super().__init__(np.asarray(data), requires_grad=True, name=name)


class Module:
    """Base class for models and layers.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; this base class discovers them by introspection, mirroring
    the PyTorch registration-by-assignment idiom.
    """

    def __init__(self):
        self._training = True

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        """Yield ``(name, Parameter)`` pairs over the module tree."""
        for attr, value in vars(self).items():
            if attr.startswith("_") and attr != "_training":
                inner = getattr(self, attr)
                if not isinstance(inner, (Parameter, Module, list, tuple)):
                    continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval mode (affects dropout and perturbation layers)
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        self._training = True
        for child in self._child_modules():
            child.train()
        return self

    def eval(self) -> "Module":
        self._training = False
        for child in self._child_modules():
            child.eval()
        return self

    def _child_modules(self):
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    # ------------------------------------------------------------------
    # State dict (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        # Validate every shape before the first in-place write so a bad
        # checkpoint cannot leave the model half-loaded (and the data
        # version un-bumped) when it raises.
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{p.data.shape} vs {state[name].shape}")
        for name, p in own.items():
            p.data[...] = state[name]
        bump_data_version()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError
