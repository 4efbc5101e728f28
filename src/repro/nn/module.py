"""Module/Parameter abstractions, mirroring the small subset of
``torch.nn.Module`` that AERIS needs."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A trainable tensor. Always requires gradients."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with automatic parameter/submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # -- traversal ---------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, param in self._parameters.items():
            yield (f"{prefix}{key}", param)
        for key, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state -------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load ``state``'s arrays, cast to each parameter's dtype, into
        the parameters' own arrays: a load overwrites each parameter's
        current array in place (a view of it — a shared mapping's seat,
        :class:`repro.nn.optim.FlatParams` — sees the new values; an array
        taken from ``p.data`` before the load does too), rebinding only
        a read-only one to a copy.  Names and shapes are checked before
        anything is written."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        values = {name: np.asarray(state[name], dtype=param.data.dtype)
                  for name, param in own.items()}
        for name, param in own.items():
            if values[name].shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{values[name].shape} vs {param.data.shape}")
        for name, param in own.items():
            if param.data.flags.writeable:
                param.data[...] = values[name]
            else:
                param.data = values[name].copy()

    # -- call --------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Holds an ordered list of submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]
