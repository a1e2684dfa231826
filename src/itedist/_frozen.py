"""Frozen dataclasses whose arrays stay read-only, also across pickling."""
from __future__ import annotations

import dataclasses

import numpy as np


class FrozenArrays:
    """Base of a frozen dataclass that marks its array fields read-only.

    Unpickling would bring the arrays back writeable and skip
    ``__post_init__``, so an object is pickled as a call of its constructor
    on its init fields, which freezes them again.  A subclass that defines
    its own ``__post_init__`` calls this one last.
    """

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name)
                                  for f in dataclasses.fields(self) if f.init))
