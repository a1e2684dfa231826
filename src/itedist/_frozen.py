"""Frozen dataclasses whose arrays stay read-only, also across pickling."""
from __future__ import annotations

import dataclasses

import numpy as np


class FrozenArrays:
    """Base of a frozen dataclass whose array fields are read-only.

    Array fields are frozen in place, which suits the arrays the package
    builds for a holder.  A holder that callers build from their own arrays
    sets ``copies_arrays``: it freezes copies instead, so the caller's arrays
    stay writeable and later writes to them cannot reach the holder.
    Unpickling would bring the arrays back writeable and skip
    ``__post_init__``, so an object is pickled as a call of its constructor
    on its init fields, which freezes them again.  A subclass that defines
    its own ``__post_init__`` calls this one last.
    """

    copies_arrays = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                if self.copies_arrays:
                    value = value.copy()
                    object.__setattr__(self, f.name, value)
                value.setflags(write=False)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name)
                                  for f in dataclasses.fields(self) if f.init))
