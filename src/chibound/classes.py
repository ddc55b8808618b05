"""Named hereditary classes used by the theorem harness and the CLI.

Each theorem's hypothesis class comes from the THEOREMS registry, under the
theorem id in lower case; only the plain diamond-free class is defined here.
"""

from __future__ import annotations

from .color import THEOREMS
from .detect import ClassSpec, make_class
from .patterns import make_pattern

# theorem id -> the name of its hypothesis class
THEOREM_CLASS = {thm: thm.lower() for thm in THEOREMS}

# name -> (parameter defaults, builder)
_CLASS_BUILDERS = {name: (THEOREMS[thm].defaults, THEOREMS[thm].spec)
                   for thm, name in THEOREM_CLASS.items()}
_CLASS_BUILDERS["diamond-free"] = (
    {}, lambda: make_class([make_pattern("diamond")], id="diamond-free",
                           params={}))


def class_names():
    return sorted(_CLASS_BUILDERS)


def class_defaults(name: str) -> dict:
    if name not in _CLASS_BUILDERS:
        raise KeyError(f"unknown class {name!r}; known: {', '.join(class_names())}")
    return dict(_CLASS_BUILDERS[name][0])


def get_class(name: str, **params) -> ClassSpec:
    """Instantiate a named class, filling unspecified parameters from defaults."""
    if name not in _CLASS_BUILDERS:
        raise KeyError(f"unknown class {name!r}; known: {', '.join(class_names())}")
    defaults, fn = _CLASS_BUILDERS[name]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"class {name!r} takes {sorted(defaults)}, "
                         f"not {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(params)
    return fn(**merged)
