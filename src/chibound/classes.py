"""Named hereditary classes used by the theorem harness and the CLI.

Each theorem's hypothesis class is its THEOREMS entry's spec, named by the
theorem id in lower case; only the plain diamond-free class is defined here.
"""

from __future__ import annotations

from .color import THEOREMS
from .detect import ClassSpec, check_params, make_class
from .patterns import make_pattern

# theorem id -> the name of its hypothesis class
THEOREM_CLASS = {thm: thm.lower() for thm in THEOREMS}


def class_names():
    return sorted([*THEOREM_CLASS.values(), "diamond-free"])


def get_class(name: str, **params) -> ClassSpec:
    """Instantiate a named class, filling unspecified parameters from
    defaults.  An unknown name raises KeyError, a parameter the class does
    not take ValueError."""
    if name not in class_names():
        raise KeyError(f"unknown class {name!r}; known: {', '.join(class_names())}")
    if name != "diamond-free":
        return THEOREMS[name.upper()].spec(**params)
    check_params("class 'diamond-free'", params, {})
    return make_class([make_pattern("diamond")], id="diamond-free")
