"""What a colorer returns, and the exceptions by which it reports that its
input is outside the theorem's hypotheses or that a claim of the proof failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MembershipError(ValueError):
    """The input graph is outside the theorem's hypothesis class."""

    def __init__(self, theorem: str, violated: str, witness=None):
        super().__init__(f"{theorem}: hypothesis failed: {violated}"
                         + (f" (witness {witness})" if witness is not None else ""))
        self.theorem = theorem
        self.violated = violated
        self.witness = witness


class StructureViolation(RuntimeError):
    """A structural claim from a proof failed on this input."""

    def __init__(self, claim: str, witness=None):
        super().__init__(f"structural claim failed: {claim} (witness {witness})")
        self.claim = claim
        self.witness = witness


@dataclass
class ColoringCertificate:
    theorem_id: str
    coloring: dict                      # vertex -> positive color
    palette_used: int
    bound_value: int
    omega: int
    c_value: int | None
    trace: list = field(default_factory=list)   # (vertex, block label, depth)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def within_bound(self) -> bool:
        return self.palette_used <= self.bound_value

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "coloring": {str(v): c for v, c in sorted(self.coloring.items())},
            "palette_used": self.palette_used,
            "bound_value": self.bound_value,
            "within_bound": self.within_bound,
            "omega": self.omega,
            "c_value": self.c_value,
            "trace": [[v, lbl, d] for v, lbl, d in self.trace],
            "notes": list(self.notes),
            "details": dict(self.details),
        }
