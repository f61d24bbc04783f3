"""Deficit reports and their JSON/CSV serialization.

A report records one inequality evaluation in powered form (both sides
raised to the power that makes them additive), the deficit lhs - rhs, and
enough numerical metadata to decide whether a negative deficit is a real
violation or quadrature noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from .constants import Params

__all__ = ["DeficitReport", "fmt17", "csv_table", "reports_to_json", "reports_to_csv"]

_EPS = 1e-300


def fmt17(x) -> str:
    """17-significant-digit decimal rendering (round-trips doubles)."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a header and rows: every field in fmt17, None as an
    empty field.  Fields are not quoted, so a caller quotes any field that
    may hold a comma (reports_to_csv)."""
    return "".join(",".join("" if x is None else fmt17(x) for x in row) + "\n"
                   for row in (header, *rows))


@dataclass(frozen=True)
class DeficitReport:
    """One inequality evaluation.

    lhs and rhs are the powered forms; extras carries the unpowered views
    and any inequality-specific diagnostics (normalization factors,
    equality distances).  flags is empty, or {"outside-range"} when the
    inequality does not apply to the profile.
    """

    inequality_id: str
    params: Params
    lhs: float
    rhs: float
    quadrature_error: float = 0.0
    flags: frozenset = frozenset()
    label: str = ""
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def deficit(self) -> float:
        return self.lhs - self.rhs

    @property
    def relative_margin(self) -> float:
        return self.deficit / max(self.lhs, self.rhs, _EPS)

    def passes(self) -> bool:
        """Tolerance policy: a negative deficit fails only past its error
        bar; a nan deficit or bar fails."""
        return self.deficit >= -self.quadrature_error

    def to_dict(self) -> dict:
        p = self.params
        return {
            "inequality_id": self.inequality_id,
            "n": p.n,
            "p": p.p,
            "alpha": p.alpha,
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "relative_margin": self.relative_margin,
            "quadrature_error": self.quadrature_error,
            "flags": sorted(self.flags),
            "extras": {k: self.extras[k] for k in sorted(self.extras)},
        }


def _strict(x):
    """x with non-finite floats as their CSV tokens "inf", "-inf", "nan"."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    return fmt17(x) if isinstance(x, float) and not math.isfinite(x) else x


def reports_to_json(reports: Sequence[DeficitReport]) -> str:
    return json.dumps([_strict(r.to_dict()) for r in reports], indent=2,
                      allow_nan=False) + "\n"


_CSV_COLUMNS = ("inequality_id", "n", "p", "alpha", "label", "lhs", "rhs",
                "deficit", "relative_margin", "quadrature_error", "flags")


def reports_to_csv(reports: Sequence[DeficitReport]) -> str:
    """CSV text of reports under _CSV_COLUMNS, flags joined by ";"; a label
    holding a comma, quote or line break is quoted, quotes doubled (RFC 4180)."""
    dicts = [dict(r.to_dict(), flags=";".join(sorted(r.flags))) for r in reports]
    for d in dicts:
        if any(c in d["label"] for c in ',"\r\n'):
            d["label"] = '"' + d["label"].replace('"', '""') + '"'
    return csv_table(_CSV_COLUMNS, [[d[col] for col in _CSV_COLUMNS] for d in dicts])
