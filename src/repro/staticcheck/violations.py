"""The violation record shared by the engine, the rules, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Violation"]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, anchored to a ``file:line`` position.

    ``path`` is stored relative to the scanned root so that text and
    JSON output are stable across checkouts.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def anchor(self) -> str:
        """``path:line:col`` — the clickable location prefix."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.anchor()}: {self.rule_id} {self.message}"
