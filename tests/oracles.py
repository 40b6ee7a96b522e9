"""Reference implementations that the fast code paths are checked against.

Each one is the plain form the package used before it was sped up:
- render_json_oracle: the report through to_dict() and json.dumps(indent=2);
- span_colors_oracle and paint_oracle: the per-character span painter, valid
  for claim offsets inside the text.
"""

from __future__ import annotations

import json
from typing import Optional

from claimver.report import VerificationReport


def render_json_oracle(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"


def span_colors_oracle(report: VerificationReport) -> list[Optional[str]]:
    colors: list[Optional[str]] = [None] * len(report.input_text)
    for claim in report.claims:
        if claim.start is None or claim.end is None:
            continue
        for i in range(claim.start, min(claim.end, len(colors))):
            colors[i] = claim.prediction
    return colors


def paint_oracle(text: str, colors: list[Optional[str]], open_code, close_code, escape) -> str:
    out: list[str] = []
    current: Optional[str] = None
    for ch, color in zip(text, colors):
        if color != current:
            if current is not None:
                out.append(close_code(current))
            if color is not None:
                out.append(open_code(color))
            current = color
        out.append(escape(ch))
    if current is not None:
        out.append(close_code(current))
    return "".join(out)
