"""Report rendering: canonical JSON, ANSI terminal color, and static HTML.

Claim spans are painted over the input text by prediction: green for
Attributable, amber for Extrapolatory, red for Contradictory, gray for
NoAttribution. Overlapping spans let the later claim win; a report's offsets
always lie within its text. Decoration never changes the text itself:
stripping codes or tags gives back the input.
"""

from __future__ import annotations

import html
from itertools import groupby
from typing import Optional

from .report import ClaimRecord, TripletRecord, VerificationReport
from .text import format_triplet

_ANSI = {
    "Attributable": "\x1b[32m",
    "Extrapolatory": "\x1b[33m",
    "Contradictory": "\x1b[31m",
    "NoAttribution": "\x1b[90m",
}
_RESET = "\x1b[0m"

_CSS_CLASS = {
    "Attributable": "attributable",
    "Extrapolatory": "extrapolatory",
    "Contradictory": "contradictory",
    "NoAttribution": "noattribution",
}

_STYLE = """\
body { font-family: sans-serif; max-width: 60em; margin: 2em auto; }
pre.text { white-space: pre-wrap; border: 1px solid #ccc; padding: 1em; }
.attributable { background: #b5e2a5; }
.extrapolatory { background: #f5d87a; }
.contradictory { background: #f2a097; }
.noattribution { background: #d0d0d0; }
.claim { border-left: 4px solid #888; margin: 1em 0; padding: 0.2em 1em; }
.diag { color: #a33; }
"""


def _span_colors(report: VerificationReport) -> list[Optional[str]]:
    """Per-character prediction, later claims overriding earlier ones.

    A loaded report can hold any prediction; one with no color is refused
    here, before either renderer looks it up.
    """
    colors: list[Optional[str]] = [None] * len(report.input_text)
    for claim in report.claims:
        if not isinstance(claim.prediction, str) or claim.prediction not in _ANSI:
            raise ValueError(f"cannot render a claim with prediction {claim.prediction!r}")
        if claim.start is not None:
            colors[claim.start:claim.end] = [claim.prediction] * (claim.end - claim.start)
    return colors


def _paint(text: str, colors: list[Optional[str]], open_code, close_code, escape) -> str:
    """Wrap each run of one color in its codes, escaping each run once."""
    out: list[str] = []
    pos = 0
    for color, run in groupby(colors):
        end = pos + len(list(run))
        piece = escape(text[pos:end])
        out.append(piece if color is None else open_code(color) + piece + close_code(color))
        pos = end
    return "".join(out)


def render_json(report: VerificationReport) -> str:
    """Indented canonical JSON, byte-identical to json.dumps(indent=2)."""
    return report.to_json() + "\n"


def _triplet_line(t: TripletRecord) -> str:
    return format_triplet(t.s_label, t.p, t.o_label)


def _claim_heading(i: int, claim: ClaimRecord) -> str:
    return f"Claim {i}: {claim.prediction} (cs={claim.claim_score}, tms={claim.tms:.4f})"


def render_ansi(report: VerificationReport) -> str:
    lines: list[str] = []
    painted = _paint(report.input_text, _span_colors(report),
                     lambda c: _ANSI[c], lambda c: _RESET, lambda ch: ch)
    lines.append(painted)
    lines.append("")
    if report.entities:
        lines.append("Entities:")
        for e in report.entities:
            desc = f" - {e.description}" if e.description else ""
            lines.append(f"  {e.label} ({e.node}){desc}")
        lines.append("")
    for i, claim in enumerate(report.claims, 1):
        code = _ANSI[claim.prediction]
        lines.append(f"{code}{_claim_heading(i, claim)}{_RESET}")
        lines.append(f"  span: {claim.span}")
        if claim.rationale:
            lines.append(f"  rationale: {claim.rationale}")
        for t in claim.triplets:
            lines.append(f"  triplet: {_triplet_line(t)}")
        lines.append(f"  ss={claim.ss:.4f} epr={claim.epr:.4f}")
        for d in claim.diagnostics:
            lines.append(f"  note: {d}")
        lines.append("")
    for d in report.diagnostics:
        lines.append(f"note: {d}")
    lines.append(f"Claims: {report.n}")
    lines.append(f"KAS: {report.kas}")
    return "\n".join(lines) + "\n"


def render_html(report: VerificationReport) -> str:
    painted = _paint(report.input_text, _span_colors(report),
                     lambda c: f'<span class="{_CSS_CLASS[c]}">',
                     lambda c: "</span>", html.escape)
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<style>{_STYLE}</style>",
        "<title>Verification report</title></head><body>",
        "<h1>Verification report</h1>",
        f'<pre class="text">{painted}</pre>',
    ]
    if report.entities:
        parts.append("<h2>Entities</h2><ul>")
        for e in report.entities:
            desc = f" {html.escape(e.description)}" if e.description else ""
            parts.append(f"<li><b>{html.escape(e.label)}</b> ({html.escape(e.node)}){desc}</li>")
        parts.append("</ul>")
    parts.append("<h2>Claims</h2>")
    for i, claim in enumerate(report.claims, 1):
        cls = _CSS_CLASS[claim.prediction]
        block = [f'<div class="claim"><p><span class="{cls}">{html.escape(_claim_heading(i, claim))}</span></p>']
        block.append(f"<p>span: {html.escape(claim.span)}</p>")
        if claim.rationale:
            block.append(f"<p>rationale: {html.escape(claim.rationale)}</p>")
        if claim.triplets:
            block.append("<ul>")
            block.extend(f"<li>{html.escape(_triplet_line(t))}</li>" for t in claim.triplets)
            block.append("</ul>")
        block.append(f"<p>ss={claim.ss:.4f} epr={claim.epr:.4f}</p>")
        if claim.diagnostics:
            block.append('<ul class="diag">')
            block.extend(f"<li>{html.escape(d)}</li>" for d in claim.diagnostics)
            block.append("</ul>")
        block.append("</div>")
        parts.append("".join(block))
    if report.diagnostics:
        parts.append('<ul class="diag">')
        parts.extend(f"<li>{html.escape(d)}</li>" for d in report.diagnostics)
        parts.append("</ul>")
    parts.append(f"<p>Claims: {report.n}</p>")
    parts.append(f'<p class="kas">KAS: {report.kas}</p>')
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render(report: VerificationReport, format: str = "json") -> str:
    """Render a report as json, ansi, or html."""
    if format == "json":
        return render_json(report)
    if format == "ansi":
        return render_ansi(report)
    if format == "html":
        return render_html(report)
    raise ValueError(f"unknown format {format!r} (expected json, ansi, or html)")
