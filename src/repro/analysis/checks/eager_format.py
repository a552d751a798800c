"""FCC006: eager string formatting in per-event telemetry calls.

Telemetry sinks — ``telemetry.instant(...)``, ``span(env, ...)``,
``counter.inc(...)``, ``histogram.observe(...)`` and any
``.record(...)`` — sit on simulation hot paths and run once
*per event*.  Formatting a string argument at the call site
(an f-string, ``"%" %`` or ``"...".format(...)``) pays the formatting
cost on every event even though the sink just stores the value, and on
the telemetry-off path it defeats the one-``is None``-branch design.

The blessed idiom is to format once, at component construction time:
metric names are built there (``registry.counter(f"link.{name}.flits")``
— ``counter``/``gauge``/``histogram`` lookups are deliberately *not*
flagged), span/instant names are constant strings, and event payloads
pass raw values (``flow=flow``) the exporter serializes lazily.

The rule flags a formatted argument only when it actually interpolates
something — a placeholder-free f-string is constant and harmless.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..lint import LintCheck, SourceFile, Violation

__all__ = ["EagerFormatCheck"]

#: method names that record one telemetry/trace event per call
_SINK_METHODS = frozenset({"record", "span", "instant", "inc", "observe"})

#: bare function names with the same per-event contract
_SINK_FUNCS = frozenset({"span"})


def _eager_format_kind(node: ast.AST) -> Optional[str]:
    """The formatting idiom ``node`` evaluates eagerly, if any."""
    if isinstance(node, ast.JoinedStr):
        if any(isinstance(part, ast.FormattedValue)
               for part in node.values):
            return "f-string"
        return None
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)):
        return "%-interpolation"
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, str)):
        return "str.format"
    return None


def _sink_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SINK_METHODS:
        return func.attr
    if isinstance(func, ast.Name) and func.id in _SINK_FUNCS:
        return func.id
    return None


class EagerFormatCheck(LintCheck):
    code = "FCC006"
    slug = "eager-format"
    summary = ("string formatted per-event inside a telemetry/trace "
               "call; format once at construction or pass raw values")
    rationale = (
        "An f-string / %-format / .format argument inside a per-event "
        "telemetry call (record/span/instant/inc/observe) is built on "
        "every event even when telemetry is off, turning a one-branch "
        "no-op into allocation on the hot path.  Hoist the formatting to "
        "construction time or pass the raw value.")
    example_fix = (
        "bad:   telemetry.instant(f\"{self.name}.drop\")   # per-event "
        "format\n"
        "good:  self._drop = f\"pcie.{name}.drop\"        # once, in "
        "__init__\n"
        "       telemetry.instant(self._drop)")

    def violations(self, source: SourceFile,
                   tree: ast.Module) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            sink = _sink_name(node)
            if sink is None:
                continue
            arguments = list(node.args)
            arguments.extend(kw.value for kw in node.keywords)
            for argument in arguments:
                kind = _eager_format_kind(argument)
                if kind is not None:
                    yield self.hit(
                        source, argument,
                        f"{kind} argument formatted on every "
                        f"`{sink}(...)` event; hoist the formatting to "
                        "construction time or pass the raw value")
