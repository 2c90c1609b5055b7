"""Post-hoc trace summarization (``iolap report``).

Reads a finished event-log trace, validates every record against the
pinned schema, and renders the run's story: where the time went (slowest
spans, by name and individually), how operator state grew batch over
batch, the failure-recovery timeline, warnings, and the convergence of
every uncertain result series.

``iolap report --json`` emits :meth:`TraceSummary.to_dict`, whose field
set is *pinned* (like the metrics artifact): :func:`validate_report`
rejects missing and unknown top-level fields, so downstream dashboards
can rely on the shape. Extend :data:`REPORT_FIELDS` — and bump
:data:`REPORT_SCHEMA_VERSION` — to add fields.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.events import read_events

#: Bump whenever a field is added/removed/retyped in ``REPORT_FIELDS``.
#: v1 -> v2 added a group-tier summary field; v2 -> v3 dropped it again
#: and renamed the per-span-name totals to ``span_totals``.
REPORT_SCHEMA_VERSION = 3

_NUMBER = (int, float)

#: Field name -> accepted types of one ``TraceSummary.to_dict()``.
REPORT_FIELDS: dict[str, tuple[type, ...]] = {
    "schema_version": (int,),
    "num_events": (int,),
    "by_kind": (dict,),
    "num_batches": (int,),
    "run_seconds": _NUMBER,
    "span_totals": (list,),
    "slowest_spans": (list,),
    "state_series": (dict,),
    "recovery": (list,),
    "warning_counts": (dict,),
    "convergence": (list,),
}


def validate_report(data: Any) -> None:
    """Validate one ``report --json`` artifact; raise ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    version = data.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"report schema version {version!r} != {REPORT_SCHEMA_VERSION}"
        )
    missing = set(REPORT_FIELDS) - set(data)
    if missing:
        raise ValueError(f"report is missing field(s) {sorted(missing)}")
    unknown = set(data) - set(REPORT_FIELDS)
    if unknown:
        raise ValueError(
            f"report has unknown field(s) {sorted(unknown)}; the report "
            "schema is pinned — extend repro.obs.report.REPORT_FIELDS "
            "(and bump REPORT_SCHEMA_VERSION) to add fields"
        )
    for name, types in REPORT_FIELDS.items():
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"report field {name!r} has type {type(value).__name__}"
            )
    for row in data["span_totals"]:
        if set(row) != {"name", "count", "total_seconds", "max_seconds"}:
            raise ValueError(f"bad span_totals row {sorted(row)}")
    for row in data["slowest_spans"]:
        if set(row) != {"name", "detail", "track", "batch", "ts", "seconds"}:
            raise ValueError(f"bad slowest_spans row {sorted(row)}")
    for name, samples in data["state_series"].items():
        if not isinstance(name, str) or not isinstance(samples, list):
            raise ValueError(f"bad state_series entry {name!r}")
    for row in data["convergence"]:
        if set(row) != {
            "group", "name", "samples", "first_rsd", "last_rsd",
            "estimate", "ci_lo", "ci_hi",
        }:
            raise ValueError(f"bad convergence row {sorted(row)}")


class TraceSummary:
    """Aggregated view over one trace's events."""

    def __init__(self, events: Iterable[dict]):
        self.events = list(events)
        self.by_kind: dict[str, int] = {}
        self.spans: list[dict] = []
        self.warnings: list[dict] = []
        self.counters: dict[str, list[tuple[int | None, float]]] = {}
        self.convergence: dict[tuple[str, str], list[dict]] = {}
        for event in self.events:
            kind = event["kind"]
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            if kind == "span":
                self.spans.append(event)
            elif kind == "warning":
                self.warnings.append(event)
            elif kind == "counter":
                self.counters.setdefault(event["name"], []).append(
                    (event.get("batch"), event["value"])
                )
            elif kind == "convergence":
                args = event.get("args") or {}
                key = (str(args.get("group", "")), event["name"])
                self.convergence.setdefault(key, []).append(event)

    @classmethod
    def from_file(cls, path: str) -> "TraceSummary":
        return cls(read_events(path, validate=True))

    # -- derived views -------------------------------------------------------------

    def run_duration(self) -> float:
        runs = [s["dur"] for s in self.spans if s["name"] == "run"]
        if runs:
            return max(runs)
        if not self.events:
            return 0.0
        return max(
            e["ts"] + (e["dur"] if e["kind"] == "span" else 0.0) for e in self.events
        )

    def num_batches(self) -> int:
        return sum(1 for s in self.spans if s["name"] == "batch")

    def span_totals(self) -> list[tuple[str, int, float, float]]:
        """(name, count, total dur, max dur) sorted by total dur desc."""
        acc: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            count, total, peak = acc.get(span["name"], (0, 0.0, 0.0))
            acc[span["name"]] = (
                count + 1,
                total + span["dur"],
                max(peak, span["dur"]),
            )
        rows = [(name, c, t, p) for name, (c, t, p) in acc.items()]
        rows.sort(key=lambda r: -r[2])
        return rows

    def slowest_spans(self, top: int = 10) -> list[dict]:
        return sorted(self.spans, key=lambda s: -s["dur"])[:top]

    def counter_trajectory(self, name: str) -> list[tuple[int | None, float]]:
        return self.counters.get(name, [])

    def state_series(self) -> dict[str, list[tuple[int | None, float]]]:
        return {
            name: samples
            for name, samples in self.counters.items()
            if name.startswith("state.")
        }

    def recovery_events(self) -> list[dict]:
        timeline = [s for s in self.spans if s["name"] == "recovery-replay"]
        timeline += [
            w for w in self.warnings if w["name"] == "range-integrity-failure"
        ]
        timeline.sort(key=lambda e: e["ts"])
        return timeline

    def to_dict(self, top: int = 10) -> dict:
        """Machine-readable summary (``iolap report --json``).

        The shape is pinned by :data:`REPORT_FIELDS` /
        :func:`validate_report`; keep the two in sync.
        """
        warning_counts: dict[str, int] = {}
        for w in self.warnings:
            warning_counts[w["name"]] = warning_counts.get(w["name"], 0) + 1
        convergence = []
        for (group, name), events in sorted(self.convergence.items()):
            first = (events[0].get("args") or {}).get("rsd")
            last_args = events[-1].get("args") or {}
            convergence.append(
                {
                    "group": group,
                    "name": name,
                    "samples": len(events),
                    "first_rsd": first if isinstance(first, _NUMBER) else None,
                    "last_rsd": (
                        last_args.get("rsd")
                        if isinstance(last_args.get("rsd"), _NUMBER)
                        else None
                    ),
                    "estimate": last_args.get("estimate"),
                    "ci_lo": last_args.get("ci_lo"),
                    "ci_hi": last_args.get("ci_hi"),
                }
            )
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "num_events": len(self.events),
            "by_kind": dict(sorted(self.by_kind.items())),
            "num_batches": self.num_batches(),
            "run_seconds": self.run_duration(),
            "span_totals": [
                {
                    "name": name,
                    "count": count,
                    "total_seconds": total,
                    "max_seconds": peak,
                }
                for name, count, total, peak in self.span_totals()
            ],
            "slowest_spans": [
                {
                    "name": span["name"],
                    "detail": _span_detail(span),
                    "track": span["track"],
                    "batch": span.get("batch"),
                    "ts": span["ts"],
                    "seconds": span["dur"],
                }
                for span in self.slowest_spans(top)
            ],
            "state_series": {
                name: [[batch, value] for batch, value in samples]
                for name, samples in self.state_series().items()
            },
            "recovery": [
                {
                    "kind": event["kind"],
                    "ts": event["ts"],
                    "batch": event.get("batch"),
                    "seconds": event.get("dur", 0.0),
                    "args": dict(event.get("args") or {}),
                }
                for event in self.recovery_events()
            ],
            "warning_counts": warning_counts,
            "convergence": convergence,
        }


def _span_detail(span: dict) -> str:
    args = span.get("args") or {}
    label = args.get("op") or args.get("unit") or ""
    batch = f" b{span['batch']}" if "batch" in span else ""
    return f"{span['name']}{(' ' + str(label)) if label else ''}{batch}"


def render_report(summary: TraceSummary, top: int = 10) -> str:
    """Human-readable multi-section report of one trace."""
    out: list[str] = []
    counts = ", ".join(f"{k}={v}" for k, v in sorted(summary.by_kind.items()))
    out.append("== trace summary ==")
    out.append(
        f"events: {len(summary.events)} ({counts or 'none'})  "
        f"batches: {summary.num_batches()}  "
        f"run: {summary.run_duration()*1000:.1f} ms"
    )

    totals = summary.span_totals()
    if totals:
        out.append("")
        out.append("== where the time went (span totals) ==")
        for name, count, total, peak in totals[:top]:
            out.append(
                f"  {name:<16} x{count:<5} total {total*1000:9.1f} ms   "
                f"max {peak*1000:8.1f} ms"
            )
        out.append("")
        out.append("== slowest individual spans ==")
        for span in summary.slowest_spans(top):
            out.append(
                f"  {span['dur']*1000:9.1f} ms  {_span_detail(span)} "
                f"[{span['track']}]"
            )

    state = summary.state_series()
    if state:
        out.append("")
        out.append("== state growth (bytes, first -> peak -> last) ==")
        keyed = sorted(
            state.items(), key=lambda kv: -(kv[1][-1][1] if kv[1] else 0.0)
        )
        for name, samples in keyed[:top]:
            values = [v for _, v in samples]
            out.append(
                f"  {name:<48} {values[0]:12,.0f} -> {max(values):12,.0f} "
                f"-> {values[-1]:12,.0f}"
            )

    recovery = summary.recovery_events()
    out.append("")
    out.append("== recovery timeline ==")
    if recovery:
        for event in recovery:
            if event["kind"] == "span":
                args = event.get("args") or {}
                out.append(
                    f"  {event['ts']*1000:9.1f} ms  replay of "
                    f"{args.get('replayed_batches', '?')} batch(es) before "
                    f"batch {event.get('batch', '?')} "
                    f"({event['dur']*1000:.1f} ms)"
                )
            else:
                args = event.get("args") or {}
                out.append(
                    f"  {event['ts']*1000:9.1f} ms  integrity failure at "
                    f"batch {event.get('batch', '?')}: "
                    f"{args.get('message', '')}"
                )
    else:
        out.append("  (no failure recoveries)")

    other_warnings = [
        w for w in summary.warnings if w["name"] != "range-integrity-failure"
    ]
    if other_warnings:
        out.append("")
        out.append("== warnings ==")
        byname: dict[str, int] = {}
        for w in other_warnings:
            byname[w["name"]] = byname.get(w["name"], 0) + 1
        for name, count in sorted(byname.items()):
            out.append(f"  {name} x{count}")

    if summary.convergence:
        out.append("")
        out.append("== convergence (rsd first -> last) ==")
        for (group, name), events in sorted(summary.convergence.items()):
            first = (events[0].get("args") or {}).get("rsd")
            last_args = events[-1].get("args") or {}
            last = last_args.get("rsd")
            out.append(
                f"  {(group or 'all') + ':' + name:<40} "
                f"{_fmt(first)} -> {_fmt(last)}  "
                f"final {last_args.get('estimate', float('nan')):,.6g} "
                f"[{last_args.get('ci_lo', float('nan')):,.6g}, "
                f"{last_args.get('ci_hi', float('nan')):,.6g}]"
            )
    return "\n".join(out)


def _fmt(rsd: object) -> str:
    if not isinstance(rsd, (int, float)):
        return "n/a"
    return f"{rsd:.4f}"
