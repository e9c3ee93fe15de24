"""Trace export: deterministic JSONL, Chrome trace_event, summaries.

The JSONL layout is one JSON object per line, written with sorted keys
and compact separators so two runs of the same seeded workload produce
byte-identical files:

* one ``meta`` record (run parameters + span/metric counts);
* one ``span``/``event`` record per tracer span, in creation order
  (creation order is deterministic — it is simulator execution order);
* one ``metrics`` record (the registry snapshot);
* one ``analytics`` record (the BlockTap roll-up), when a tap ran.

``chrome_trace`` converts the span records to the Chrome
``trace_event`` format (``chrome://tracing`` / Perfetto): complete
``"X"`` events with microsecond timestamps at 1 tick = 1 ms, one
``tid`` per trace id, instants as ``"i"`` events.  ``summarize``
renders the human-facing report behind ``python -m repro
trace-summary`` — per-deal timelines and the top-k slowest deals.
"""

from __future__ import annotations

import json

_TICK_US = 1000.0  # 1 simulated tick renders as 1 ms on the Chrome scale


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_records(telemetry) -> list[dict]:
    """Every export record of one run, in deterministic order."""
    meta = dict(telemetry.meta)
    meta["spans"] = len(telemetry.tracer.spans)
    records: list[dict] = [{"type": "meta", **meta}]
    records.extend(span.to_record() for span in telemetry.tracer.spans)
    records.append({"type": "metrics", **telemetry.metrics.snapshot()})
    if telemetry.tap is not None:
        records.append({"type": "analytics", **telemetry.tap.summary()})
    return records


def write_trace_jsonl(telemetry, path: str) -> int:
    """Write the run's trace as JSONL; returns the record count."""
    records = trace_records(telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_dumps(record))
            handle.write("\n")
    return len(records)


def load_trace(path: str) -> list[dict]:
    """Read a JSONL trace back into its records.

    A line that is not a JSON object raises ``ValueError`` naming the
    file and the 1-based line number.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            records.append(record)
    return records


def chrome_trace(records: list[dict]) -> dict:
    """Convert JSONL records to a Chrome ``trace_event`` document."""
    tids: dict[str, int] = {}
    for record in records:
        trace = record.get("trace")
        if record.get("type") in ("span", "event") and trace not in tids:
            tids[trace] = len(tids) + 1
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro-market"},
        }
    ]
    for trace, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": trace},
        })
    for record in records:
        kind = record.get("type")
        if kind not in ("span", "event"):
            continue
        tid = tids[record["trace"]]
        start_us = record["start"] * _TICK_US
        args = dict(record.get("attrs", ()))
        if kind == "event":
            events.append({
                "name": record["name"], "ph": "i", "s": "t",
                "ts": start_us, "pid": 1, "tid": tid, "args": args,
            })
        else:
            end = record.get("end")
            duration_us = ((end - record["start"]) if end is not None else 0.0)
            events.append({
                "name": record["name"], "ph": "X",
                "ts": start_us, "dur": duration_us * _TICK_US,
                "pid": 1, "tid": tid, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path: str) -> int:
    """Write the Chrome trace_event conversion; returns event count."""
    document = chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# Summary (the `python -m repro trace-summary` report)
# ----------------------------------------------------------------------
def _deal_rows(records: list[dict]) -> list[dict]:
    """One row per deal trace: outcome, duration, phase timeline."""
    roots: dict[str, dict] = {}
    phases: dict[str, list[dict]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        trace = record["trace"]
        if not trace.startswith("deal-"):
            continue
        if record["name"] == "deal":
            roots[trace] = record
        else:
            phases.setdefault(trace, []).append(record)
    rows = []
    for trace, root in roots.items():
        end = root.get("end")
        duration = (end - root["start"]) if end is not None else 0.0
        attrs = root.get("attrs", {})
        timeline = [
            (p["name"], (p.get("end", p["start"]) or p["start"]) - p["start"])
            for p in sorted(phases.get(trace, ()), key=lambda p: (p["start"], p["id"]))
        ]
        rows.append({
            "trace": trace,
            "index": int(trace.split("-", 1)[1]),
            "protocol": attrs.get("protocol", "?"),
            "outcome": attrs.get("outcome", "open"),
            "reason": attrs.get("reason", ""),
            "start": root["start"],
            "duration": duration,
            "timeline": timeline,
        })
    rows.sort(key=lambda row: row["index"])
    return rows


def summarize(records: list[dict], top: int = 5) -> str:
    """Render the trace summary: totals, analytics, slowest deals."""
    from repro.analysis.tables import render_table

    meta = next((r for r in records if r.get("type") == "meta"), {})
    rows = _deal_rows(records)
    outcomes: dict[str, int] = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    lines = [
        "Trace summary",
        f"  seed={meta.get('seed', '?')} shards={meta.get('shards', '?')} "
        f"replication={meta.get('replication_factor', '?')} "
        f"spans={meta.get('spans', 0)} horizon={meta.get('end_time', 0.0):.1f} ticks",
        f"  deals traced: {len(rows)} ("
        + ", ".join(f"{name} {count}" for name, count in sorted(outcomes.items()))
        + ")",
    ]
    analytics = next((r for r in records if r.get("type") == "analytics"), None)
    if analytics is not None:
        lines.append(
            f"  analytics: {analytics['blocks_ingested']} blocks, "
            f"{analytics['txs_ingested']} txs ingested, "
            f"{analytics['deals_committed']} commits observed"
        )
        hotspots = analytics.get("conflict_hotspots") or []
        if hotspots:
            lines.append(
                "  conflict hot-spots: "
                + ", ".join(f"shard {s}: {n}" for s, n in hotspots)
            )
        for protocol, pcts in (analytics.get("latency_percentiles") or {}).items():
            lines.append(
                f"  latency [{protocol}]: "
                + " ".join(f"{q}={v:.2f}" for q, v in sorted(pcts.items()))
            )
    slowest = sorted(
        (row for row in rows if row["outcome"] == "committed"),
        key=lambda row: (-row["duration"], row["index"]),
    )[:top]
    if slowest:
        table_rows = [
            [
                row["trace"],
                row["protocol"],
                f"{row['duration']:.2f}",
                " > ".join(
                    f"{name} {duration:.2f}" for name, duration in row["timeline"]
                ),
            ]
            for row in slowest
        ]
        lines.append(render_table(
            ["deal", "protocol", "ticks", "phase timeline (ticks)"],
            table_rows,
            title=f"Top {len(slowest)} slowest committed deals",
        ))
    return "\n".join(lines)
