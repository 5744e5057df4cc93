(** Report sinks: ASCII table (via {!Bss_util.Table}), JSON, CSV, and
    Chrome [trace_event] export.

    Counters, span structure and histogram {e names} are deterministic
    for a fixed instance and algorithm; span durations and histogram
    contents are wall-clock and are not. Tests pin counter rows and
    report shape, and treat timings as opaque.

    When [dropped_events > 0] the table and JSON sinks lead with a
    prominent warning — counters stay complete, but the event stream was
    capped. *)

(** Monospace tables: a dropped-events warning (when any), spans
    (path, calls, total ms), histograms (name, count, p50/p90/p99/max),
    counters (name, value), then a one-line event count. [?events]
    (default false) additionally lists every recorded event. *)
val table : ?events:bool -> Report.t -> string

(** One JSON object: [{"counters":{...},"hists":{...},"spans":{...},
    "events":[...],"dropped_events":n}], plus a ["warning"] field when
    events were dropped. Span times in integer nanoseconds; histogram
    fields per {!Hist.to_json}. *)
val json : Report.t -> string

(** CSV with header [kind,name,value,detail]: counters
    ([counter,<name>,<value>,]), histograms
    ([hist,<name>,<count>,p50=..;p90=..;p99=..;max=..]), spans
    ([span,<path>,<calls>,<ns>]) and events ([event,<tag>,<value>,<detail>]). *)
val csv : Report.t -> string

(** [chrome_trace r] renders the report in Chrome [trace_event] JSON
    (the format [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}
    open directly): one {e pid} per recording domain, each domain's span
    tree laid out as complete (["ph":"X"]) events — children nested
    inside their parent's interval, siblings laid end to end, durations
    in microseconds — and merged counters as counter (["ph":"C"])
    events. Timestamps are synthetic offsets reconstructed from span
    totals (the collector aggregates, it does not log every interval),
    so the trace is a flamegraph of where time went, not a timeline of
    when.

    [?traces] adds sampled request traces ({!Trace_ctx.trace}) as their
    own ["requests"] process (pid 1000): one thread per trace, named by
    its trace id with the admission sequence as tid, spans as
    [cat:"request"] X events whose [args] carry [trace_id],
    [request_id] and the span's typed attributes — so a p99 histogram
    exemplar id found in a report resolves to a full span tree in the
    same file, searchable in Perfetto. Every process gets
    [process_name]/[thread_name] metadata (["ph":"M"]) events. *)
val chrome_trace : ?traces:Trace_ctx.trace list -> Report.t -> string
