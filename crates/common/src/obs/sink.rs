//! Renderers over a finished [`Trace`]: the `EXPLAIN ANALYZE` tree and the
//! Chrome-trace-format JSON export.

use super::trace::{AttemptStats, Trace};
use std::fmt::Write as _;
use std::sync::Arc;

/// Render one attempt's estimated-vs-actual table as an annotated plan
/// tree, mirroring `plan::explain` indentation.
///
/// Each line reads:
///
/// ```text
/// HashJoin (dist=hash[0], width=5, rows est=1000 act=998, batches=2, self=0.412 ms)
/// ```
///
/// with `shipped=<bytes> B in <n> msgs` appended on Exchange nodes — what
/// their producers were charged for, same-site hand-offs excluded. `act` sums all
/// parallel instances of the operator; `self` is inclusive busy time minus
/// the children's inclusive busy time (an Exchange consumer's self-time
/// therefore includes time blocked on the wire).
pub fn render_explain_analyze(attempt: &AttemptStats) -> String {
    let mut out = String::new();
    for (i, op) in attempt.ops().iter().enumerate() {
        let node = i as u32;
        let pad = "  ".repeat(op.depth as usize);
        let sep = if op.detail.is_empty() { "" } else { ", " };
        let _ = write!(
            out,
            "{pad}{} ({}{}rows est={:.0} act={}, batches={}, self={:.3} ms",
            op.label,
            op.detail,
            sep,
            op.est_rows,
            attempt.rows(node),
            attempt.batches(node),
            attempt.self_ns(node) as f64 / 1e6,
        );
        let msgs = attempt.shipped_msgs(node);
        if msgs > 0 {
            let _ = write!(out, ", shipped={} B in {msgs} msgs", attempt.shipped_bytes(node));
        }
        let inst = attempt.instances(node);
        if inst > 1 {
            let _ = write!(out, ", instances={inst}");
        }
        out.push_str(")\n");
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize the trace in Chrome trace-event format (the JSON object form,
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// Spans become `ph:"X"` complete events (microsecond `ts`/`dur`), instant
/// events become `ph:"i"`, and lane names are emitted as `thread_name`
/// metadata so each fragment instance gets its own labelled row.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };
    for (lane, name) in trace.lanes().iter().enumerate() {
        sep(&mut out, &mut first);
        out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{lane}");
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        push_json_str(&mut out, name);
        out.push_str("}}");
    }
    for s in trace.spans() {
        sep(&mut out, &mut first);
        out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", s.lane);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &s.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, s.cat);
        let _ = write!(
            out,
            ",\"ts\":{:.3},\"dur\":{:.3}",
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3
        );
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"span_id\":{}", s.id.0);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{}", p.0);
        }
        for (k, v) in &s.args {
            out.push(',');
            push_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
    }
    for e in trace.events() {
        sep(&mut out, &mut first);
        out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", e.lane);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &e.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, e.cat);
        let _ = write!(out, ",\"ts\":{:.3}", e.ts_ns as f64 / 1e3);
        out.push_str(",\"args\":{\"detail\":");
        push_json_str(&mut out, &e.detail);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Renders a finished trace: `EXPLAIN ANALYZE` text and Chrome-trace JSON.
pub struct TraceSink {
    trace: Arc<Trace>,
}

impl TraceSink {
    /// Wrap a trace for rendering.
    pub fn new(trace: Arc<Trace>) -> TraceSink {
        TraceSink { trace }
    }

    /// The annotated plan tree for the attempt that produced the result
    /// (the last registered attempt), or `None` if no attempt executed.
    pub fn explain_analyze(&self) -> Option<String> {
        self.trace.attempts().last().map(|a| render_explain_analyze(a))
    }

    /// The full trace as Chrome-trace JSON.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.trace)
    }

    /// Write the Chrome-trace JSON to `path` (creating parent directories).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::OpMeta;

    fn sample_trace() -> Arc<Trace> {
        let t = Trace::new();
        let root = t.span("query", "query", None, 0);
        let lane = t.lane("f1 @s2");
        let frag = t.span("fragment f1", "fragment", Some(root.id()), lane);
        t.event("net.fault", "net", lane, "s1->s2: link \"drop\"");
        drop(frag);
        drop(root);
        t
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let t = sample_trace();
        let json = chrome_trace_json(&t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces and quotes-escaped payload.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("link \\\"drop\\\""));
    }

    #[test]
    fn explain_analyze_renders_est_vs_act() {
        let t = Trace::new();
        let attempt = t.register_attempt(vec![
            OpMeta {
                label: "HashJoin".into(),
                detail: "dist=hash[0]".into(),
                parent: None,
                depth: 0,
                est_rows: 1000.0,
            },
            OpMeta {
                label: "Scan lineitem".into(),
                detail: "dist=hash[0]".into(),
                parent: Some(0),
                depth: 1,
                est_rows: 6000.0,
            },
        ]);
        attempt.record_next(0, 998, 3_000_000, true);
        attempt.record_next(1, 6005, 1_000_000, true);
        attempt.record_shipped(1, 4000);
        attempt.record_shipped(1, 96);
        let text = TraceSink::new(t).explain_analyze().expect("one attempt");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("rows est=1000 act=998"));
        assert!(lines[0].contains("self=2.000 ms"));
        assert!(lines[1].starts_with("  Scan lineitem"));
        assert!(lines[1].contains("shipped=4096 B in 2 msgs"));
    }
}
