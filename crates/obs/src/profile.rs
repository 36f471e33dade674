//! Per-AST-span oracle-cost profiler.
//!
//! The paper's cost unit is the oracle call; this module answers *where
//! the calls went*: every [`EventKind::OracleProbe`] in a captured trace
//! attributes its latency to the source span of the probed node, the
//! distinct spans are arranged into their containment tree, and the
//! result prints as a text "flame" report — cumulative cost per span,
//! children indented under parents, hottest first.

use crate::trace::{EventKind, SrcSpan, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated cost at one source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// The source span the cost is attributed to ([`SrcSpan::EMPTY`] for
    /// the whole-program bucket).
    pub span: SrcSpan,
    /// Probes whose target was exactly this span.
    pub calls: u64,
    /// Oracle latency of exactly-this-span probes.
    pub self_ns: u64,
    /// `self_ns` plus every contained span's `total_ns`.
    pub total_ns: u64,
    /// Strictly contained spans, by source position.
    pub children: Vec<ProfileNode>,
}

/// The profile: a forest of span nodes ordered by source position, plus
/// whole-run totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanProfile {
    /// Top-level spans (plus possibly the whole-program bucket first).
    pub roots: Vec<ProfileNode>,
    /// All probes seen.
    pub total_calls: u64,
    /// Total attributed latency.
    pub total_ns: u64,
}

/// Builds the profile from a captured trace.
pub fn profile(records: &[TraceRecord]) -> SpanProfile {
    let mut per_span: BTreeMap<SrcSpan, (u64, u64)> = BTreeMap::new();
    let mut total_calls = 0;
    let mut total_ns = 0;
    for rec in records {
        if let TraceRecord::Event {
            kind: EventKind::OracleProbe { span, latency_ns, .. }, ..
        } = rec
        {
            let slot = per_span.entry(*span).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += latency_ns;
            total_calls += 1;
            total_ns += latency_ns;
        }
    }

    // The whole-program bucket (empty span) is not a source location; it
    // stands apart from the containment tree.
    let program_bucket = per_span.remove(&SrcSpan::EMPTY);

    // Sort so that a containing span precedes everything it contains:
    // ascending start, then *descending* end. A stack then builds the
    // containment forest in one pass.
    let mut spans: Vec<(SrcSpan, u64, u64)> =
        per_span.into_iter().map(|(s, (c, ns))| (s, c, ns)).collect();
    spans.sort_by(|a, b| a.0.start.cmp(&b.0.start).then(b.0.end.cmp(&a.0.end)));

    let mut roots: Vec<ProfileNode> = Vec::new();
    let mut stack: Vec<ProfileNode> = Vec::new();
    let flush = |stack: &mut Vec<ProfileNode>, roots: &mut Vec<ProfileNode>, upto: SrcSpan| {
        while let Some(top) = stack.last() {
            if top.span.contains(upto) {
                break;
            }
            let done = stack.pop().expect("non-empty");
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }
    };
    for (span, calls, self_ns) in spans {
        flush(&mut stack, &mut roots, span);
        stack.push(ProfileNode { span, calls, self_ns, total_ns: self_ns, children: Vec::new() });
    }
    flush(&mut stack, &mut roots, SrcSpan::new(u32::MAX, u32::MAX));
    if let Some((calls, self_ns)) = program_bucket {
        roots.insert(
            0,
            ProfileNode {
                span: SrcSpan::EMPTY,
                calls,
                self_ns,
                total_ns: self_ns,
                children: Vec::new(),
            },
        );
    }

    let mut profile = SpanProfile { roots, total_calls, total_ns };
    for root in &mut profile.roots {
        accumulate(root);
    }
    profile
}

fn accumulate(node: &mut ProfileNode) -> u64 {
    let mut total = node.self_ns;
    for child in &mut node.children {
        total += accumulate(child);
    }
    node.total_ns = total;
    total
}

/// Renders the profile as an indented text flame report. When `source`
/// is given, each line shows the span's line number and a trimmed
/// snippet of the covered text.
pub fn render(profile: &SpanProfile, source: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Oracle-cost profile: {} probes, {} attributed",
        profile.total_calls,
        fmt_ns(profile.total_ns)
    );
    if profile.roots.is_empty() {
        out.push_str("  (no probes recorded — was tracing enabled?)\n");
        return out;
    }
    let mut roots: Vec<&ProfileNode> = profile.roots.iter().collect();
    roots.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    for root in roots {
        render_node(&mut out, root, 0, profile.total_ns.max(1), source);
    }
    out
}

fn render_node(
    out: &mut String,
    node: &ProfileNode,
    depth: usize,
    run_total: u64,
    source: Option<&str>,
) {
    let share = node.total_ns * 100 / run_total;
    let bar_len = (node.total_ns * 24 / run_total) as usize;
    let label = match source {
        _ if node.span.is_empty() => "<whole program>".to_owned(),
        Some(src) => {
            let line = 1 + src
                .as_bytes()
                .iter()
                .take(node.span.start as usize)
                .filter(|&&b| b == b'\n')
                .count();
            format!("line {line}  `{}`", snippet(src, node.span))
        }
        None => format!("[{}..{}]", node.span.start, node.span.end),
    };
    let _ = writeln!(
        out,
        "  {:indent$}{label}  {} calls  self {}  total {} ({share}%) {bar}",
        "",
        node.calls,
        fmt_ns(node.self_ns),
        fmt_ns(node.total_ns),
        indent = depth * 2,
        bar = "▇".repeat(bar_len.max(usize::from(node.total_ns > 0 && bar_len == 0))),
    );
    let mut children: Vec<&ProfileNode> = node.children.iter().collect();
    children.sort_by_key(|c| std::cmp::Reverse(c.total_ns));
    for child in children {
        render_node(out, child, depth + 1, run_total, source);
    }
}

fn snippet(src: &str, span: SrcSpan) -> String {
    let start = (span.start as usize).min(src.len());
    let end = (span.end as usize).min(src.len());
    let mut text: String =
        src[start..end].chars().map(|c| if c == '\n' { ' ' } else { c }).collect();
    const MAX: usize = 48;
    if text.chars().count() > MAX {
        text = text.chars().take(MAX - 1).collect();
        text.push('…');
    }
    text
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{}.{:02}s", ns / 1_000_000_000, ns % 1_000_000_000 / 10_000_000)
    } else if ns >= 1_000_000 {
        format!("{}.{:02}ms", ns / 1_000_000, ns % 1_000_000 / 10_000)
    } else if ns >= 1_000 {
        format!("{}µs", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ProbeKind;

    fn probe_rec(span: SrcSpan, latency_ns: u64) -> TraceRecord {
        TraceRecord::Event {
            parent: 1,
            kind: EventKind::OracleProbe {
                probe: ProbeKind::Removal,
                target: "t".to_owned(),
                span,
                outcome: false,
                cached: false,
                faulted: false,
                latency_ns,
            },
            thread: 0,
            at_ns: 0,
        }
    }

    #[test]
    fn builds_containment_tree_with_cumulative_costs() {
        // outer [0,20) contains mid [2,10) contains inner [3,6);
        // sibling [12,18); whole-program bucket at EMPTY.
        let records = vec![
            probe_rec(SrcSpan::EMPTY, 5),
            probe_rec(SrcSpan::new(0, 20), 100),
            probe_rec(SrcSpan::new(2, 10), 30),
            probe_rec(SrcSpan::new(3, 6), 7),
            probe_rec(SrcSpan::new(12, 18), 11),
            probe_rec(SrcSpan::new(3, 6), 3), // second probe, same span
        ];
        let p = profile(&records);
        assert_eq!(p.total_calls, 6);
        assert_eq!(p.total_ns, 156);
        // Roots: the empty bucket and the outer span.
        assert_eq!(p.roots.len(), 2);
        let outer = p.roots.iter().find(|r| r.span == SrcSpan::new(0, 20)).unwrap();
        assert_eq!(outer.self_ns, 100);
        assert_eq!(outer.total_ns, 151);
        assert_eq!(outer.children.len(), 2);
        let mid = outer.children.iter().find(|c| c.span == SrcSpan::new(2, 10)).unwrap();
        assert_eq!(mid.total_ns, 40);
        assert_eq!(mid.children.len(), 1);
        assert_eq!(mid.children[0].calls, 2);
        assert_eq!(mid.children[0].self_ns, 10);
    }

    #[test]
    fn overlapping_but_not_nested_spans_become_siblings() {
        let records = vec![probe_rec(SrcSpan::new(0, 10), 1), probe_rec(SrcSpan::new(5, 15), 2)];
        let p = profile(&records);
        assert_eq!(p.roots.len(), 2);
    }

    #[test]
    fn render_shows_lines_and_snippets() {
        let src = "let x = 1\nlet y = x + true\n";
        let records =
            vec![probe_rec(SrcSpan::new(10, 26), 1000), probe_rec(SrcSpan::new(18, 26), 400)];
        let text = render(&profile(&records), Some(src));
        assert!(text.contains("Oracle-cost profile: 2 probes"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        assert!(text.contains("`x + true`"), "{text}");
        assert!(text.contains("total 1µs"), "{text}");
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let text = render(&profile(&[]), None);
        assert!(text.contains("no probes recorded"));
    }
}
