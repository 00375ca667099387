//! Structured trace spans: a per-thread collector that assembles one
//! phase tree per traced operation.
//!
//! The engine calls [`begin`] before compiling (the session layer) or
//! executing (the execution funnel) a statement, the layers underneath open [`span`]s around
//! their phases (lex, parse, analyze, plan, one `scan:<pattern>` per
//! event pattern, join, score), and [`finish`] returns the assembled
//! [`SpanNode`] tree. Collection is per-thread and explicitly armed:
//! when no collector is active, [`span`] is one thread-local check and
//! records nothing, so instrumented code on un-traced paths (bulk
//! ingestion, parallel partition workers) pays effectively nothing.
//!
//! # Examples
//!
//! ```
//! use aiql_telemetry::trace;
//!
//! trace::begin("statement");
//! {
//!     let _plan = trace::span("plan");
//!     let _scan = trace::span("scan:evt1");
//! }
//! let tree = trace::finish().unwrap();
//! assert_eq!(tree.name, "statement");
//! assert_eq!(tree.children[0].name, "plan");
//! assert_eq!(tree.children[0].children[0].name, "scan:evt1");
//! ```

use std::cell::RefCell;
use std::time::Instant;

/// One node of a finished phase tree: a named phase, how long it took,
/// and the phases nested inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name (`parse`, `plan`, `scan:evt1`, ...).
    pub name: String,
    /// Wall-clock time spent in the phase, microseconds.
    pub micros: u64,
    /// Phases opened while this one was the innermost active span.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The first direct child named `name`, if any.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Direct children whose name starts with `prefix` (e.g. `scan:`).
    pub fn children_with_prefix(&self, prefix: &str) -> Vec<&SpanNode> {
        self.children
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .collect()
    }

    /// Renders the tree as an indented text listing, one phase per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{} {:.1} ms\n",
            "",
            self.name,
            self.micros as f64 / 1e3,
            indent = depth * 2
        ));
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

struct OpenSpan {
    name: String,
    start: Instant,
    children: Vec<SpanNode>,
}

thread_local! {
    /// The active collector: a stack of open spans, bottom = root.
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Starts collecting a phase tree rooted at `name` on this thread,
/// discarding any unfinished previous collection.
pub fn begin(name: &str) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.clear();
        stack.push(OpenSpan {
            name: name.to_string(),
            start: Instant::now(),
            children: Vec::new(),
        });
    });
}

/// Ends collection and returns the assembled tree, or `None` when
/// [`begin`] was never called on this thread. Spans still open (guards
/// not yet dropped) are folded into their parents as-is.
pub fn finish() -> Option<SpanNode> {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let mut node: Option<SpanNode> = None;
        while let Some(open) = stack.pop() {
            let mut closed = SpanNode {
                micros: open.start.elapsed().as_micros() as u64,
                name: open.name,
                children: open.children,
            };
            if let Some(child) = node.take() {
                closed.children.push(child);
            }
            node = Some(closed);
        }
        node
    })
}

/// Whether a collection is active on this thread.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Opens a phase span; the phase closes (and its elapsed time is
/// recorded into the tree) when the returned guard drops. A no-op when
/// no collection is active on this thread.
pub fn span(name: &str) -> SpanGuard {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.is_empty() {
            return SpanGuard { armed: false };
        }
        stack.push(OpenSpan {
            name: name.to_string(),
            start: Instant::now(),
            children: Vec::new(),
        });
        SpanGuard { armed: true }
    })
}

/// A guard for one open phase; closing happens on drop, so phases nest
/// with lexical scope.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // The root (index 0) belongs to begin/finish; a guard only ever
            // closes a span it opened itself.
            if stack.len() < 2 {
                return;
            }
            let open = stack.pop().expect("span stack underflow");
            let closed = SpanNode {
                micros: open.start.elapsed().as_micros() as u64,
                name: open.name,
                children: open.children,
            };
            stack
                .last_mut()
                .expect("parent span present")
                .children
                .push(closed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_noops_without_begin() {
        assert!(!active());
        {
            let _s = span("ignored");
        }
        assert!(finish().is_none());
    }

    #[test]
    fn tree_nests_with_lexical_scope() {
        begin("root");
        {
            let _a = span("a");
            {
                let _b = span("b");
            }
            let _c = span("c");
        }
        let _d = span("d");
        drop(_d);
        let tree = finish().unwrap();
        assert_eq!(tree.name, "root");
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "d"]);
        let a = tree.child("a").unwrap();
        let inner: Vec<&str> = a.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(inner, ["b", "c"]);
        assert!(tree.render().contains("  a "));
    }

    #[test]
    fn unfinished_spans_fold_into_parents() {
        begin("root");
        let _open = span("still-open");
        let tree = finish().unwrap();
        assert_eq!(tree.children[0].name, "still-open");
        // The leaked guard drops after finish; with no collector it is inert.
        drop(_open);
        assert!(!active());
    }

    #[test]
    fn begin_discards_previous_collection() {
        begin("first");
        let _s = span("x");
        begin("second");
        let tree = finish().unwrap();
        assert_eq!(tree.name, "second");
        assert!(tree.children.is_empty());
    }

    #[test]
    fn prefix_lookup_finds_scans() {
        begin("execute");
        {
            let _s1 = span("scan:evt1");
        }
        {
            let _s2 = span("scan:evt2");
        }
        {
            let _j = span("join");
        }
        let tree = finish().unwrap();
        assert_eq!(tree.children_with_prefix("scan:").len(), 2);
        assert!(tree.child("join").is_some());
    }
}
