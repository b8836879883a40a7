//! EXPLAIN / EXPLAIN ANALYZE: a structured, renderable description of
//! a prepared plan.
//!
//! [`PlanExplain`] is plain data assembled by the serving layer from a
//! prepared query: decomposition shape, width, and provenance; the
//! join-tree topology with per-node variable bags and λ edge covers;
//! and cache hit/miss lineage. It renders as a stable JSON document (schema
//! [`EXPLAIN_SCHEMA`]) or as a tree-style text form, and — given a
//! real execution's [`QueryTrace`] — as an EXPLAIN ANALYZE tree
//! annotated with per-node row counts and per-phase wall time.

use std::fmt::Write as _;

use crate::export::json_string;
use crate::phase::Phase;
use crate::trace::{fmt_ns, QueryTrace};

/// Schema tag stamped into the EXPLAIN JSON form; bump on breaking
/// change.
pub const EXPLAIN_SCHEMA: &str = "obs-explain/3";

/// One node of the plan tree: a variable bag (χ for hypertrees, the
/// atom's variables for join trees) and the edge cover that supplies
/// it (λ for hypertrees, the single atom for join trees).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainNode {
    /// Node id — the node's index in the plan's rooted tree, aligned
    /// with [`QueryTrace::node_rows`] indices.
    pub id: usize,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Depth in the tree (root = 0); drives text-tree indentation.
    pub depth: usize,
    /// Variable bag at this node.
    pub bag: Vec<String>,
    /// Covering hyperedges (atom names) at this node.
    pub cover: Vec<String>,
}

/// A structured EXPLAIN of one prepared plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanExplain {
    /// The query text the plan was prepared from.
    pub query: String,
    /// Canonical plan key (variables renamed positionally), the same
    /// key the plan cache and per-plan statistics use.
    pub plan_key: String,
    /// Plan shape: `join-tree` or `hypertree`.
    pub kind: &'static str,
    /// Plan width (1 for join trees, hypertree width otherwise).
    pub width: u64,
    /// Decomposition provenance: `acyclic` for join trees; for
    /// hypertrees `exact`, `heuristic-optimal`, or `heuristic` when
    /// this prepare ran the decomposer, `cached` when the
    /// decomposition came from the decomposition cache.
    pub provenance: &'static str,
    /// Whether the plan cache supplied the plan (`None` if unknown).
    pub plan_cache_hit: Option<bool>,
    /// Whether the decomposition cache hit when the plan was prepared
    /// (`None` for join trees).
    pub decomp_cache_hit: Option<bool>,
    /// The plan tree in pre-order (parents precede children).
    pub nodes: Vec<ExplainNode>,
}

impl PlanExplain {
    /// Tree-style text rendering (EXPLAIN).
    pub fn render(&self) -> String {
        self.render_inner(None)
    }

    /// Tree-style text rendering annotated with a real execution's
    /// trace (EXPLAIN ANALYZE): per-node rows built against their bound
    /// (`built/bound`, flagged `disconnected` where building took a
    /// Cartesian product), survivors, per-phase wall time, and totals.
    pub fn render_analyzed(&self, trace: &QueryTrace) -> String {
        self.render_inner(Some(trace))
    }

    fn render_inner(&self, trace: Option<&QueryTrace>) -> String {
        let mut out = String::new();
        let verb = if trace.is_some() {
            "EXPLAIN ANALYZE"
        } else {
            "EXPLAIN"
        };
        let _ = writeln!(out, "{verb} {}", self.query);
        let _ = writeln!(
            out,
            "  plan: kind={} width={} provenance={}",
            self.kind, self.width, self.provenance
        );
        let cache = |v: Option<bool>| match v {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "-",
        };
        let _ = writeln!(
            out,
            "  cache: plan={} decomp={}",
            cache(self.plan_cache_hit),
            cache(self.decomp_cache_hit)
        );
        out.push_str("  tree:\n");
        for n in &self.nodes {
            let _ = write!(out, "  {}", "  ".repeat(n.depth + 1));
            let _ = write!(
                out,
                "[{}] χ{{{}}} λ{{{}}}",
                n.id,
                n.bag.join(","),
                n.cover.join(",")
            );
            if let Some(t) = trace {
                if let Some(nr) = t.node_rows.get(n.id) {
                    let _ = write!(
                        out,
                        "  built/bound={}/{}{}  rows {}→{} scanned={}",
                        nr.rows_in,
                        nr.rows_bound,
                        if nr.disconnected { " disconnected" } else { "" },
                        nr.rows_in,
                        nr.rows_out,
                        nr.rows_scanned
                    );
                }
            }
            out.push('\n');
        }
        if let Some(t) = trace {
            out.push_str("  phases:\n");
            for p in Phase::ALL {
                let ns = t.phase(p);
                if ns > 0 {
                    let _ = writeln!(out, "    {:<10} {:>10}", p.as_str(), fmt_ns(ns));
                }
            }
            let _ = writeln!(
                out,
                "  actual: total={} rows scanned={} emitted={} bytes={} steps={}{}",
                fmt_ns(t.total_ns),
                t.rows_scanned,
                t.rows_emitted,
                t.bytes_charged,
                t.steps_charged,
                if t.truncated { " TRUNCATED" } else { "" }
            );
        }
        out
    }

    /// Stable JSON form (schema [`EXPLAIN_SCHEMA`]).
    pub fn to_json(&self) -> String {
        self.json_inner(None)
    }

    /// JSON form with an `analyze` section and per-node row counts
    /// (built, bound, survivors, scanned) from a real execution's trace.
    pub fn to_json_analyzed(&self, trace: &QueryTrace) -> String {
        self.json_inner(Some(trace))
    }

    fn json_inner(&self, trace: Option<&QueryTrace>) -> String {
        let opt_bool = |v: Option<bool>| match v {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(EXPLAIN_SCHEMA));
        let _ = writeln!(out, "  \"query\": {},", json_string(&self.query));
        let _ = writeln!(out, "  \"plan_key\": {},", json_string(&self.plan_key));
        let _ = writeln!(out, "  \"kind\": {},", json_string(self.kind));
        let _ = writeln!(out, "  \"width\": {},", self.width);
        let _ = writeln!(out, "  \"provenance\": {},", json_string(self.provenance));
        let _ = writeln!(
            out,
            "  \"plan_cache_hit\": {},",
            opt_bool(self.plan_cache_hit)
        );
        let _ = writeln!(
            out,
            "  \"decomp_cache_hit\": {},",
            opt_bool(self.decomp_cache_hit)
        );
        out.push_str("  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(out, "    {{\"id\": {}, \"parent\": ", n.id);
            match n.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ", \"depth\": {}, \"bag\": [", n.depth);
            for (j, v) in n.bag.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(v));
            }
            out.push_str("], \"cover\": [");
            for (j, e) in n.cover.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(e));
            }
            out.push(']');
            if let Some(t) = trace {
                if let Some(nr) = t.node_rows.get(n.id) {
                    let _ = write!(
                        out,
                        ", \"rows\": {{\"in\": {}, \"bound\": {}, \"disconnected\": {}, \
                         \"out\": {}, \"scanned\": {}}}",
                        nr.rows_in, nr.rows_bound, nr.disconnected, nr.rows_out, nr.rows_scanned
                    );
                }
            }
            out.push('}');
            if i + 1 < self.nodes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        if let Some(t) = trace {
            out.push_str(",\n  \"analyze\": {");
            let _ = write!(
                out,
                "\"op\": {}, \"total_ns\": {}, \"rows_scanned\": {}, \"rows_emitted\": {}, \
                 \"bytes_charged\": {}, \"steps_charged\": {}, \"truncated\": {}",
                json_string(t.op),
                t.total_ns,
                t.rows_scanned,
                t.rows_emitted,
                t.bytes_charged,
                t.steps_charged,
                t.truncated
            );
            out.push_str(", \"phases\": {");
            let mut first = true;
            for p in Phase::ALL {
                let ns = t.phase(p);
                if ns > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "{}: {}", json_string(p.as_str()), ns);
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NodeRows;

    fn sample() -> PlanExplain {
        PlanExplain {
            query: "ans :- p0(A,B), p0(B,C), p0(C,A).".into(),
            plan_key: "ans:-p0(#0,#1),p0(#1,#2),p0(#2,#0)".into(),
            kind: "hypertree",
            width: 2,
            provenance: "heuristic",
            plan_cache_hit: Some(false),
            decomp_cache_hit: Some(false),
            nodes: vec![
                ExplainNode {
                    id: 0,
                    parent: None,
                    depth: 0,
                    bag: vec!["A".into(), "B".into(), "C".into()],
                    cover: vec!["p0".into(), "p0".into()],
                },
                ExplainNode {
                    id: 1,
                    parent: Some(0),
                    depth: 1,
                    bag: vec!["C".into(), "A".into()],
                    cover: vec!["p0".into()],
                },
            ],
        }
    }

    fn sample_trace() -> QueryTrace {
        let mut t = QueryTrace {
            op: "enumerate",
            total_ns: 12_345,
            rows_scanned: 40,
            rows_emitted: 3,
            ..QueryTrace::default()
        };
        t.phase_ns[Phase::Reduce.index()] = 5_000;
        t.node_rows = vec![
            NodeRows {
                rows_in: 9,
                rows_bound: 25,
                disconnected: false,
                rows_out: 3,
                rows_scanned: 30,
            },
            NodeRows {
                rows_in: 3,
                rows_bound: 5,
                disconnected: true,
                rows_out: 3,
                rows_scanned: 10,
            },
        ];
        t
    }

    #[test]
    fn render_shows_topology_and_provenance() {
        let text = sample().render();
        assert!(text.starts_with("EXPLAIN ans"));
        assert!(text.contains("kind=hypertree width=2 provenance=heuristic"));
        assert!(text.contains("[0] χ{A,B,C} λ{p0,p0}"));
        assert!(text.contains("[1] χ{C,A} λ{p0}"));
        assert!(text.contains("cache: plan=miss decomp=miss"));
        // Child indented one level deeper than root.
        let root_at = text.lines().find(|l| l.contains("[0]")).unwrap();
        let child_at = text.lines().find(|l| l.contains("[1]")).unwrap();
        let indent = |l: &str| l.chars().take_while(|c| *c == ' ').count();
        assert!(indent(child_at) > indent(root_at));
    }

    #[test]
    fn render_analyzed_annotates_nodes_and_phases() {
        let text = sample().render_analyzed(&sample_trace());
        assert!(text.starts_with("EXPLAIN ANALYZE"));
        assert!(text.contains("built/bound=9/25  rows 9→3 scanned=30"));
        assert!(text.contains("built/bound=3/5 disconnected  rows 3→3 scanned=10"));
        assert!(text.contains("reduce"));
        assert!(text.contains("actual: total="));
    }

    #[test]
    fn json_forms_are_balanced_and_tagged() {
        let ex = sample();
        for json in [ex.to_json(), ex.to_json_analyzed(&sample_trace())] {
            assert!(json.contains("\"schema\": \"obs-explain/3\""));
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(
                    json.matches(open).count(),
                    json.matches(close).count(),
                    "unbalanced {open}{close}"
                );
            }
        }
        let analyzed = ex.to_json_analyzed(&sample_trace());
        assert!(analyzed.contains("\"analyze\": {"));
        assert!(analyzed.contains(
            "\"rows\": {\"in\": 9, \"bound\": 25, \"disconnected\": false, \"out\": 3, \"scanned\": 30}"
        ));
        assert!(!ex.to_json().contains("\"analyze\""));
    }
}
