//! Comparing `bench-all/1` runs against the bounds `BENCHMARK.json`
//! fixes: one pair of runs ([`compare`]) or ten and more alternating
//! pairs under the guide's noise rule ([`compare_pairs`]).

use crate::json::Json;
use crate::stats::{median, quartiles};

/// The regression bound of one end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may get worse.
    pub bound: f64,
}

impl Bound {
    /// By what share of `base` is `new` worse (negative: better)?
    pub fn worse_by(&self, base: f64, new: f64) -> f64 {
        let gain = if self.higher_is_better {
            new - base
        } else {
            base - new
        };
        -gain / base
    }
}

/// Read the end-to-end bounds out of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let listed = benchmark
        .get("end_to_end")
        .map(Json::elements)
        .filter(|l| !l.is_empty())
        .ok_or("BENCHMARK.json: no end_to_end metrics")?;
    listed
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

fn metric(run: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    run.get("entries")?
        .get(workload)?
        .get(section)?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn error_rate(run: &Json, workload: &str) -> Option<f64> {
    run.get("entries")?
        .get(workload)?
        .get("error_rate")?
        .as_f64()
}

fn workloads(run: &Json) -> Result<Vec<&str>, String> {
    if run.get("schema").and_then(Json::as_str) != Some(crate::report::SCHEMA) {
        return Err(format!("not a {} run", crate::report::SCHEMA));
    }
    Ok(run
        .get("entries")
        .map(|e| e.members().map(|(name, _)| name).collect())
        .unwrap_or_default())
}

/// One (workload, metric) comparison of a base run `a` and a new run `b`.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The base run's value.
    pub base: f64,
    /// The new run's value.
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better). On an
    /// informational row, which has no direction, the signed change.
    pub worse_by: f64,
    /// The allowed share, `None` for informational rows.
    pub bound: Option<f64>,
    /// `worse_by` exceeds the bound (or `error_rate` rose).
    pub regressed: bool,
}

impl Row {
    /// `new ÷ base`, the ratio printed beside its base.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

/// Per-layer rows are printed only when they moved by at least this
/// share; they never fail a comparison.
pub const LAYER_NOTE_THRESHOLD: f64 = 0.05;

/// The comparison of two runs.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric), plus `error_rate`.
    pub end_to_end: Vec<Row>,
    /// Per-layer metrics that moved by [`LAYER_NOTE_THRESHOLD`] or more.
    pub per_layer: Vec<Row>,
}

impl Comparison {
    /// Did any end-to-end metric worsen past its bound?
    pub fn regressed(&self) -> bool {
        self.end_to_end.iter().any(|r| r.regressed)
    }
}

/// Compare new run `b` against base run `a`.
pub fn compare(bounds: &[Bound], a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let in_b = workloads(b)?;
    for w in workloads(a)? {
        if !in_b.contains(&w) {
            return Err(format!("workload {w} is missing from the new run"));
        }
        for bound in bounds {
            let value = |run, side| {
                metric(run, w, "end_to_end", &bound.name)
                    .ok_or_else(|| format!("{w}/{}: missing from the {side} run", bound.name))
            };
            let (base, new) = (value(a, "base")?, value(b, "new")?);
            let worse_by = bound.worse_by(base, new);
            out.end_to_end.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                base,
                new,
                worse_by,
                bound: Some(bound.bound),
                regressed: worse_by > bound.bound,
            });
        }
        let (base, new) = (
            error_rate(a, w).unwrap_or(0.0),
            error_rate(b, w).ok_or_else(|| format!("{w}/error_rate: missing from the new run"))?,
        );
        out.end_to_end.push(Row {
            workload: w.to_string(),
            metric: "error_rate".to_string(),
            base,
            new,
            worse_by: new - base,
            bound: Some(0.0),
            regressed: new > base,
        });
        let layers = a
            .get("entries")
            .and_then(|e| e.get(w))
            .and_then(|e| e.get("per_layer"));
        for (name, _) in layers.into_iter().flat_map(Json::members) {
            let (Some(base), Some(new)) = (
                metric(a, w, "per_layer", name),
                metric(b, w, "per_layer", name),
            ) else {
                continue;
            };
            let moved = (new - base) / base;
            if base != 0.0 && moved.abs() >= LAYER_NOTE_THRESHOLD {
                out.per_layer.push(Row {
                    workload: w.to_string(),
                    metric: name.to_string(),
                    base,
                    new,
                    worse_by: moved,
                    bound: None,
                    regressed: false,
                });
            }
        }
    }
    Ok(out)
}

/// What ten or more alternating pairs say about one (workload, metric).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B won at least nine tenths of the pairs *and* the medians differ
    /// by more than the spread between A's own runs.
    Gain,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A's own spread is wider than the bound and B's runs do not all
    /// beat A's: the data cannot tell unchanged from regressed.
    Unresolved,
    /// Neither a demonstrated gain nor a regression.
    Unchanged,
}

/// One (workload, metric) row of a paired comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct PairRow {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the A (parent) runs.
    pub median_a: f64,
    /// Median of the B (change) runs.
    pub median_b: f64,
    /// Inter-quartile distance of the A runs.
    pub spread_a: f64,
    /// Pairs B won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The rule's verdict.
    pub verdict: Verdict,
}

/// Fewest pairs the rule accepts.
pub const MIN_PAIRS: usize = 10;

/// Apply the guide's rule to alternating `(A, B)` run pairs: claim a gain
/// only when B wins ≥ 9/10 of all pairs and the medians differ by more
/// than A's inter-quartile spread; report a regression when B's median is
/// worse than A's by more than the metric's bound.
pub fn compare_pairs(bounds: &[Bound], pairs: &[(Json, Json)]) -> Result<Vec<PairRow>, String> {
    if pairs.len() < MIN_PAIRS {
        return Err(format!(
            "{} pairs given, the rule needs at least {MIN_PAIRS}",
            pairs.len()
        ));
    }
    let mut rows = Vec::new();
    for w in workloads(&pairs[0].0)? {
        for bound in bounds {
            let side = |pick: fn(&(Json, Json)) -> &Json| {
                pairs
                    .iter()
                    .map(|p| {
                        metric(pick(p), w, "end_to_end", &bound.name)
                            .ok_or_else(|| format!("{w}/{}: missing from a run", bound.name))
                    })
                    .collect::<Result<Vec<f64>, String>>()
            };
            let (a, b) = (side(|p| &p.0)?, side(|p| &p.1)?);
            let wins = a
                .iter()
                .zip(&b)
                .filter(|(&a, &b)| bound.worse_by(a, b) < 0.0)
                .count();
            let (median_a, median_b) = (median(&a), median(&b));
            let (q1, q3) = quartiles(&a);
            let spread_a = q3 - q1;
            let worse_by = bound.worse_by(median_a, median_b);
            let b_always_better = b
                .iter()
                .all(|&b| a.iter().all(|&a| bound.worse_by(a, b) < 0.0));
            let verdict = if wins * 10 >= pairs.len() * 9 && (median_b - median_a).abs() > spread_a
            {
                Verdict::Gain
            } else if worse_by > bound.bound {
                Verdict::Regression
            } else if spread_a / median_a > bound.bound && !b_always_better {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            };
            rows.push(PairRow {
                workload: w.to_string(),
                metric: bound.name.clone(),
                median_a,
                median_b,
                spread_a,
                wins,
                pairs: pairs.len(),
                verdict,
            });
        }
    }
    Ok(rows)
}
