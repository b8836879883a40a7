//! Determinism and contract tests of the ledger: same seed ⇒ same
//! inputs and same counts; every gate passes on any seed; the emitted
//! names are exactly the declared ones; the staged spans add up.

use ledger::json::Json;
use ledger::report::{self, MetricDef, END_TO_END, PER_LAYER};
use ledger::staged::{self, Traced};
use ledger::workload::{measure, Bench, Inputs, Window, Workload};

/// One pass: every (shape, operation) pair of a hot workload, every
/// shape of `cold_plan`, every batch of `batch_mixed`.
const SMOKE: Window = Window::Passes(1);

fn fingerprint(inputs: &Inputs) -> String {
    let mut out = String::new();
    for item in &inputs.items {
        out.push_str(&item.text);
        out.push('\n');
    }
    for db in &inputs.snapshots {
        let mut rels: Vec<_> = db.relations().collect();
        rels.sort_by_key(|(name, _)| *name);
        for (name, rel) in rels {
            out.push_str(&format!("{name}: {:?}\n", rel.rows().collect::<Vec<_>>()));
        }
    }
    out.push_str(&format!("{:?}\n{:?}\n", inputs.expected, inputs.batches));
    for pass_no in 0..3 {
        out.push_str(&format!("{:?}\n", inputs.pass_steps(pass_no)));
    }
    out
}

fn traced(workload: Workload, seed: u64) -> Traced {
    let bench = Bench::set_up(workload, seed).expect("set-up");
    staged::trace(&bench, SMOKE).expect("traced pass")
}

fn value(t: &Traced, name: &str) -> f64 {
    t.values
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .1
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = fingerprint(&Inputs::generate(w, 7).expect("generate"));
        let b = fingerprint(&Inputs::generate(w, 7).expect("generate"));
        let c = fingerprint(&Inputs::generate(w, 8).expect("generate"));
        assert_eq!(a, b, "{}: the seed must fix every input", w.name());
        assert_ne!(a, c, "{}: another seed must give other inputs", w.name());
    }
}

#[test]
fn every_workload_answers_correctly_and_passes_its_gates_on_two_seeds() {
    for w in Workload::ALL {
        for seed in [0xB11, 99] {
            // `measure` asserts the counter gates itself and returns a
            // typed error when one fails.
            let bench = Bench::set_up(w, seed).expect("set-up");
            let m = measure(&bench, SMOKE).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(m.failed, 0, "{}: wrong answers", w.name());
            assert!(m.attempted > 0);
            for op in &m.latency_ns {
                assert!(
                    !op.is_empty(),
                    "{}: an operation was never served",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn cold_plan_shapes_are_distinct_and_cyclic() {
    let inputs = Inputs::generate(Workload::ColdPlan, 1).expect("generate");
    let mut keys: Vec<String> = inputs
        .shapes
        .iter()
        .map(|s| {
            let q = cq::parse_query(&s.text).expect("generated text parses");
            let h = q.hypergraph();
            assert!(
                hypergraph::acyclic::join_tree(&h).is_none(),
                "{} is acyclic: it would never reach the decomposition cache",
                s.name
            );
            hypertree_core::DecompCache::key_of(&h)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        inputs.shapes.len(),
        "decomposition keys collide"
    );
}

#[test]
fn batch_warm_up_serves_every_shape() {
    let inputs = Inputs::generate(Workload::BatchMixed, 3).expect("generate");
    let mut served = vec![false; inputs.shapes.len()];
    for step in inputs.warm_up_steps() {
        let ledger::workload::Step::Batch(b) = step else {
            panic!("batch_mixed warms up with batches");
        };
        for req in &inputs.batches[b] {
            served[inputs.items[req.item].shape] = true;
        }
    }
    assert!(
        served.iter().all(|&s| s),
        "a shape would first compile while measured"
    );
    // A quarter of the slots, roughly, carry the α-renamed twin, and a
    // twin resolves to its original's plan.
    let twins = inputs
        .batches
        .iter()
        .flatten()
        .filter(|r| r.item >= inputs.shapes.len());
    let share = twins.count() as f64 / (inputs.batches.len() * ledger::workload::BATCH_SIZE) as f64;
    assert!((0.15..0.35).contains(&share), "twin share {share}");
}

#[test]
fn counts_repeat_bit_for_bit_and_spans_add_up() {
    for w in [Workload::HotData, Workload::ColdPlan, Workload::BatchMixed] {
        let (a, b) = (traced(w, 5), traced(w, 5));
        assert_eq!(
            a.failed,
            0,
            "{}: staged or served answers differ from the oracle",
            w.name()
        );
        assert_eq!(a.attempted, b.attempted);
        for (d, ((name, x), (_, y))) in PER_LAYER.iter().zip(a.values.iter().zip(&b.values)) {
            assert_eq!(d.name, *name, "values follow the catalogue");
            let is_time = matches!(d.unit, "ns" | "us") || name.ends_with("_overhead_ratio");
            let derived_from_time = [
                "service.unaccounted_ratio",
                "service.batch_speedup",
                "obs.phase_coverage_ratio",
            ]
            .contains(name);
            if !is_time && !derived_from_time {
                assert_eq!(x, y, "{}: count {name} must repeat exactly", w.name());
            }
        }

        // Σ chain spans + service.self_ns == mean execute, from the spans.
        let n = value(&a, "bench.staged_requests");
        let chain = a.recorder.chain_ns() as f64 / n;
        let execute = a.recorder.total_ns("service.execute_ns") as f64 / n;
        assert!((execute - value(&a, "service.execute_ns")).abs() < 1e-6);
        assert!((chain + value(&a, "service.self_ns") - execute).abs() < 1e-6);

        // Decomposers are staged on cold_plan only, twice per request.
        let calls = value(&a, "heuristics.calls");
        if w == Workload::ColdPlan {
            assert_eq!(calls, 2.0 * n);
            assert_eq!(value(&a, "service.plan_cache_hit_ratio"), 0.0);
            assert_eq!(value(&a, "core.decomp_cache_hit_ratio"), 0.0);
        } else {
            assert_eq!(calls, 0.0);
            assert_eq!(value(&a, "service.plan_cache_hit_ratio"), 1.0);
        }
    }
}

#[test]
fn hot_data_time_is_accounted_for() {
    let t = traced(Workload::HotData, 11);
    let unaccounted = value(&t, "service.unaccounted_ratio");
    assert!(
        unaccounted.abs() < 0.25,
        "a quarter of a hot_data request is outside every staged span: {unaccounted}"
    );
}

fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .expect("section")
        .elements()
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn emitted_names_are_the_declared_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let catalogue = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .expect("workloads")
        .elements()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    assert!(
        declared(&benchmark, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"),
        "the contract requires setup_s"
    );

    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(d.name), "bad metric name {:?}", d.name);
        assert!(unit_ok(d.unit), "bad unit {:?}", d.unit);
        assert!(seen.insert(d.name), "{} is declared twice", d.name);
    }
    assert!(Workload::ALL.iter().all(|w| name_ok(w.name())));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let bench = Bench::set_up(Workload::HotFront, 2).expect("set-up");
    let mut m = measure(&bench, Window::Passes(1)).expect("measure");
    let values = report::end_to_end(&mut m, 0.5);
    let line = report::result_line(
        m.failed == 0,
        m.attempted,
        m.failed,
        &report::metrics_json(&END_TO_END, &values),
    );
    let parsed = Json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = parsed.members().map(|(k, _)| k).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics: Vec<&str> = parsed
        .get("metrics")
        .expect("metrics")
        .members()
        .map(|(k, _)| k)
        .collect();
    let mut expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    expected.sort_unstable();
    assert_eq!(metrics, expected);
    for (name, v) in &values {
        assert!(*v > 0.0, "{name} must never be 0: {v}");
    }
}
