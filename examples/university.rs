//! The university scenario of Example 1.1, at a realistic scale.
//!
//! Generates a synthetic university database (students, professors,
//! courses, enrolment, parenthood), then contrasts the three evaluation
//! engines on the cyclic query Q1 and the acyclic query Q2: naive joins,
//! Yannakakis on a join tree, and the Lemma 4.6 hypertree pipeline.
//!
//! ```sh
//! cargo run --release --example university
//! ```

use hypertree::prelude::*;
use std::time::Instant;

fn build_database(num_people: u64, num_courses: u64, enrolments_per_student: u64) -> Database {
    // People 0..p are professors, p..num_people are students.
    let professors = num_people / 10;
    let mut db = Database::new();
    // Deterministic pseudo-random stream (split-mix), no external deps.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };

    for c in 0..num_courses {
        let teacher = next() % professors;
        db.add_fact("teaches", &[teacher, c, 1]);
    }
    for s in professors..num_people {
        for _ in 0..enrolments_per_student {
            let course = next() % num_courses;
            db.add_fact("enrolled", &[s, course, 2024]);
        }
        // Every student has one (possibly professorial) parent.
        let parent = next() % num_people;
        db.add_fact("parent", &[parent, s]);
    }
    db
}

fn main() {
    let db = build_database(5_000, 200, 4);
    println!(
        "database: {} tuples across {} relations",
        db.total_rows(),
        db.len()
    );

    let q1 = parse_query("ans :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
    let q2 = parse_query("ans :- teaches(P,C,A), enrolled(S,C2,R), parent(P,S).").unwrap();

    for (name, q) in [("Q1 (cyclic)", &q1), ("Q2 (acyclic)", &q2)] {
        println!("\n{name}: {q}");
        let plan = Strategy::plan(q);
        println!("  plan width: {}", plan.width());

        let t = Instant::now();
        let answer = plan.boolean(q, &db, &Unlimited).unwrap();
        let decomposed_time = t.elapsed();
        println!("  decomposition-guided: {answer} in {decomposed_time:?}");

        let t = Instant::now();
        match hypertree::eval::naive::evaluate_boolean(
            q,
            &db,
            hypertree::eval::naive::JoinOrder::AsWritten,
            5_000_000,
        ) {
            Ok(naive_answer) => {
                println!(
                    "  naive (as written):   {naive_answer} in {:?}",
                    t.elapsed()
                );
                assert_eq!(naive_answer, answer, "engines must agree");
            }
            Err(e) => println!("  naive (as written):   aborted — {e}"),
        }
    }

    // Who are the students taught by their own parent?
    let open = parse_query("ans(S, C) :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
    let hits = evaluate(&open, &db).unwrap();
    println!(
        "\nstudents enrolled in a course taught by their parent: {}",
        hits.len()
    );
    for row in hits.rows().take(5) {
        println!("  student {} in course {}", row[0], row[1]);
    }
}
