//! Fixture: single-exec-path positives. A second copy of an operation,
//! named by the execution path it serves, beside the operation itself.

pub struct Relation;

pub fn join(left: &Relation, right: &Relation) -> Relation {
    let _ = (left, right);
    Relation
}

pub fn join_sharded(left: &Relation, right: &Relation, shards: usize) -> Relation {
    let _ = shards;
    join(left, right)
}

pub fn join_governed(left: &Relation, right: &Relation, quota: u64) -> Option<Relation> {
    (quota > 0).then(|| join(left, right))
}

pub struct Pipeline;

impl Pipeline {
    pub fn count(&self) -> u128 {
        0
    }

    pub fn count_observed(&self, spans: &mut Vec<&'static str>) -> u128 {
        spans.push("count");
        self.count()
    }
}
