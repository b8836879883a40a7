//! Fixture: single-exec-path negatives. One body per operation, generic
//! over its context; the context-free name calls it with the no-op one.

pub trait Meter {
    fn tick(&self) -> bool;
}

pub struct NoMeter;

impl Meter for NoMeter {
    fn tick(&self) -> bool {
        true
    }
}

pub struct Relation;

pub fn join_metered<M: Meter>(left: &Relation, right: &Relation, meter: &M) -> Option<Relation> {
    let _ = (left, right);
    meter.tick().then_some(Relation)
}

pub fn join(left: &Relation, right: &Relation) -> Relation {
    join_metered(left, right, &NoMeter).unwrap_or(Relation)
}

/// A suffixed name with no unsuffixed sibling is not a twin.
pub fn decompose_governed(quota: u64) -> bool {
    quota > 0
}

#[cfg(test)]
mod tests {
    /// Test names may say what they like.
    fn join() {}

    #[test]
    fn join_sharded() {
        join();
    }
}
