// lint-fixture: as=crates/sim/src/fixture.rs
//! Fixture: exactly one `api-meetinglog-to-vec` finding — a view
//! materialised with `.to_vec()` inside an engine crate.

pub fn snapshot_view(entries: &[u64]) -> Vec<u64> {
    entries.to_vec()
}
