//! One seeded violation per determinism rule of the workspace's clippy
//! configuration (`clippy.toml` plus the lint attributes below), and one
//! stale suppression. `check.sh` runs clippy here, expects it to fail,
//! and looks for every seeded finding by its line number, so move a
//! seeded line only together with its entry in `check.sh`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub fn d001_hash_order() {
    let _ = std::collections::HashMap::<u8, u8>::new();
}

pub fn d002_ambient_time() {
    let _ = std::time::Instant::now();
}

pub fn d003_random_state() {
    let _ = std::hash::RandomState::new();
}

pub fn d004_thread_identity() {
    let _ = std::thread::current();
}

pub fn d005_request_path_unwrap(v: Option<u8>) {
    let _ = v.unwrap();
}

pub fn d006_ambient_env() {
    let _ = std::env::var("BDC_WORKERS");
}

#[allow(unused_variables)]
pub fn d007_suppression_without_reason() {}

#[expect(clippy::disallowed_methods, reason = "suppresses nothing")]
pub fn stale_suppression() {}
