//! Helpers shared by the golden-equivalence tests.

use acs_cache::CacheKey;
use acs_dse::{inject_faults, CandidateParams, EvaluatedDesign, SweepSpec};
use acs_errors::json::Value;
use acs_verify::design_digest;

/// Fold per-point outcomes into one digest, exactly as the golden corpus
/// does: `[index, design-digest-or-failure-kind]` rows hashed through the
/// canonical JSON cache key.
pub fn fold_digest(rows: impl IntoIterator<Item = (usize, String)>) -> u64 {
    let rows = rows
        .into_iter()
        .map(|(index, cell)| Value::Array(vec![Value::Number(index as f64), Value::String(cell)]))
        .collect();
    CacheKey::from_value(&Value::Array(rows)).digest()
}

pub fn hex_digest(design: &EvaluatedDesign) -> String {
    CacheKey::digest_hex(design_digest(design).expect("designs serialise"))
}

/// The 512-point Table-3 sweep with a fault injected every `stride`th
/// point.
pub fn faulted_table3(stride: usize) -> Vec<CandidateParams> {
    let mut candidates = SweepSpec::table3_fig6().candidates(4800.0);
    assert_eq!(candidates.len(), 512, "Table-3 sweep size");
    assert!(!inject_faults(&mut candidates, stride).is_empty());
    candidates
}
