//! `acs-verify`: the trust-but-verify harness.
//!
//! The reproduction prices sweeps with one production engine (the
//! lattice batch driver, which demotes unprovable points to a per-point
//! evaluator) and answers queries through a network-facing tier. This crate holds them to
//! deliberately naive oracles and a handful of reusable instruments:
//!
//! - [`reference`] — the oracles: a per-point evaluator that shares no
//!   plans, legs or caches between points, against which the sweep
//!   engine must agree bit for bit, failure ledger included; and
//!   [`reference::whatif_records`], which rebuilds every what-if record
//!   without corner pins, ledgers or memo.
//! - [`differential`] — a generic runner that evaluates any two
//!   (path, transform) arms over a sweep and diffs digests, per-point
//!   values, and failure ledgers under a [`tolerance`] class. The
//!   built-in metamorphic transforms (candidate permutation, unit
//!   rescaling, thread-count pinning) turn "this refactor
//!   moved nothing" into one declarative [`differential::DiffCase`];
//!   [`differential::whatif_grid_diff`] extends the same discipline to
//!   the what-if subsystem, diffing batch rule-grid screening against a
//!   naive one-rule-at-a-time loop, and
//!   [`differential::whatif_engine_vs_reference`] diffs every streamed
//!   what-if record against [`reference::whatif_records`].
//! - [`corpus`] — a blessed snapshot of sweep digests and anchor values
//!   (`crates/verify/corpus/golden.json`) every PR is diffed against,
//!   regenerated with `acs-verify corpus --bless`.
//! - [`fuzz`] — a SplitMix64-seeded structured fuzzer for the HTTP
//!   surface and the JSON/CSV codecs: no-panic, round-trip,
//!   chunked-arrival, and no-worker-death invariants, with findings
//!   hex-encoded for the [`regressions`] corpus.
//! - [`chaos`] — socket-fault rounds against a live server (torn reads,
//!   partial writes, stalls, disconnects on both ends of the wire),
//!   asserting the service stays healthy after the storm.
//! - [`serve_diff`] — the serve-tier oracle: a live server's answers to
//!   a replayed request corpus must equal, byte for byte, what the
//!   request handler returns in process on a fresh state (chunked
//!   streams compared after reassembly, `/v1/metrics` on status only).
//!
//! The `acs-verify` binary drives them; `scripts/ci.sh` runs the
//! corpus diff, a fixed-seed fuzz smoke, and one chaos round on every
//! build.

pub mod chaos;
pub mod corpus;
pub mod differential;
pub mod fuzz;
pub mod reference;
pub mod regressions;
pub mod serve_diff;
pub mod tolerance;

pub use chaos::{run_chaos, ChaosConfig, ChaosRound};
pub use corpus::{
    bless_corpus, check_corpus, compute_snapshot, default_corpus_path, regressions_dir, Snapshot,
};
pub use differential::{
    dense_vs_degenerate_moe_diff, design_digest, diff_reports, random_rule_grid, random_sweep_spec,
    standard_suite, whatif_engine_vs_reference, whatif_grid_64, whatif_grid_diff, Arm, DiffCase,
    DiffReport, Differential, EvalPath, Transform,
};
pub use fuzz::{run_fuzz, FuzzReport, FuzzTarget};
pub use regressions::replay_dir;
pub use serve_diff::{wire_vs_handler, ServeDiffReport};
pub use tolerance::{ulps_apart, Tolerance};
