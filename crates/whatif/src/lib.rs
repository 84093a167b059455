//! Policy what-if engine: screen alternative export-control regimes —
//! singly or as whole rule grids — against the curated device DB and a
//! priced synthetic design fleet, producing per-variant classification
//! deltas, performance-indicator shifts, and externality accounting.
//!
//! This is the paper's §5 "architecture-first policy design" loop as a
//! subsystem: a [`RuleSpec`] parameterizes every threshold of the
//! published 2022/2023/2024 generations (plus the hypothetical
//! memory-bandwidth rule of `acs_policy::MemBwRule`); a [`RuleGrid`]
//! sweeps those thresholds like any other lattice axis; the
//! [`WhatIfEngine`] screens each variant and emits one canonical-JSON
//! record per variant through a caller-supplied sink — which is how
//! acs-serve streams `/v1/whatif` responses over chunked
//! transfer-encoding.
//!
//! The fleet is priced by the caller (through the lattice `DseRunner`
//! engine, whose memo persists across requests) and handed to the
//! engine in its compact, name-free [`PricedFleet`] form, so a whole
//! rule grid re-screens the fleet at classification cost, not
//! simulation cost, and a service can keep a priced fleet for every
//! request that names it.
//!
//! # Example
//!
//! ```
//! use acs_whatif::{RuleGrid, WhatIfEngine};
//!
//! let engine = WhatIfEngine::paper_default();
//! let (summary, records) = engine.run(&RuleGrid::baseline(), &[]).unwrap();
//! assert_eq!(summary.variants, 1);
//! assert_eq!(summary.devices, 65);
//! // The baseline regime flips nothing relative to itself.
//! let devices = records[0].require("devices").unwrap();
//! assert!(devices.require("newly_restricted").unwrap().as_array().unwrap().is_empty());
//! ```

pub mod engine;
pub mod fleet;
pub mod grid;
pub mod ledger;
pub mod rules;

pub use engine::{WhatIfConfig, WhatIfEngine, WhatIfSummary};
pub use fleet::PricedFleet;
pub use grid::{RuleGrid, WhatIfRequest, AXES, MAX_RULE_VARIANTS};
pub use ledger::{ClassificationLedger, LedgerCounts, LedgerDelta};
pub use rules::RuleSpec;
