//! Acceptance proof for the what-if engine's fleet economics: one
//! `POST /v1/whatif` pays to price the 4096-design synthetic fleet
//! through the lattice sweep engine — leg traffic that scales with the
//! fleet's *signature* counts, not its point count — and every later
//! request against the same server state re-prices it entirely from the
//! runner's memo (signature entries, fused vectors, combine programs):
//! it prices no new leg, and every signature lookup is a memo hit.
//!
//! Shares the process-global telemetry registry, so this file keeps to
//! a single `#[test]` (sibling tests in one binary would interleave
//! their counter traffic; separate test binaries run sequentially).

use acs_serve::http::HttpRequest;
use acs_serve::{handle_lane, AppState};

/// Points in [`acs_dse::SweepSpec::synthetic_fleet`].
const FLEET: u64 = 4096;
/// Leg lookups a point-by-point walk would make: three legs (compute,
/// memory, collective) for each of the two phases (prefill, decode).
/// The lattice engine's whole claim is that its traffic stays far below
/// this.
const LOOKUPS_PER_POINT: u64 = 6;

fn whatif(state: &AppState, body: &str) -> (u16, String) {
    let request =
        HttpRequest { method: "POST".into(), path: "/v1/whatif".into(), body: body.into() };
    handle_lane(state, &request, None)
}

fn leg_counters(reg: &acs_telemetry::Registry) -> (u64, u64) {
    let counters = reg.counter_values();
    let get = |name: &str| {
        counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
    };
    (get("dse.factored.leg_hit"), get("dse.factored.leg_miss"))
}

#[test]
fn second_whatif_request_reprices_the_fleet_from_lattice_tables() {
    let reg = acs_telemetry::global();
    reg.enable();
    reg.reset();
    let state = AppState::new(64);

    // First request prices the fleet. The lattice engine probes and
    // prices one representative point per signature instead of walking
    // every point, so total leg traffic must come in far under six
    // lookups per point — while still paying at least one miss to fill
    // the memo.
    let (status, body) = whatif(&state, "{}");
    assert_eq!(status, 200, "baseline what-if failed: {body}");
    assert!(body.contains("\"fleet_designs\":4096"), "fleet missing from summary: {body}");
    let (hits_1, misses_1) = leg_counters(reg);
    assert!(misses_1 > 0, "a cold run must price at least one leg");
    assert!(
        hits_1 + misses_1 < FLEET * LOOKUPS_PER_POINT / 8,
        "lattice leg traffic must scale with signatures, not points \
         (saw {} lookups for {} points)",
        hits_1 + misses_1,
        FLEET,
    );

    // A different grid misses the response cache, so the handler runs
    // the fleet sweep again — and finds every signature and fused
    // vector already in the runner's memo.
    // This is the interactive what-if contract: rule iteration costs
    // classification, not simulation — every signature lookup is
    // served, none is priced.
    let (status, body) =
        whatif(&state, "{\"grid\":{\"tpp_license\":[1600,2400],\"mem_bw_license\":[0,800]}}");
    assert_eq!(status, 200, "grid what-if failed: {body}");
    let (hits_2, misses_2) = leg_counters(reg);
    assert_eq!(misses_2, misses_1, "a warm fleet sweep must not price any new legs");
    assert!(hits_2 > hits_1, "a warm fleet sweep must serve its signatures from the memo");

    // And an identical repeat never reaches the runner at all: the
    // response cache replays the stream, leg counters stay frozen.
    let (status, _) = whatif(&state, "{}");
    assert_eq!(status, 200);
    assert_eq!(leg_counters(reg), (hits_2, misses_2), "cached replay touched the runner");
    reg.disable();
}
