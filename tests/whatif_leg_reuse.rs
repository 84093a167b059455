//! Acceptance proof for the what-if engine's fleet economics: one
//! `POST /v1/whatif` pays to price the 4096-design synthetic fleet
//! through the lattice sweep engine — leg traffic that scales with the
//! fleet's *signature* counts, not its point count — and keeps the
//! priced fleet in the server state. Every later request on the same
//! fleet (same scenario and TPP target, any grid) only screens it: it
//! never reaches the runner, so the leg counters stay frozen. A request
//! at a new TPP target prices a new fleet through the same runner.
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

    // A different grid misses the response cache, so the handler
    // screens the fleet again — the one the first request priced, kept
    // in the server state. This is the interactive what-if contract:
    // rule iteration costs classification, not pricing — the runner is
    // not consulted at all, so neither leg counter moves.
    let (status, body) =
        whatif(&state, "{\"grid\":{\"tpp_license\":[1600,2400],\"mem_bw_license\":[0,800]}}");
    assert_eq!(status, 200, "grid what-if failed: {body}");
    assert_eq!(
        leg_counters(reg),
        (hits_1, misses_1),
        "a what-if on a priced fleet must not reach the runner"
    );

    // An identical repeat is replayed by the response cache: leg
    // counters stay frozen too.
    let (status, _) = whatif(&state, "{}");
    assert_eq!(status, 200);
    assert_eq!(leg_counters(reg), (hits_1, misses_1), "cached replay touched the runner");

    // A new TPP target is a new fleet: it prices through the runner.
    let (status, body) = whatif(&state, "{\"tpp_target\":1600}");
    assert_eq!(status, 200, "1600-TPP what-if failed: {body}");
    let (hits_3, misses_3) = leg_counters(reg);
    assert!(
        hits_3 + misses_3 > hits_1 + misses_1,
        "a what-if at a new TPP target must price its fleet through the runner"
    );
    reg.disable();
}
