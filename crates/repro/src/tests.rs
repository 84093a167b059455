//! Harness-level tests: experiment registry integrity and a smoke run of
//! the cheap experiments into a temporary results directory.

use crate::util::results_dir_lock;
use crate::{run, EXPERIMENTS, EXTENSIONS};

#[test]
fn unknown_experiment_is_an_error() {
    let err = run("not-an-experiment").unwrap_err();
    assert!(err.to_string().contains("unknown experiment"));
}

#[test]
fn registry_names_are_unique_and_kebab_case() {
    let mut all: Vec<&str> = EXPERIMENTS.iter().chain(EXTENSIONS.iter()).copied().collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate experiment names");
    for name in all {
        assert!(
            name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "bad name: {name}"
        );
    }
}

#[test]
fn cheap_experiments_run_to_completion() {
    let _guard = results_dir_lock();
    let dir = std::env::temp_dir().join("acs-repro-test-results");
    std::env::set_var("ACS_RESULTS_DIR", &dir);
    for exp in
        ["table1", "table2", "fig1a", "fig1b", "fig2", "fig9", "fig10", "ext-legacy", "ext-scenarios"]
    {
        run(exp).unwrap_or_else(|e| panic!("{exp} failed: {e}"));
    }
    // CSVs landed where directed.
    assert!(dir.join("fig1a.csv").exists());
    assert!(dir.join("fig9.csv").exists());
    assert!(dir.join("ext_scenarios.csv").exists());
    std::env::remove_var("ACS_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fig1a_csv_has_one_row_per_named_device() {
    let _guard = results_dir_lock();
    let dir = std::env::temp_dir().join("acs-repro-test-results-fig1a");
    std::env::set_var("ACS_RESULTS_DIR", &dir);
    run("fig1a").unwrap();
    let content = std::fs::read_to_string(dir.join("fig1a.csv")).unwrap();
    // Header + 13 named devices.
    assert_eq!(content.lines().count(), 14);
    assert!(content.lines().next().unwrap().starts_with("device,"));
    std::env::remove_var("ACS_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(dir);
}
