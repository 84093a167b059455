//! Output helpers shared by the experiments.

use std::error::Error;
use std::fs;
use std::path::PathBuf;

/// Resolve the results directory (`ACS_RESULTS_DIR` or `./results`),
/// creating it if needed.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn results_dir() -> Result<PathBuf, Box<dyn Error>> {
    let dir = std::env::var_os("ACS_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write a CSV file into the results directory and report its path.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<(), Box<dyn Error>> {
    let path = results_dir()?.join(name);
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "row width mismatch in {name}");
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out)?;
    println!("  [csv] {}", path.display());
    Ok(())
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Format seconds as milliseconds with 3 decimals.
#[must_use]
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Format a fraction as a signed percentage.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Serialises the tests that point the process-global `ACS_RESULTS_DIR`
/// at their own directory: the test runner is multi-threaded, and one
/// test's `set_var` would otherwise redirect another's CSVs mid-run.
#[cfg(test)]
pub(crate) fn results_dir_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test holding the lock must not fail the others with it.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.2629), "262.900");
        assert_eq!(pct(0.27), "+27.0%");
        assert_eq!(pct(-0.012), "-1.2%");
    }

    #[test]
    fn write_csv_creates_file() {
        let _guard = results_dir_lock();
        std::env::set_var("ACS_RESULTS_DIR", std::env::temp_dir().join("acs-test-results"));
        write_csv("t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let content =
            std::fs::read_to_string(std::env::temp_dir().join("acs-test-results/t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::env::remove_var("ACS_RESULTS_DIR");
    }
}
