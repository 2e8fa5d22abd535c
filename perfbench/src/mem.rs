//! Memory measured from outside the program (the workspace forbids unsafe
//! code, so no counting allocator): resident-set figures from
//! `/proc/self/status`.

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM") as f64 / 1024.0
}

/// Current resident set (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS") * 1024
}
