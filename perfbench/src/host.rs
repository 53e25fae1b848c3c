//! Host facts recorded with every run, and process memory readings.

use stc::pipeline::Json;

/// The host stamp of a run: core count, CPU model and build profile, so
/// figures from different machines are never compared unknowingly.
pub fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::Object(vec![
        ("available_parallelism".into(), Json::from_usize(cores)),
        ("cpu_model".into(), Json::String(cpu_model())),
        (
            "profile".into(),
            Json::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, or `None` where `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
