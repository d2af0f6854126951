//! E9 — development effort of retrofitting SDRaD, against the paper's
//! 484 wrapper lines in two Memcached files (§II).
//!
//! For each retrofitted app, count the non-test lines that exist
//! *because of* the SDRaD integration (they mention the domain API)
//! against the app's size, beside the SDRaD-FFI macro path (§III). The
//! counts follow the sources, so they are `info`.

use crate::Report;

/// App sources, embedded at compile time so the count is always in sync
/// with the code actually built.
const APPS: [(&str, &str, &str); 3] = [
    (
        "kvstore (Memcached analogue)",
        "server.rs",
        include_str!("../../../kvstore/src/server.rs"),
    ),
    (
        "httpd (NGINX analogue)",
        "server.rs",
        include_str!("../../../httpd/src/server.rs"),
    ),
    (
        "tls (OpenSSL analogue)",
        "heartbeat.rs",
        include_str!("../../../tls/src/heartbeat.rs"),
    ),
];

/// Markers identifying SDRaD-integration lines.
const MARKERS: [&str; 8] = [
    "DomainManager",
    "DomainConfig",
    "DomainError",
    "DomainPolicy",
    "mgr.call",
    "env.",
    "Isolation::Domain",
    "rewind",
];

/// The SDRaD-FFI macro path: the same containment in a handful of lines.
const MACRO_EXAMPLE: &str = r"sandboxed! {
    pub fn legacy_checksum(data: Vec<u8>) -> u32 {
        ...body unchanged...
    } recover |_err| 0
}";

/// Non-test, non-comment lines of `source`, and how many of them are
/// SDRaD integration.
fn count_integration_lines(source: &str) -> (usize, usize) {
    let code = source
        .lines()
        .take_while(|line| !line.contains("mod tests"))
        .filter(|line| !line.trim().is_empty() && !line.trim().starts_with("//"));
    code.fold((0, 0), |(total, integration), line| {
        let marked = MARKERS.iter().any(|m| line.contains(m));
        (total + 1, integration + usize::from(marked))
    })
}

/// Counts the retrofit; `_size` is unused (the sources have one size).
#[must_use]
pub fn run(_size: usize) -> Report {
    let mut r = Report::new("e9", "developer effort of the SDRaD retrofit");
    r.begin_table(
        "integration lines per retrofitted app (non-test, non-comment)",
        &["app", "file", "code lines", "sdrad lines", "share"],
    );
    let mut total_integration = 0usize;
    for (app, file, source) in APPS {
        let (total, integration) = count_integration_lines(source);
        total_integration += integration;
        r.row(&[
            app.to_string(),
            file.to_string(),
            total.to_string(),
            integration.to_string(),
            format!("{:.0}%", integration as f64 / total as f64 * 100.0),
        ]);
    }
    let macro_lines = MACRO_EXAMPLE.lines().count();
    r.info("integration_lines", total_integration as f64, "lines")
        .info("macro_lines", macro_lines as f64, "lines");
    r.note(format!(
        "paper: Memcached retrofit = 484 added lines across 2 files (plain SDRaD C API); here: \
         {total_integration} integration lines across the three apps (domain API)"
    ))
    .note(format!(
        "SDRaD-FFI annotation path (§III's goal): wrapping one foreign function costs \
         ~{macro_lines} lines — the `sandboxed!` macro generates the marshalling, the domain \
         call and the alternate action that the C-API retrofit writes by hand"
    ));
    r
}
