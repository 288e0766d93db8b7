//! The digest-pin protocol shared by the test crates that pin released
//! bytes in `crates/core/tests/fixtures/sharded_pins.txt`.
//!
//! Every pin is one `name fnv1a64 bytes` line: the FNV-1a digest and
//! length of a released byte stream, recorded at the commit before the
//! code that produces it changed. `PIN_UPDATE=1` rewrites the lines
//! instead of checking them; each line it rewrites is printed as
//! `name: old -> new` (pass `--nocapture` to see them).

use std::path::Path;

/// The pins the integration tests record, listed here so the pin file's
/// stream-list check knows them: the HTTP bodies of one reference window
/// (the serving suite) and the deterministic metrics of one census run
/// (`metrics_determinism`).
pub const INTEGRATION_PINS: [&str; 3] = [
    "served_window_off1000.csv",
    "served_window_off1000.json",
    "run_metrics_census2000.json",
];

/// Whether this run rewrites the pins (`PIN_UPDATE=1`) instead of
/// checking them.
pub fn pin_update() -> bool {
    std::env::var("PIN_UPDATE").is_ok_and(|v| v == "1")
}

/// Checks each stream against its `name fnv1a64 bytes` line in the pin
/// file at `path`. Under `PIN_UPDATE=1` it rewrites those lines in place
/// instead (appending names the file lacks), prints `name: old -> new`
/// for each line it changes, and leaves every other line as it is, so
/// each pinning test owns its lines.
pub fn assert_digests_pinned(path: &Path, streams: &[(String, Vec<u8>)]) {
    let pinned = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("pin file {} missing: {e}", path.display()));
    let rendered = streams.iter().map(|(name, bytes)| {
        let hash = modelstore::crc32::fnv1a64(bytes);
        (name, format!("{name} {hash:016x} {}", bytes.len()))
    });
    if pin_update() {
        let mut lines: Vec<String> = pinned.lines().map(str::to_owned).collect();
        for (name, line) in rendered {
            let slot = lines.iter_mut().find(|l| stream_name(l) == name);
            let old = slot.as_ref().map_or("(none)", |l| pin_value(l)).to_string();
            if old != pin_value(&line) {
                println!("{name}: {old} -> {}", pin_value(&line));
            }
            match slot {
                Some(slot) => *slot = line,
                None => lines.push(line),
            }
        }
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
        return;
    }
    // Every drifted stream is named, not only the first.
    let drifted: Vec<String> = rendered
        .filter_map(|(name, got)| {
            let want = pinned
                .lines()
                .find(|l| stream_name(l) == name)
                .unwrap_or_else(|| panic!("{name} has no line in sharded_pins.txt"));
            (got != want).then(|| format!("{name} drifted: got `{got}`, pinned `{want}`"))
        })
        .collect();
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

/// The `fnv1a64 bytes` part of a pin line.
fn pin_value(line: &str) -> &str {
    line.split_once(' ').map_or("", |(_, value)| value)
}

/// The stream name a pin line starts with.
pub fn stream_name(line: &str) -> &str {
    line.split(' ').next().unwrap_or_default()
}
