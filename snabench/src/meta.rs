//! The run-metadata header: enough host, toolchain and source identity to
//! compare results across commits without guesswork.

use std::path::Path;
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::report::esc;
use crate::Ctx;

/// The workload's input sizes, as recorded in the header.
fn inputs(workload: &str) -> &'static str {
    match workload {
        "cold_flow" => "{\"tech\": \"cmos130\", \"clusters\": 64, \"strata\": \"aggressors x victim cell\", \"design_seeds\": \"seed+i per repetition\"}",
        "warm_align" => "{\"tech\": \"cmos130\", \"clusters\": 16, \"strata\": \"aggressors x glitch\", \"aggressor_mix\": [8, 4, 4], \"windowed_clusters\": 8, \"align_worst_case\": true}",
        "serve_edit" => "{\"tech\": \"cmos130\", \"clusters\": 64, \"queries_per_cycle\": 20, \"clients\": 1, \"loop\": \"closed\"}",
        _ => "{\"cases\": 38, \"from\": \"table1, table2, and per (tech, length, glitch) group of sweep_specs(false) the three aggressor counts with the three victim cells in seeded order\"}",
    }
}

/// `git rev-parse HEAD`, when the working directory is a git checkout
/// (checked first, so git never searches the directories above it).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`crates/**` in path order), which
/// identifies the code under test where no git metadata exists.
fn source_fnv() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Median time (ms) of a fixed FNV-1a pass over 4 MiB: how fast this host
/// runs plain scalar code right now, so a shift in every timing between
/// two runs can be told apart from a change in the program.
fn host_fnv_ms() -> f64 {
    let buf: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in std::hint::black_box(&buf) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            std::hint::black_box(h);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// UTC `YYYY-MM-DDTHH:MM:SSZ` from the system clock.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

pub fn meta_json(ctx: &Ctx) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"meta\": {{\"schema\": \"snabench-v1\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"threads\": {}, \"available_parallelism\": {parallelism}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \"source_fnv\": \"{}\", \
         \"date_utc\": \"{}\", \"host_fnv_ms\": {:.3}, \"inputs\": {}}}}}",
        esc(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads,
        esc(env!("SNABENCH_RUSTC")),
        esc(env!("SNABENCH_PROFILE")),
        esc(&git_rev()),
        source_fnv(),
        utc_now(),
        host_fnv_ms(),
        inputs(&ctx.workload)
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn utc_date_is_well_formed() {
        let d = super::utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'), "{d}");
    }
}
