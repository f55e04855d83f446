//! Panic-safety fuzz harness for the `sna serve` protocol.
//!
//! A serve session must answer every query line with exactly one response
//! line and never panic: malformed JSON, hostile nesting, non-UTF-8 bytes,
//! over-long lines and absurd field values are all answered in-band with
//! `{"ok": false, ...}`. This harness drives a 2-cluster session with
//! structured mutations of valid protocol lines (value swaps, truncations,
//! byte noise, token injection, nesting at the 64-level cap, splices,
//! padding past the line-length cap), and sets every edit field to every
//! dictionary value, including slews whose transients run past
//! `tran::MAX_STEPS`. Run in CI:
//!
//! ```text
//! cargo test -p sna-flow serve_fuzz -- --ignored
//! ```
//!
//! The PRNG seed and the iteration budget are fixed, so a CI failure
//! reproduces locally as is.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sna_flow::cli::{CliConfig, LogLevel};
use sna_flow::serve::{serve_lines, ServeState, MAX_JSON_DEPTH, MAX_QUERY_BYTES};

/// Mutated lines per run: enough to reach every mutation and every edit
/// field many times over, small enough for a debug-build CI step.
const ITERS: usize = 400;

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Well-formed queries covering every command and edit field.
const VALID: &[&str] = &[
    r#"{"cmd":"analyze"}"#,
    r#"{"cmd":"analyze","clusters":["net001","net000"]}"#,
    r#"{"cmd":"edit","cluster":"net000","aggressor":0,"input_slew":9e-11}"#,
    r#"{"cmd":"edit","cluster":"net000","aggressor":0,"strength":2,"rising":false}"#,
    r#"{"cmd":"edit","cluster":"net000","aggressor":0,"switch_time":3e-10}"#,
    r#"{"cmd":"edit","cluster":"net001","aggressor":0,"receiver_cap":2e-14}"#,
    r#"{"cmd":"edit","cluster":"net001","glitch_height":0.3,"glitch_width":2e-10}"#,
    r#"{"cmd":"edit","cluster":"net000","aggressor":0,"window":[1e-10,5e-10],"mexcl":1}"#,
    r#"{"cmd":"edit","cluster":"net000","sensitivity":[0,1e-8]}"#,
    r#"{"cmd":"edit","cluster":"net000","drop_aggressor":0}"#,
    r#"{"cmd":"guard_band","value":0.05}"#,
    r#"{"cmd":"stats"}"#,
];

/// Replacement values: wrong types, out-of-range numbers, and slews whose
/// driver transients need more than `tran::MAX_STEPS` steps (1e-5 s and
/// up at the 1 ps characterization step).
const VALUES: &[&str] = &[
    "0",
    "-1",
    "-0",
    "1e-300",
    "1e300",
    "1e999",
    "1e-5",
    "1.0",
    "0.5",
    "2e-10",
    "18446744073709551616",
    "4294967296",
    "null",
    "true",
    "\"net001\"",
    "\"\\ud800\"",
    "[]",
    "{}",
    "[5e-10,1e-10]",
    "[1e-10]",
];

/// Structural noise spliced in at random byte positions.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\"cmd\":", "nul", "1e", "-", " ",
];

fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

fn mutate(rng: &mut Rng) -> Vec<u8> {
    let mut line = rng.pick(VALID).as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        match rng.below(12) {
            // Truncate at a random byte.
            1 => line.truncate(rng.below(line.len() + 1)),
            // Overwrite a byte with any byte value (non-UTF-8 included).
            2 => {
                if !line.is_empty() {
                    let at = rng.below(line.len());
                    line[at] = (rng.next() & 0xFF) as u8;
                }
            }
            // Inject a structural token.
            3 => {
                let at = rng.below(line.len() + 1);
                line.splice(at..at, rng.pick(TOKENS).bytes());
            }
            // Nest the query at, just under, or just over the depth cap.
            4 => {
                let depth = MAX_JSON_DEPTH - 1 + rng.below(3);
                line = nested(depth, &String::from_utf8_lossy(&line)).into_bytes();
            }
            // Splice the head of this line onto the tail of another.
            5 => {
                let other = rng.pick(VALID).as_bytes();
                let cut = rng.below(line.len() + 1);
                line.truncate(cut);
                line.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            }
            // Pad past the line-length cap.
            6 => line.resize(MAX_QUERY_BYTES + 1 + rng.below(2), b' '),
            // Most often: swap the value after a random ':' for a
            // dictionary value.
            _ => {
                let colons: Vec<usize> = (0..line.len()).filter(|&i| line[i] == b':').collect();
                if let Some(&at) = colons.get(rng.below(colons.len())) {
                    let end = (at + 1..line.len())
                        .find(|&i| matches!(line[i], b',' | b'}'))
                        .unwrap_or(line.len());
                    line.splice(at + 1..end, rng.pick(VALUES).bytes());
                }
            }
        }
    }
    line
}

fn session() -> ServeState {
    let cfg = CliConfig {
        clusters: 2,
        threads: 1,
        log_level: LogLevel::Quiet,
        ..Default::default()
    };
    ServeState::new(&cfg).expect("serve session")
}

/// Feed `input` (one or more lines) and return the response lines, failing
/// with the input shown if the session panics.
fn answer(state: &mut ServeState, input: &[u8], tag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let run = catch_unwind(AssertUnwindSafe(|| serve_lines(state, input, &mut out)));
    let shown = String::from_utf8_lossy(&input[..input.len().min(300)]);
    match run {
        Ok(Ok(())) => {}
        Ok(Err(e)) => panic!("{tag}: session ended with {e} on:\n{shown}"),
        Err(_) => panic!("{tag}: session panicked on:\n{shown}"),
    }
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    for r in &lines {
        assert!(
            r.starts_with("{\"ok\": ") && r.ends_with('}'),
            "{tag}: not a protocol response: {r}"
        );
    }
    lines
}

#[test]
#[ignore = "fuzz budget is CI-sized; run explicitly with -- --ignored"]
fn serve_fuzz_answers_every_line_once() {
    let mut state = session();
    let mut rng = Rng(0x5EED_2005_5E4E_0001);
    for i in 0..ITERS {
        let mut line = mutate(&mut rng);
        line.retain(|&b| b != b'\n');
        let blank = line.len() <= MAX_QUERY_BYTES
            && std::str::from_utf8(&line).is_ok_and(|s| s.trim().is_empty());
        line.push(b'\n');
        let got = answer(&mut state, &line, &format!("iter {i}"));
        assert_eq!(got.len(), usize::from(!blank), "iter {i}: {got:?}");
    }
    // The session is still serving after all of that.
    let r = answer(&mut state, b"{\"cmd\":\"stats\"}\n", "final stats");
    assert!(r[0].contains("\"ok\": true"), "{}", r[0]);
}

#[test]
#[ignore = "fuzz budget is CI-sized; run explicitly with -- --ignored"]
fn serve_fuzz_every_edit_field_takes_every_value() {
    // Each numeric edit field gets every dictionary value, and the edited
    // cluster is re-analyzed after each: accepted absurd values must fail
    // the analysis in-band, not the session.
    let mut state = session();
    let fields = [
        ("net001", "glitch_height"),
        ("net001", "glitch_width"),
        ("net000", "\"aggressor\":0,\"strength"),
        ("net000", "\"aggressor\":0,\"input_slew"),
        ("net000", "\"aggressor\":0,\"switch_time"),
        ("net000", "\"aggressor\":0,\"receiver_cap"),
    ];
    for (cluster, field) in fields {
        for value in VALUES {
            let edit = format!(r#"{{"cmd":"edit","cluster":"{cluster}","{field}":{value}}}"#);
            let analyze = format!(r#"{{"cmd":"analyze","clusters":["{cluster}"]}}"#);
            let input = format!("{edit}\n{analyze}\n");
            let got = answer(&mut state, input.as_bytes(), &edit);
            assert_eq!(got.len(), 2, "{edit}: {got:?}");
        }
    }
}
