//! Hand-rolled report serializers.
//!
//! The vendored `serde` derive is a no-op shim (the build image has no
//! registry access), so the CLI writes its JSON and CSV explicitly. Both
//! formats are pure functions of the [`NoiseReport`] contents — cache
//! statistics and wall-clock timings deliberately stay out, so the bytes
//! are identical across thread counts and the determinism guarantee can be
//! checked with `diff`.

use sna_core::sna::{NoiseReport, Verdict};

use crate::corners::CornerReport;

/// Run-level metadata carried into the serialized report.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Clusters per corner.
    pub clusters: usize,
    /// Design-generator seed.
    pub seed: u64,
    /// Whether the worst-case alignment search ran.
    pub align_worst_case: bool,
    /// NRC guard band (V).
    pub margin_band: f64,
    /// Per-corner results.
    pub corners: Vec<CornerReport>,
}

/// JSON string escaping per RFC 8259 (quotes, backslashes, control chars).
/// Shared with the metrics document and the `serve` responder, which emit
/// the same dialect.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON value: shortest round-trip form, `null` for the
/// non-finite values JSON cannot carry.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub(crate) fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::MarginWarning => "warn",
        Verdict::Fail => "fail",
    }
}

fn json_findings(report: &NoiseReport, indent: &str) -> String {
    let mut rows = Vec::with_capacity(report.findings.len());
    for f in &report.findings {
        // Constrained (FRAME) fields ride along only when the cluster
        // carries constraints; unconstrained nets keep a stable `null`.
        let constrained = match &f.constrained {
            Some(c) => format!(
                "{}, \"frame\": {{\"considered\": {}, \"pruned_window\": {}, \
                 \"pruned_mexcl\": {}, \"simulated\": {}}}",
                num(c.margin),
                c.counters.considered,
                c.counters.pruned_window,
                c.counters.pruned_mexcl,
                c.counters.simulated,
            ),
            None => "null".into(),
        };
        rows.push(format!(
            "{indent}{{\"net\": \"{}\", \"verdict\": \"{}\", \"peak_v\": {}, \"width_s\": {}, \
             \"area_vs\": {}, \"margin_v\": {}, \"constrained_margin_v\": {}}}",
            esc(&f.name),
            verdict_tag(f.verdict),
            num(f.receiver_metrics.peak),
            num(f.receiver_metrics.width),
            num(f.receiver_metrics.area),
            num(f.margin),
            constrained,
        ));
    }
    rows.join(",\n")
}

fn json_skipped(report: &NoiseReport, indent: &str) -> String {
    let mut rows = Vec::with_capacity(report.skipped.len());
    for s in &report.skipped {
        rows.push(format!(
            "{indent}{{\"net\": \"{}\", \"reason\": \"{}\"}}",
            esc(&s.name),
            esc(&s.reason)
        ));
    }
    rows.join(",\n")
}

/// The full run as a JSON document (`sna-report-v1` schema).
pub fn to_json(run: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sna-report-v1\",\n");
    out.push_str(&format!("  \"clusters\": {},\n", run.clusters));
    out.push_str(&format!("  \"seed\": {},\n", run.seed));
    out.push_str(&format!(
        "  \"align_worst_case\": {},\n",
        run.align_worst_case
    ));
    out.push_str(&format!("  \"margin_band_v\": {},\n", num(run.margin_band)));
    out.push_str("  \"corners\": [\n");
    let corners: Vec<String> = run
        .corners
        .iter()
        .map(|c| {
            let r = &c.flow.report;
            let mut s = String::new();
            s.push_str("    {\n");
            s.push_str(&format!("      \"tech\": \"{}\",\n", esc(&c.tech)));
            s.push_str(&format!("      \"pass\": {},\n", r.count(Verdict::Pass)));
            s.push_str(&format!(
                "      \"warn\": {},\n",
                r.count(Verdict::MarginWarning)
            ));
            s.push_str(&format!("      \"fail\": {},\n", r.count(Verdict::Fail)));
            s.push_str(&format!("      \"skipped\": {},\n", r.skipped.len()));
            if r.findings.is_empty() {
                s.push_str("      \"findings\": [],\n");
            } else {
                s.push_str("      \"findings\": [\n");
                s.push_str(&json_findings(r, "        "));
                s.push_str("\n      ],\n");
            }
            if r.skipped.is_empty() {
                s.push_str("      \"skipped_nets\": []\n");
            } else {
                s.push_str("      \"skipped_nets\": [\n");
                s.push_str(&json_skipped(r, "        "));
                s.push_str("\n      ]\n");
            }
            s.push_str("    }");
            s
        })
        .collect();
    out.push_str(&corners.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// A string as a CSV field: quoted (with doubled inner quotes) only when
/// it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A float as a CSV numeric field: empty when non-finite, matching the
/// skipped-row convention for missing values (JSON uses `null` instead).
fn csv_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

/// The full run as CSV, one row per net per corner; skipped nets carry the
/// `skipped` verdict, empty numeric columns, and their diagnostic in the
/// trailing `reason` column (empty for analyzed nets).
pub fn to_csv(run: &RunSummary) -> String {
    let mut out = String::from(
        "corner,net,verdict,peak_v,width_s,area_vs,margin_v,constrained_margin_v,reason\n",
    );
    for c in &run.corners {
        for f in &c.flow.report.findings {
            let constrained = f
                .constrained
                .as_ref()
                .map_or(String::new(), |c| csv_num(c.margin));
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},\n",
                csv_field(&c.tech),
                csv_field(&f.name),
                verdict_tag(f.verdict),
                csv_num(f.receiver_metrics.peak),
                csv_num(f.receiver_metrics.width),
                csv_num(f.receiver_metrics.area),
                csv_num(f.margin),
                constrained,
            ));
        }
        for s in &c.flow.report.skipped {
            out.push_str(&format!(
                "{},{},skipped,,,,,,{}\n",
                csv_field(&c.tech),
                csv_field(&s.name),
                csv_field(&s.reason)
            ));
        }
    }
    out
}

/// A human-readable summary table (the default CLI format).
pub fn to_text(run: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sna: {} clusters/corner, seed {}, alignment {}, guard band {:.3} V\n",
        run.clusters,
        run.seed,
        if run.align_worst_case {
            "worst-case"
        } else {
            "nominal"
        },
        run.margin_band,
    ));
    for c in &run.corners {
        let r = &c.flow.report;
        out.push_str(&format!(
            "\n[{}] {} pass / {} warn / {} fail / {} skipped\n",
            c.tech,
            r.count(Verdict::Pass),
            r.count(Verdict::MarginWarning),
            r.count(Verdict::Fail),
            r.skipped.len(),
        ));
        out.push_str(&format!(
            "{:<8} {:>9} {:>10} {:>10} {:>10}  verdict\n",
            "net", "peak (V)", "width(ps)", "margin(V)", "constr(V)"
        ));
        for f in r.worst_first() {
            let constrained = match &f.constrained {
                Some(c) => format!("{:>+10.3}", c.margin),
                None => format!("{:>10}", "-"),
            };
            out.push_str(&format!(
                "{:<8} {:>9.3} {:>10.0} {:>+10.3} {}  {}\n",
                f.name,
                f.receiver_metrics.peak,
                f.receiver_metrics.width * 1e12,
                f.margin,
                constrained,
                verdict_tag(f.verdict),
            ));
        }
        for s in &r.skipped {
            out.push_str(&format!("{:<8} skipped: {}\n", s.name, s.reason));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{FlowOptions, FlowReport};
    use sna_core::library::LibraryStats;
    use sna_core::sna::{ClusterFinding, SkippedCluster};
    use sna_spice::waveform::GlitchMetrics;

    fn sample_run() -> RunSummary {
        let finding = ClusterFinding {
            name: "net000".into(),
            receiver_metrics: GlitchMetrics {
                peak: 0.25,
                polarity: 1.0,
                peak_time: 1e-9,
                width: 3e-10,
                area: 5e-11,
            },
            margin: 0.375,
            verdict: Verdict::Pass,
            constrained: None,
        };
        let report = NoiseReport {
            findings: vec![finding],
            skipped: vec![SkippedCluster {
                name: "net001".into(),
                reason: "tran analysis failed, t = 1e-9".into(),
            }],
        };
        RunSummary {
            clusters: 2,
            seed: 7,
            align_worst_case: false,
            margin_band: 0.1,
            corners: vec![CornerReport {
                tech: "cmos130".into(),
                flow: FlowReport {
                    report,
                    cache: LibraryStats::default(),
                    threads: 2,
                    pool: crate::pool::PoolMetrics::default(),
                    cluster_wall_nanos: Vec::new(),
                },
            }],
        }
    }

    // FlowOptions is in this crate's public API; silence the unused-import
    // lint chain by referencing it once.
    #[test]
    fn flow_options_default_is_auto_threaded() {
        assert_eq!(FlowOptions::default().threads, 0);
    }

    #[test]
    fn json_contains_schema_counts_and_nets() {
        let j = to_json(&sample_run());
        assert!(j.contains("\"schema\": \"sna-report-v1\""));
        assert!(j.contains("\"tech\": \"cmos130\""));
        assert!(j.contains("\"net\": \"net000\""));
        assert!(j.contains("\"pass\": 1"));
        assert!(j.contains("\"skipped\": 1"));
        assert!(j.contains("\"margin_v\": 0.375"));
        // Unconstrained nets keep a stable null so consumers can rely on
        // the key being present.
        assert!(j.contains("\"constrained_margin_v\": null"));
        // Balanced braces/brackets — cheap well-formedness check given no
        // JSON parser in the tree.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_and_nan_are_legal() {
        let mut run = sample_run();
        run.corners[0].flow.report.skipped[0].reason = "quote \" backslash \\ tab\t".into();
        run.corners[0].flow.report.findings[0].margin = f64::NAN;
        let j = to_json(&run);
        assert!(j.contains("quote \\\" backslash \\\\ tab\\t"));
        assert!(j.contains("\"margin_v\": null"));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_net() {
        let c = to_csv(&sample_run());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(
            lines[0],
            "corner,net,verdict,peak_v,width_s,area_vs,margin_v,constrained_margin_v,reason"
        );
        assert_eq!(lines.len(), 3); // header + 1 finding + 1 skipped
        assert!(lines[1].starts_with("cmos130,net000,pass,0.25,"));
        assert!(
            lines[1].ends_with(","),
            "analyzed nets have an empty reason"
        );
        assert!(lines[2].starts_with("cmos130,net001,skipped,,,,,,"));
        // Every row has the same column count (the skipped reason keeps
        // numeric columns empty rather than displacing them). Delimiters
        // inside quoted fields don't count.
        let delimiters = |row: &str| {
            let mut in_quotes = false;
            row.chars()
                .filter(|&c| {
                    if c == '"' {
                        in_quotes = !in_quotes;
                    }
                    c == ',' && !in_quotes
                })
                .count()
        };
        for l in &lines {
            assert_eq!(delimiters(l), 8, "row: {l}");
        }
    }

    #[test]
    fn csv_quotes_fields_with_delimiters() {
        let mut run = sample_run();
        run.corners[0].flow.report.findings[0].name = "net,weird".into();
        run.corners[0].flow.report.skipped[0].reason = "failed, badly \"twice\"".into();
        let c = to_csv(&run);
        assert!(c.contains("cmos130,\"net,weird\",pass,"));
        assert!(c.contains(",\"failed, badly \"\"twice\"\"\"\n"));
    }

    #[test]
    fn csv_nonfinite_numerics_are_empty_fields() {
        let mut run = sample_run();
        run.corners[0].flow.report.findings[0].margin = f64::NAN;
        let c = to_csv(&run);
        // ...,area,<empty margin>,<empty reason>
        assert!(
            c.contains(",,\n"),
            "NaN margin must serialize as empty:\n{c}"
        );
        assert!(!c.contains("null") && !c.contains("NaN"));
    }

    #[test]
    fn constrained_findings_surface_in_all_formats() {
        use sna_core::frame::{FrameCounters, FrameOutcome};
        let mut run = sample_run();
        run.corners[0].flow.report.findings[0].constrained = Some(FrameOutcome {
            margin: 0.5,
            receiver_metrics: GlitchMetrics {
                peak: 0.125,
                polarity: 1.0,
                peak_time: 1e-9,
                width: 2e-10,
                area: 2.5e-11,
            },
            switch_times: vec![1e-9],
            switching: vec![true],
            counters: FrameCounters {
                considered: 9,
                pruned_window: 4,
                pruned_mexcl: 2,
                simulated: 3,
            },
        });
        let j = to_json(&run);
        assert!(j.contains("\"constrained_margin_v\": 0.5"));
        assert!(j.contains("\"frame\": {\"considered\": 9, \"pruned_window\": 4, "));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let c = to_csv(&run);
        assert!(
            c.contains(",0.375,0.5,\n"),
            "csv carries both margins:\n{c}"
        );
        let t = to_text(&run);
        assert!(
            t.contains("+0.500"),
            "text shows the constrained margin:\n{t}"
        );
    }

    #[test]
    fn text_mentions_worst_first_ordering() {
        let t = to_text(&sample_run());
        assert!(t.contains("1 pass / 0 warn / 0 fail / 1 skipped"));
        assert!(t.contains("net000"));
        assert!(t.contains("skipped: tran analysis failed"));
    }
}
