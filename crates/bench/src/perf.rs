//! Machine-readable perf points: the scenario binaries append their
//! measured series to a single JSON file (`BENCH_PR2.json` in CI and in
//! the repo root) so the perf trajectory is diffable across PRs.
//!
//! The file is a JSON object with one key per scenario, each an array of
//! point objects. The writer owns the format end to end: each scenario's
//! array is serialized onto its own line, and merging re-parses only
//! those lines — no general JSON parser needed (the offline build has no
//! serde_json).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One measured perf point of a scenario sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfPoint {
    /// Execution-mode label (`QC`, `SP-SPL`, `CJOIN`, …).
    pub mode: String,
    /// Swept x value (clients / selectivity / #plans / offered rate).
    pub x: f64,
    /// Queries per second.
    pub qps: f64,
    /// Queries completed in the window.
    pub completed: u64,
    /// Queries that failed in the window (closed-loop series only; `0`
    /// elsewhere and in files written before the field existed).
    pub failed: u64,
    /// CJOIN dimension-entry predicate evaluations at admission.
    pub admission_evals: u64,
    /// Pages shared via SPLs.
    pub pages_shared: u64,
    /// Total SP hits.
    pub sp_hits: u64,
    /// Open-loop latency percentiles in milliseconds, measured from the
    /// request's *scheduled arrival* (concurrency-independent clock).
    /// Zero for closed-loop series, which have no arrival schedule.
    pub p50_ms: f64,
    /// 95th percentile (see [`PerfPoint::p50_ms`]).
    pub p95_ms: f64,
    /// 99th percentile (see [`PerfPoint::p50_ms`]).
    pub p99_ms: f64,
    /// Fraction of requests answered with `ERR SHED` (0 when admission
    /// never shed or the series is closed-loop).
    pub shed_rate: f64,
}

impl PerfPoint {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"mode\":\"{}\",\"x\":{},\"qps\":{:.3},\"completed\":{},\"failed\":{},\"admission_evals\":{},\"pages_shared\":{},\"sp_hits\":{}",
            self.mode, self.x, self.qps, self.completed, self.failed, self.admission_evals,
            self.pages_shared, self.sp_hits
        );
        // Latency/shed fields are written only when measured, keeping
        // closed-loop series byte-identical with the historical format.
        if self.p50_ms > 0.0 || self.p95_ms > 0.0 || self.p99_ms > 0.0 || self.shed_rate > 0.0 {
            s.push_str(&format!(
                ",\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\"shed_rate\":{:.4}",
                self.p50_ms, self.p95_ms, self.p99_ms, self.shed_rate
            ));
        }
        s.push('}');
        s
    }
}

/// Convert throughput rows (Scenarios II–IV) into perf points.
pub fn throughput_points(rows: &[qs_core::scenarios::ThroughputRow]) -> Vec<PerfPoint> {
    rows.iter()
        .map(|r| PerfPoint {
            mode: r.mode.clone(),
            x: r.x,
            qps: r.qps,
            completed: r.completed,
            failed: r.failed,
            admission_evals: r.admission_evals,
            pages_shared: r.pages_shared,
            sp_hits: r.sp_hits,
            ..Default::default()
        })
        .collect()
}

/// Convert Scenario I response-time rows into perf points (`qps` is the
/// workload rate implied by the response time: clients / response).
pub fn scenario1_points(rows: &[qs_core::scenarios::Scenario1Row]) -> Vec<PerfPoint> {
    rows.iter()
        .map(|r| PerfPoint {
            mode: r.mode.clone(),
            x: r.clients as f64,
            qps: if r.response_ms > 0.0 {
                r.clients as f64 / (r.response_ms / 1e3)
            } else {
                0.0
            },
            completed: r.clients as u64,
            admission_evals: 0,
            pages_shared: r.pages_shared,
            sp_hits: 0,
            ..Default::default()
        })
        .collect()
}

/// Read the per-scenario lines of an existing points file. Lines are
/// `  "<name>": [<points>],?` — exactly what [`write_points`] emits.
fn read_existing(path: &Path) -> Vec<(String, String)> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix('"') else {
            continue;
        };
        let Some((name, value)) = rest.split_once("\": ") else {
            continue;
        };
        let value = value.trim_end_matches(',').to_string();
        out.push((name.to_string(), value));
    }
    out
}

/// Merge `points` for `scenario` into the JSON file at `path`, replacing
/// any previous series for the same scenario and preserving the others.
pub fn write_points(
    path: impl AsRef<Path>,
    scenario: &str,
    points: &[PerfPoint],
) -> io::Result<()> {
    let path = path.as_ref();
    let mut entries = read_existing(path);
    let rendered = format!(
        "[{}]",
        points
            .iter()
            .map(|p| p.to_json())
            .collect::<Vec<_>>()
            .join(", ")
    );
    match entries.iter_mut().find(|(n, _)| n == scenario) {
        Some((_, v)) => *v = rendered,
        None => entries.push((scenario.to_string(), rendered)),
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(out, "\"{name}\": {value}{comma}").expect("string write");
    }
    out.push_str("}\n");
    fs::write(path, out)
}

/// Parse one `{"mode":"QC","x":1,...}` object as written by
/// [`PerfPoint::to_json`]. Returns `None` on malformed input.
fn parse_point(obj: &str) -> Option<PerfPoint> {
    // Mode labels contain neither ',' nor '}', so the first of either
    // terminates any field value in this format.
    let field = |name: &str| -> Option<&str> {
        let tag = format!("\"{name}\":");
        let start = obj.find(&tag)? + tag.len();
        let rest = &obj[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    };
    Some(PerfPoint {
        mode: field("mode")?.trim_matches('"').to_string(),
        x: field("x")?.parse().ok()?,
        qps: field("qps")?.parse().ok()?,
        completed: field("completed")?.parse().ok()?,
        failed: field("failed").and_then(|s| s.parse().ok()).unwrap_or(0),
        admission_evals: field("admission_evals")?.parse().ok()?,
        pages_shared: field("pages_shared")?.parse().ok()?,
        sp_hits: field("sp_hits")?.parse().ok()?,
        // Latency/shed fields post-date the format: absent in old files.
        p50_ms: field("p50_ms").and_then(|s| s.parse().ok()).unwrap_or(0.0),
        p95_ms: field("p95_ms").and_then(|s| s.parse().ok()).unwrap_or(0.0),
        p99_ms: field("p99_ms").and_then(|s| s.parse().ok()).unwrap_or(0.0),
        shed_rate: field("shed_rate").and_then(|s| s.parse().ok()).unwrap_or(0.0),
    })
}

/// Read a perf points file back into `(scenario, points)` series — the
/// inverse of [`write_points`] for the format this module owns.
pub fn read_points(path: impl AsRef<Path>) -> Vec<(String, Vec<PerfPoint>)> {
    read_existing(path.as_ref())
        .into_iter()
        .map(|(name, value)| {
            let inner = value.trim().trim_start_matches('[').trim_end_matches(']');
            let points = inner
                .split("}, {")
                .filter(|s| !s.trim().is_empty())
                .filter_map(parse_point)
                .collect();
            (name, points)
        })
        .collect()
}

/// One (scenario, mode) comparison of a perf series against a baseline.
#[derive(Debug, Clone)]
pub struct SeriesDelta {
    /// Scenario name.
    pub scenario: String,
    /// Execution-mode label.
    pub mode: String,
    /// Geometric-mean qps of the baseline over the shared x points.
    pub base_qps: f64,
    /// Geometric-mean qps of the new run over the shared x points.
    pub new_qps: f64,
    /// `new/base - 1` (negative = regression).
    pub delta: f64,
}

/// Compare two points files per (scenario, mode): the geometric mean of
/// qps over the x values present in both series (geomean, so one noisy
/// point cannot mask a broad regression and sweeps of different
/// magnitudes weigh equally). Series missing from either side are
/// skipped — the gate guards regressions, not coverage.
pub fn compare_points(
    base: &[(String, Vec<PerfPoint>)],
    new: &[(String, Vec<PerfPoint>)],
) -> Vec<SeriesDelta> {
    let mut out = Vec::new();
    for (scenario, base_points) in base {
        let Some((_, new_points)) = new.iter().find(|(n, _)| n == scenario) else {
            continue;
        };
        let mut modes: Vec<&str> = base_points.iter().map(|p| p.mode.as_str()).collect();
        modes.sort_unstable();
        modes.dedup();
        for mode in modes {
            let mut logs_base = Vec::new();
            let mut logs_new = Vec::new();
            // A new-side point at zero qps is the worst possible
            // regression, not a comparison to skip: it zeroes the whole
            // series so the gate fires.
            let mut new_died = false;
            for bp in base_points.iter().filter(|p| p.mode == mode) {
                let Some(np) = new_points
                    .iter()
                    .find(|p| p.mode == mode && p.x == bp.x)
                else {
                    continue;
                };
                if bp.qps <= 0.0 {
                    continue; // baseline never ran this point
                }
                logs_base.push(bp.qps.ln());
                if np.qps > 0.0 {
                    logs_new.push(np.qps.ln());
                } else {
                    new_died = true;
                }
            }
            if logs_base.is_empty() {
                continue;
            }
            let gm = |logs: &[f64]| {
                if logs.is_empty() {
                    0.0
                } else {
                    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
                }
            };
            let base_qps = gm(&logs_base);
            let new_qps = if new_died { 0.0 } else { gm(&logs_new) };
            out.push(SeriesDelta {
                scenario: scenario.clone(),
                mode: mode.to_string(),
                base_qps,
                new_qps,
                delta: new_qps / base_qps - 1.0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(mode: &str, x: f64) -> PerfPoint {
        PerfPoint {
            mode: mode.to_string(),
            x,
            qps: 12.345678,
            completed: 42,
            admission_evals: 7,
            pages_shared: 3,
            sp_hits: 1,
            ..Default::default()
        }
    }

    #[test]
    fn latency_fields_roundtrip_and_old_format_still_parses() {
        let p = PerfPoint {
            p50_ms: 1.5,
            p95_ms: 9.25,
            p99_ms: 20.125,
            shed_rate: 0.0625,
            ..point("OPEN", 100.0)
        };
        let json = p.to_json();
        assert!(json.contains("\"p99_ms\":20.125"), "{json}");
        let back = parse_point(&json).unwrap();
        assert_eq!(back.p95_ms, 9.25);
        assert_eq!(back.shed_rate, 0.0625);
        // Historical files lack the latency fields entirely.
        let old = point("QC", 1.0).to_json();
        assert!(!old.contains("p50_ms"), "closed-loop point stays in the old format: {old}");
        let parsed = parse_point(&old).unwrap();
        assert_eq!(parsed.p99_ms, 0.0);
        assert_eq!(parsed.shed_rate, 0.0);
    }

    #[test]
    fn write_then_merge_preserves_other_scenarios() {
        let dir = std::env::temp_dir().join(format!("qs_perf_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.json");
        write_points(&path, "scenario2", &[point("CJOIN", 4.0)]).unwrap();
        write_points(&path, "scenario1", &[point("QC", 1.0), point("SP-SPL", 1.0)]).unwrap();
        // Overwrite scenario2's series.
        write_points(&path, "scenario2", &[point("CJOIN", 8.0)]).unwrap();

        let entries = read_existing(&path);
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["scenario1", "scenario2"]);
        assert!(entries[1].1.contains("\"x\":8"));
        assert!(!entries[1].1.contains("\"x\":4"));
        assert!(entries[0].1.contains("SP-SPL"));

        // The file stays structurally a JSON object.
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        assert_eq!(text.matches("\"qps\":12.346").count(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn points_roundtrip_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("qs_perf_rt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.json");
        let written = vec![point("SP-SPL", 1.0), point("CJOIN", 16.0)];
        write_points(&path, "scenario2", &written).unwrap();
        let read = read_points(&path);
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].0, "scenario2");
        let got = &read[0].1;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].mode, "SP-SPL");
        assert_eq!(got[1].mode, "CJOIN");
        assert_eq!(got[1].x, 16.0);
        assert!((got[0].qps - 12.346).abs() < 1e-9); // written with %.3f
        assert_eq!(got[0].completed, 42);
        assert_eq!(got[0].admission_evals, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_detects_regressions_per_mode() {
        let series = |qps_a: f64, qps_b: f64| {
            vec![(
                "s2".to_string(),
                vec![
                    PerfPoint { qps: qps_a, ..point("QC", 1.0) },
                    PerfPoint { qps: qps_b, ..point("QC", 4.0) },
                    PerfPoint { qps: 100.0, ..point("CJOIN", 1.0) },
                ],
            )]
        };
        let base = series(100.0, 400.0);
        // QC halves at both points, CJOIN unchanged.
        let new = series(50.0, 200.0);
        let deltas = compare_points(&base, &new);
        assert_eq!(deltas.len(), 2);
        let qc = deltas.iter().find(|d| d.mode == "QC").unwrap();
        assert!((qc.delta + 0.5).abs() < 1e-9, "geomean halved: {qc:?}");
        let cj = deltas.iter().find(|d| d.mode == "CJOIN").unwrap();
        assert!(cj.delta.abs() < 1e-9);
        // Missing series on either side are skipped, not failed.
        let deltas = compare_points(&base, &[("other".into(), Vec::new())]);
        assert!(deltas.is_empty());
    }

    #[test]
    fn zero_qps_new_point_is_a_total_regression_not_a_skip() {
        let base = vec![(
            "s2".to_string(),
            vec![
                PerfPoint { qps: 100.0, ..point("QC", 1.0) },
                PerfPoint { qps: 200.0, ..point("QC", 4.0) },
            ],
        )];
        // The mode deadlocked at x=4: zero completions in the window.
        let new = vec![(
            "s2".to_string(),
            vec![
                PerfPoint { qps: 100.0, ..point("QC", 1.0) },
                PerfPoint { qps: 0.0, ..point("QC", 4.0) },
            ],
        )];
        let deltas = compare_points(&base, &new);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].new_qps, 0.0);
        assert!((deltas[0].delta + 1.0).abs() < 1e-9, "-100%: {:?}", deltas[0]);
    }
}
