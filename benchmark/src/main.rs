//! End-to-end benchmark of the sharing engine.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload star-batch-disk --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One run generates the SSB data and the SQL statements from `--seed`,
//! drives one workload through the public API for a fixed amount of work
//! (proportional to `--seconds`), checks every answer, and prints each
//! metric by name and unit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around its calls into each layer and prints the
//! per-layer metrics instead, writing the spans to
//! `benchmark/out/trace-<workload>-<seed>.jsonl`.

mod check;
mod procfs;
mod stats;
mod trace;
mod workloads;

use procfs::Sample;
use stats::{median, percentile, ratio};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Opts, Run};

const USAGE: &str = "usage: qs-e2e-bench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["star-batch-disk", "selective-spl-memory", "sql-wire-auto"];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("user_cpu_ms_per_query", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. Counters are read from the layers'
/// snapshots; times are medians over the traced run's spans.
const PER_LAYER: [(&str, &str); 46] = [
    ("sql.plan_sql_us", "us"),
    ("plan.optimize_us", "us"),
    ("core.submit_us", "us"),
    ("core.routes.qc", "count"),
    ("core.routes.spl", "count"),
    ("core.routes.gqp", "count"),
    ("engine.first_batch_ms", "ms"),
    ("engine.drain_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.rows_scanned", "count"),
    ("engine.rows_joined", "count"),
    ("engine.packets", "count"),
    ("engine.pool_tasks", "count"),
    ("engine.pool_steals", "count"),
    ("engine.sp_hits", "count"),
    ("engine.sp_misses", "count"),
    ("engine.sp_hit_ratio", "ratio"),
    ("engine.pages_shared", "count"),
    ("engine.pages_copied", "count"),
    ("engine.os_threads_peak", "count"),
    ("cjoin.admissions", "count"),
    ("cjoin.sp_hits", "count"),
    ("cjoin.share_ratio", "ratio"),
    ("cjoin.admission_evals", "count"),
    ("cjoin.admission_evals_per_admission", "ratio"),
    ("cjoin.admission_dedup_hits", "count"),
    ("cjoin.fact_pages", "count"),
    ("cjoin.fact_pages_per_query", "ratio"),
    ("cjoin.tuples_in", "count"),
    ("cjoin.tuples_dropped", "count"),
    ("cjoin.rows_out_per_tuple_in", "ratio"),
    ("storage.pool.hits", "count"),
    ("storage.pool.misses", "count"),
    ("storage.pool.evictions", "count"),
    ("storage.pool.hit_ratio", "ratio"),
    ("storage.disk.reads", "count"),
    ("storage.disk.wait_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.rows_framed", "count"),
    ("client.self_us", "us"),
    ("process.sys_cpu_ms_per_query", "ms"),
    ("trace.qps", "queries/s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.latency_p99_ms", "ms"),
    ("host.steal_pct", "%"),
];

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Wall time of the timed phase (the sum of its windows), seconds.
fn wall_s(run: &Run) -> f64 {
    run.windows
        .iter()
        .map(|w| (w.end - w.start).as_secs_f64())
        .sum()
}

/// One sub-run of the timed phase.
struct Stretch {
    /// Machine CPU time the hypervisor took during it, ticks per second.
    steal: f64,
    secs: f64,
    user_ms: f64,
    sys_ms: f64,
    latencies_ms: Vec<f64>,
}

/// Split the completions of each timed window, in completion order, into
/// its sub-runs of (nearly) equal query count. A sub-run starts where the
/// previous one of its window ended (the first at the window's start).
fn stretches(run: &Run, samples: &[Sample]) -> Vec<Stretch> {
    let user_at = |t| procfs::at(samples, t, |s| s.user_ms);
    let sys_at = |t| procfs::at(samples, t, |s| s.sys_ms);
    let steal_at = |t| procfs::at(samples, t, |s| s.steal as f64);
    let mut done = run.done.clone();
    done.sort_by_key(|d| d.0);
    let mut parts = Vec::new();
    for w in &run.windows {
        let done: Vec<_> = done
            .iter()
            .filter(|d| w.start <= d.0 && d.0 <= w.end)
            .collect();
        let (n, k) = (done.len(), w.sub_runs);
        let mut from = w.start;
        for i in 0..k {
            let part = &done[i * n / k..(i + 1) * n / k];
            let Some(last) = part.last() else { continue };
            let to = last.0;
            let secs = (to - from).as_secs_f64();
            parts.push(Stretch {
                steal: ratio(steal_at(to) - steal_at(from), secs),
                secs,
                user_ms: user_at(to) - user_at(from),
                sys_ms: sys_at(to) - sys_at(from),
                latencies_ms: part.iter().map(|d| d.1).collect(),
            });
            from = to;
        }
    }
    parts
}

/// What a run measured over its steadiest sub-runs.
#[derive(Debug, PartialEq)]
struct Steady {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    user_ms_per_query: f64,
    sys_ms_per_query: f64,
}

/// [`Steady`] over the half of the run's sub-runs during which the
/// hypervisor stole the least CPU time.
fn steady(run: &Run, samples: &[Sample]) -> Steady {
    let mut parts = stretches(run, samples);
    for (i, p) in parts.iter().enumerate() {
        let n = p.latencies_ms.len() as f64;
        println!(
            "sub-run {i}: {:.1} steal ticks/s, {:.1} queries/s, {:.3} user + {:.3} system CPU ms/query",
            p.steal,
            ratio(n, p.secs),
            ratio(p.user_ms, n),
            ratio(p.sys_ms, n)
        );
    }
    parts.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    parts.truncate(parts.len().div_ceil(2));
    let lat: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let n = lat.len() as f64;
    Steady {
        qps: ratio(n, parts.iter().map(|p| p.secs).sum()),
        p50_ms: median(&lat),
        p99_ms: percentile(&lat, 99.0).unwrap_or(0.0),
        user_ms_per_query: ratio(parts.iter().map(|p| p.user_ms).sum(), n),
        sys_ms_per_query: ratio(parts.iter().map(|p| p.sys_ms).sum(), n),
    }
}

/// End-to-end metrics of an untraced run, in [`END_TO_END`] order.
fn end_to_end(run: &Run, samples: &[Sample]) -> Vec<f64> {
    let s = steady(run, samples);
    vec![
        s.qps,
        s.p50_ms,
        s.user_ms_per_query,
        run.setup_s,
        run.peak_rss_mb,
    ]
}

/// Share of the machine's CPU time the hypervisor took away during the
/// timed phase, in percent (`/proc/stat` counts 100 ticks a second per CPU).
fn steal_pct(run: &Run, samples: &[Sample]) -> f64 {
    let steal_at = |t| procfs::at(samples, t, |s| s.steal as f64);
    let ticks: f64 = run
        .windows
        .iter()
        .map(|w| steal_at(w.end) - steal_at(w.start))
        .sum();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    ratio(ticks, wall_s(run) * 100.0 * cpus) * 100.0
}

/// Per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(run: &Run, samples: &[Sample]) -> Vec<f64> {
    let spans = &run.spans;
    let med_us = |name| median(&trace::durations_us(spans, name));
    let selfs = trace::self_times(spans);
    let request_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| selfs[&s.id] as f64 / 1e3)
        .collect();
    // The traced run's own qps and latencies, measured as the untraced
    // run measures them: side by side they give the tracing overhead.
    let traced = steady(run, samples);
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "sql.plan_sql_us" => med_us("sql.plan_sql"),
            "plan.optimize_us" => med_us("plan.optimize"),
            "core.submit_us" => med_us("core.submit") / run.queries_per_submit,
            "engine.first_batch_ms" => med_us("engine.first_batch") / 1e3,
            "engine.drain_ms" => med_us("engine.drain") / 1e3,
            "engine.os_threads_peak" => samples.iter().map(|s| s.threads).max().unwrap_or(0) as f64,
            "client.self_us" => median(&request_self),
            "process.sys_cpu_ms_per_query" => traced.sys_ms_per_query,
            "trace.qps" => traced.qps,
            "trace.latency_p50_ms" => traced.p50_ms,
            "trace.latency_p99_ms" => traced.p99_ms,
            "host.steal_pct" => steal_pct(run, samples),
            _ => run
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, opts } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sampler = procfs::Sampler::start();
    let run = match workload.as_str() {
        "star-batch-disk" => workloads::star_batch_disk(&opts, started),
        "selective-spl-memory" => workloads::selective_spl_memory(&opts, started),
        _ => workloads::sql_wire_auto(&opts, started),
    };
    let samples = sampler.finish();
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }

    let (names, values): (&[(&str, &str)], Vec<f64>) = if opts.trace {
        let path = format!("benchmark/out/trace-{workload}-{}.jsonl", opts.seed);
        if let Err(e) = trace::write_jsonl(std::path::Path::new(&path), &run.spans) {
            eprintln!("could not write {path}: {e}");
        }
        (&PER_LAYER, per_layer(&run, &samples))
    } else {
        (&END_TO_END, end_to_end(&run, &samples))
    };
    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    println!(
        "workload {workload} seed {} seconds {} trace {}: {} attempted, {} failed, {:.3} s timed, {:.1}% of host CPU stolen",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        run.attempted,
        run.failed,
        wall_s(&run),
        steal_pct(&run, &samples)
    );
    for (n, v, u) in &metrics {
        println!("{n:<40} {v:>14.4} {u}");
    }
    println!(
        "{}",
        result_json(run.problems.is_empty(), run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let a = parse_args(&argv(
            "--workload sql-wire-auto --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "sql-wire-auto");
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (7, 3, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sql-wire-auto --seed x --seconds 1 --trace 0",
            "--workload sql-wire-auto --seed 1 --seconds 1 --trace 2",
            "--workload sql-wire-auto --seed 1 --seconds 1",
            "--workload sql-wire-auto --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Five sub-runs of three queries; the middle three ran while the
    /// hypervisor stole time, and are three times slower.
    #[test]
    fn end_to_end_takes_the_least_stolen_half_of_the_sub_runs() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
        let ends = [1.0, 4.0, 7.0, 10.0, 11.0];
        let mut done = Vec::new();
        for (i, &end) in ends.iter().enumerate() {
            let lat = if i == 0 || i == 4 { 1.0 } else { 5.0 };
            done.extend([(at(end - 0.5), lat), (at(end - 0.2), lat), (at(end), lat)]);
        }
        let samples: Vec<Sample> = [0.0, 1.0, 4.0, 7.0, 10.0, 11.0]
            .iter()
            .zip([0, 0, 300, 600, 900, 900])
            .enumerate()
            .map(|(i, (&t, steal))| Sample {
                at: at(t),
                user_ms: 3.0 * i as f64,
                sys_ms: i as f64,
                steal,
                threads: 1,
            })
            .collect();
        let run = run_of(done, vec![window(t0, at(11.0), 5)]);
        // The least-stolen three: both quiet sub-runs and the first stolen
        // one (ties keep their order): 9 queries in 5 s, median 1 ms, p99
        // 5 ms, 1 ms of user and 1/3 ms of system CPU each. All five would
        // give 15 in 11 s and 5 ms.
        assert_eq!(
            steady(&run, &samples),
            Steady {
                qps: 1.8,
                p50_ms: 1.0,
                p99_ms: 5.0,
                user_ms_per_query: 1.0,
                sys_ms_per_query: 1.0 / 3.0,
            }
        );
        assert_eq!(end_to_end(&run, &samples), vec![1.8, 1.0, 1.0, 0.5, 9.0]);
        assert!((steal_pct(&run, &samples) - 900.0 / (11.0 * 100.0 * cpus()) * 100.0).abs() < 1e-9);
    }

    fn window(start: Instant, end: Instant, sub_runs: usize) -> workloads::Window {
        workloads::Window {
            start,
            end,
            sub_runs,
        }
    }

    fn run_of(done: Vec<(Instant, f64)>, windows: Vec<workloads::Window>) -> Run {
        Run {
            setup_s: 0.5,
            windows,
            peak_rss_mb: 9.0,
            attempted: done.len() as u64,
            done,
            failed: 0,
            problems: Vec::new(),
            spans: Vec::new(),
            queries_per_submit: 1.0,
            counters: Vec::new(),
        }
    }

    /// Two engine instances, each timed for 1 s with one sub-run; the 8 s
    /// between them (the second instance's set-up) is not timed.
    #[test]
    fn time_between_windows_is_not_counted() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
        let done = vec![
            (at(0.5), 1.0),
            (at(1.0), 1.0),
            (at(9.5), 2.0),
            (at(10.0), 2.0),
        ];
        let samples: Vec<Sample> = [(0.0, 0), (1.0, 100), (9.0, 100), (10.0, 100)]
            .iter()
            .map(|&(t, steal)| Sample {
                at: at(t),
                user_ms: t * 4.0,
                sys_ms: 0.0,
                steal,
                threads: 1,
            })
            .collect();
        let run = run_of(
            done,
            vec![window(t0, at(1.0), 1), window(at(9.0), at(10.0), 1)],
        );
        assert_eq!(wall_s(&run), 2.0);
        let parts = stretches(&run, &samples);
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[1].secs, parts[1].user_ms), (1.0, 4.0));
        // The second window stole nothing, so it alone is the steady half.
        assert_eq!(end_to_end(&run, &samples), vec![2.0, 2.0, 2.0, 0.5, 9.0]);
        assert!((steal_pct(&run, &samples) - 100.0 / (2.0 * 100.0 * cpus()) * 100.0).abs() < 1e-9);
    }

    fn cpus() -> f64 {
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[("qps", 1.5, "queries/s"), ("x", f64::NAN, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 1.5, \"unit\": \"queries/s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    /// The metric and workload names printed here are the ones
    /// `BENCHMARK.json` declares, in the same order and with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut at = 0;
        let mut expect = |needle: String| {
            let found = json[at..].find(&needle);
            assert!(
                found.is_some(),
                "{needle} missing or out of order in BENCHMARK.json"
            );
            at += found.unwrap() + needle.len();
        };
        for w in WORKLOADS {
            expect(format!("\"name\": \"{w}\""));
        }
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            expect(format!("\"name\": \"{n}\", \"unit\": \"{u}\""));
        }
    }
}
