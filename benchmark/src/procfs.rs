//! Process-level readings from `/proc/self`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User and system CPU time of the whole process, in milliseconds.
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14 and stime field 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ms = |i: usize| f.get(i).copied().unwrap_or(0) as f64 * 1e3 / USER_HZ;
    (ms(10), ms(11))
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn status_field(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident-set high-water mark, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Stolen time of the whole machine (`/proc/stat`, ticks): time the
/// hypervisor ran something else while a virtual CPU wanted to run.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// One reading of the process and the machine.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was taken.
    pub at: Instant,
    /// User CPU time of [`cpu_ms`] at that time.
    pub user_ms: f64,
    /// System CPU time of [`cpu_ms`] at that time.
    pub sys_ms: f64,
    /// [`steal_ticks`] at that time.
    pub steal: u64,
    /// OS threads of the process.
    pub threads: u64,
}

/// Spacing of the samples.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(25);

fn sample() -> Sample {
    let (user_ms, sys_ms) = cpu_ms();
    Sample {
        at: Instant::now(),
        user_ms,
        sys_ms,
        steal: steal_ticks(),
        threads: status_field("Threads"),
    }
}

/// Takes a [`Sample`] every [`SAMPLE_EVERY`] on a thread of its own.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = vec![sample()];
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                samples.push(sample());
            }
            samples
        });
        Sampler { stop, handle }
    }

    /// Stop sampling; the samples in time order, the last taken now.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().expect("sampler thread panicked");
        samples.push(sample());
        samples
    }
}

/// `f` of the samples at `t`, interpolated linearly between the two
/// samples around it (clamped to the first and last).
pub fn at(samples: &[Sample], t: Instant, f: impl Fn(&Sample) -> f64) -> f64 {
    let i = samples
        .partition_point(|x| x.at <= t)
        .clamp(1, samples.len() - 1);
    let (a, b) = (&samples[i - 1], &samples[i]);
    let span = (b.at - a.at).as_secs_f64();
    let w = if span > 0.0 {
        (t.saturating_duration_since(a.at).as_secs_f64() / span).min(1.0)
    } else {
        1.0
    };
    f(a) + w * (f(b) - f(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_interpolate() {
        assert!(peak_rss_mb() > 0.0);
        let sampler = Sampler::start();
        // Burn some CPU so the tick counter moves.
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let samples = sampler.finish();
        assert!(samples.len() >= 3);
        assert!(
            samples.iter().all(|s| s.threads >= 2),
            "the sampler is a thread"
        );
        assert!(cpu_ms().0 > 0.0);

        let (t0, t1) = (samples[0].at, samples[1].at);
        let hand = [
            Sample {
                at: t0,
                user_ms: 10.0,
                sys_ms: 0.0,
                steal: 0,
                threads: 1,
            },
            Sample {
                at: t1,
                user_ms: 30.0,
                sys_ms: 0.0,
                steal: 0,
                threads: 1,
            },
        ];
        let mid = t0 + (t1 - t0) / 2;
        assert!((at(&hand, mid, |s| s.user_ms) - 20.0).abs() < 1e-6);
        assert_eq!(at(&hand, t0, |s| s.user_ms), 10.0);
        assert_eq!(at(&hand, t1 + Duration::from_secs(1), |s| s.user_ms), 30.0);
    }
}
