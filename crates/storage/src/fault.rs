//! Seeded failpoint registry — deterministic fault injection for the
//! chaos harness.
//!
//! The shared engine's robustness claims ("a poisoned query degrades to
//! one failed ticket, never a dead process") are only testable if faults
//! can be *produced* on demand: I/O errors out of the buffer pool,
//! allocation failures in `PageBuilder`, delays and aborts at channel
//! boundaries. This module is the single switchboard for all of them.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost disarmed.** Every injection site guards on one relaxed
//!    atomic load ([`armed`]); production code pays a predictable branch
//!    and nothing else. The registry lock is only ever touched while a
//!    chaos test has explicitly armed faults.
//! 2. **Deterministic.** Firing decisions are a pure function of
//!    `(seed, point name, per-point evaluation count)` via splitmix64 —
//!    the same seed replays the same fault schedule for a fixed
//!    interleaving of evaluations, and a logged seed is enough to rerun
//!    a chaos failure locally.
//! 3. **Semantics live at the call site.** The registry only answers
//!    "does point X fire now?"; whether that means `StorageError::Io`, a
//!    panic, or a stall is decided where the fault is injected (helpers
//!    below cover the shapes, and the delay/abort pair of a hand-off).
//!
//! State is process-global, so tests serialize on [`test_guard`] — not
//! only the ones that arm faults: a test that merely drives a path with
//! an injection site evaluates whatever a co-running test has armed (the
//! chaos harness runs its rounds sequentially in one test binary for the
//! same reason).
//!
//! Arming from the environment: `QS_FAULTS="point=prob[:after],..."`
//! with `QS_FAULT_SEED=<u64>` (default 0), e.g.
//! `QS_FAULTS="disk.read=0.01,fifo.push.delay=0.05:100"`.

use crate::error::StorageError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Aggregate output name that, while faults are armed, makes the engine's
/// aggregate operator panic deliberately — the "known-poisoned plan" of
/// the chaos harness. Unsharable by construction: the name is part of the
/// plan signature, so simultaneous pipelining never attaches a healthy
/// co-runner to a poisoned packet.
pub const POISON_AGG_NAME: &str = "__chaos_panic__";

/// How long [`maybe_delay`] stalls when its point fires.
const DELAY: Duration = Duration::from_micros(500);

/// Configuration of one named failpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that an evaluation past `after` fires.
    /// `1.0` fires every evaluation (after the skip window).
    pub prob: f64,
    /// Number of initial evaluations of this point that never fire —
    /// lets a test get past setup I/O before chaos starts.
    pub after: u64,
}

impl FaultSpec {
    /// A point firing with probability `prob` from the first evaluation.
    pub fn prob(prob: f64) -> FaultSpec {
        FaultSpec { prob, after: 0 }
    }
}

struct PointState {
    spec: FaultSpec,
    evals: u64,
    fired: u64,
}

#[derive(Default)]
struct Registry {
    seed: u64,
    points: HashMap<String, PointState>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Whether any failpoints are currently armed. This is the fast path
/// every injection site (and the poison-plan check) guards on.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the registry with a seed and a set of named failpoints, replacing
/// whatever was armed before. Points not listed never fire.
pub fn arm(seed: u64, specs: &[(&str, FaultSpec)]) {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.seed = seed;
    reg.points = specs
        .iter()
        .map(|(name, spec)| {
            (
                name.to_string(),
                PointState {
                    spec: *spec,
                    evals: 0,
                    fired: 0,
                },
            )
        })
        .collect();
    ARMED.store(true, Ordering::Release);
}

/// Arm from `QS_FAULTS` / `QS_FAULT_SEED` if set; returns whether faults
/// were armed. Format: `point=prob[:after]` entries separated by commas.
pub fn arm_from_env() -> bool {
    let Ok(spec) = std::env::var("QS_FAULTS") else {
        return false;
    };
    let seed = std::env::var("QS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64);
    let mut specs = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let (name, rest) = entry
            .split_once('=')
            .unwrap_or_else(|| panic!("QS_FAULTS entry `{entry}` is not `point=prob[:after]`"));
        let (prob, after) = match rest.split_once(':') {
            Some((p, a)) => (p, a.parse().expect("QS_FAULTS after must be a u64")),
            None => (rest, 0),
        };
        let prob: f64 = prob.parse().expect("QS_FAULTS prob must be an f64");
        specs.push((name.trim().to_string(), FaultSpec { prob, after }));
    }
    let borrowed: Vec<(&str, FaultSpec)> =
        specs.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    arm(seed, &borrowed);
    true
}

/// Disarm every failpoint. Injection sites return to the single
/// relaxed-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.clear();
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn point_hash(name: &str) -> u64 {
    // FNV-1a; any stable string hash works, `DefaultHasher` is not
    // guaranteed stable across releases.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Evaluate the named failpoint: `true` means the call site should
/// inject its fault now. Never fires while disarmed or for unregistered
/// points; deterministic in `(seed, name, evaluation count)`.
pub fn should_fire(point: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let seed = reg.seed;
    let Some(state) = reg.points.get_mut(point) else {
        return false;
    };
    state.evals += 1;
    if state.evals <= state.spec.after {
        return false;
    }
    let roll = splitmix64(seed ^ point_hash(point) ^ state.evals);
    // Map the top 53 bits to [0, 1).
    let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
    if unit < state.spec.prob {
        state.fired += 1;
        true
    } else {
        false
    }
}

/// How many times the named point has fired since it was armed.
pub fn fired(point: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.get(point).map_or(0, |s| s.fired)
}

/// Total fires across all armed points.
pub fn fired_total() -> u64 {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.values().map(|s| s.fired).sum()
}

/// Injection helper: typed I/O error. `Err(StorageError::Io)` when the
/// point fires, `Ok(())` otherwise.
#[inline]
pub fn maybe_io(point: &str, what: &str) -> Result<(), StorageError> {
    if armed() && should_fire(point) {
        return Err(StorageError::Io(format!(
            "injected fault `{point}` during {what}"
        )));
    }
    Ok(())
}

/// Injection helper: deliberate panic (exercises containment). Used for
/// allocation-failure sites where real code would abort.
#[inline]
pub fn maybe_panic(point: &str) {
    if armed() && should_fire(point) {
        panic!("injected fault `{point}`");
    }
}

/// Injection helper: stall the caller briefly (models a slow channel /
/// scheduling hiccup). Returns whether it fired.
#[inline]
pub fn maybe_delay(point: &str) -> bool {
    if armed() && should_fire(point) {
        std::thread::sleep(DELAY);
        return true;
    }
    false
}

/// Injection helper: the delay/abort pair of a hand-off point (a stage
/// channel, a buffer push, a registry lookup). `<point>.delay` stalls the
/// caller briefly; `<point>.abort` then fails the hand-off with an
/// "injected fault" message naming that point, whose meaning (a lost
/// batch, an aborted stream, a missed lookup) the call site decides.
/// Disarmed cost: one relaxed load.
#[inline]
pub fn maybe_delay_abort(point: &str) -> Result<(), String> {
    if !armed() {
        return Ok(());
    }
    delay_abort_armed(point)
}

#[cold]
fn delay_abort_armed(point: &str) -> Result<(), String> {
    maybe_delay(&format!("{point}.delay"));
    let abort = format!("{point}.abort");
    if should_fire(&abort) {
        return Err(format!("injected fault `{abort}`"));
    }
    Ok(())
}

/// Serialization lock for tests that share the process-global registry.
/// Any `#[test]` that calls [`arm`]/[`disarm`] must hold this guard for
/// its whole body, or parallel tests in the same binary clobber each
/// other's fault schedules. So must any test that drives a path with an
/// injection site (CJOIN channels, FIFO/SPL pushes, the worker pool,
/// disk reads) whenever a test in the same binary arms the registry:
/// otherwise it evaluates that test's armed points and fails on them.
/// Such a test takes the guard and calls [`disarm`] first.
#[doc(hidden)]
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global: every test below arms/disarms it,
    // so they serialize on one lock rather than race.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = serial();
        disarm();
        assert!(!armed());
        assert!(!should_fire("disk.read"));
        assert!(maybe_io("disk.read", "test").is_ok());
        maybe_panic("page.alloc"); // must not panic
        assert!(!maybe_delay("fifo.push.delay"));
        assert!(maybe_delay_abort("fifo.push").is_ok());
    }

    #[test]
    fn certain_fault_fires_and_counts() {
        let _g = serial();
        arm(42, &[("disk.read", FaultSpec::prob(1.0))]);
        assert!(should_fire("disk.read"));
        assert!(should_fire("disk.read"));
        assert_eq!(fired("disk.read"), 2);
        assert_eq!(fired_total(), 2);
        // Unregistered points stay quiet even while armed.
        assert!(!should_fire("other.point"));
        let err = maybe_io("disk.read", "page 3 of lineorder").unwrap_err();
        assert!(err.to_string().contains("disk.read"));
        disarm();
    }

    #[test]
    fn delay_abort_pair_fires_its_abort_point() {
        let _g = serial();
        arm(
            3,
            &[
                ("chan.delay", FaultSpec::prob(1.0)),
                ("chan.abort", FaultSpec::prob(1.0)),
            ],
        );
        assert_eq!(
            maybe_delay_abort("chan"),
            Err("injected fault `chan.abort`".to_string())
        );
        assert_eq!((fired("chan.delay"), fired("chan.abort")), (1, 1));
        assert!(maybe_delay_abort("other").is_ok());
        disarm();
    }

    #[test]
    fn after_window_skips_initial_evaluations() {
        let _g = serial();
        arm(7, &[("p", FaultSpec { prob: 1.0, after: 3 })]);
        assert!(!should_fire("p"));
        assert!(!should_fire("p"));
        assert!(!should_fire("p"));
        assert!(should_fire("p"));
        assert_eq!(fired("p"), 1);
        disarm();
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let _g = serial();
        let run = |seed: u64| -> Vec<bool> {
            arm(seed, &[("p", FaultSpec::prob(0.5))]);
            let v = (0..64).map(|_| should_fire("p")).collect();
            disarm();
            v
        };
        let a = run(1234);
        let b = run(1234);
        let c = run(5678);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must diverge");
        // And a 0.5 probability actually fires a non-trivial fraction.
        let hits = a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&hits), "hits={hits}");
    }

    #[test]
    fn env_arming_parses_specs() {
        let _g = serial();
        // `set_var` is fine here: this test holds the serial lock and
        // no other storage test reads these variables.
        std::env::set_var("QS_FAULTS", "disk.read=1.0,fifo.push.delay=0.25:10");
        std::env::set_var("QS_FAULT_SEED", "99");
        assert!(arm_from_env());
        assert!(should_fire("disk.read"));
        std::env::remove_var("QS_FAULTS");
        std::env::remove_var("QS_FAULT_SEED");
        disarm();
        assert!(!arm_from_env());
    }
}
