//! Deterministic fault injection for chaos testing the service.
//!
//! A [`FaultPlan`] is a pure function of a single `u64` seed: it expands
//! into a set of rules, each bound to an injection [`FaultSite`] inside
//! the service (the former's drain loop, the worker's batch execution,
//! the per-connection read and write paths). Every time execution passes
//! a site it ticks that site's logical clock — an atomic event counter —
//! and the rules fire on fixed residues of that clock, capped at a
//! per-rule budget. Two chaos runs with the same seed therefore inject
//! the same faults at the same logical positions, even though OS thread
//! scheduling may shuffle which *request* lands on a given position; the
//! invariants a chaos run asserts (exactly one reply per request, no
//! process exit) are scheduling-independent by design.
//!
//! The production hot path carries a [`FaultHook`], which is an
//! `Option<Arc<..>>` underneath: disabled (the default everywhere) it is
//! a `None` check — one predictable branch, no atomics touched — so the
//! serve path pays nothing for the chaos machinery it enables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where in the service a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The former's drain loop, once per drain pass (queue stalls).
    FormerDrain = 0,
    /// A worker about to execute one formed batch (panics, slow batches).
    WorkerBatch = 1,
    /// A connection reader about to read the next frame (drops).
    ConnRead = 2,
    /// A connection writer about to write one reply frame (drops,
    /// corruption, truncation).
    ConnWrite = 3,
    /// The fleet supervisor visiting one shard *process* (SIGKILL of a
    /// live OS child). Ticks once per shard per supervision round.
    ShardProcess = 4,
}

const SITES: usize = 5;

/// What the injector asks the passing thread to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic (inside the worker's `catch_unwind` scope).
    PanicWorker,
    /// Sleep for the given duration before proceeding.
    Delay(Duration),
    /// Shut the connection down both ways, dropping it mid-stream.
    DropConn,
    /// Flip the frame's kind byte before writing, desynchronizing the
    /// peer's decoder (it must drop the connection and resubmit).
    CorruptFrame,
    /// Write only the first half of the frame, then drop the connection
    /// (a torn frame: the peer sees EOF mid-frame, a typed error).
    TruncateFrame,
    /// SIGKILL the shard *process* the fleet supervisor is visiting: the
    /// OS reclaims it instantly, every request in flight on its
    /// connection comes back as a typed `ShardLost` (the router resubmits
    /// once), and the supervisor respawns a fresh process with capped
    /// backoff. The supervisor refuses to kill the last live process.
    KillProcess,
}

#[derive(Debug, Clone, Copy)]
struct Rule {
    site: FaultSite,
    /// Fire when the site clock `c` satisfies `c % every == offset`.
    every: u64,
    offset: u64,
    /// Lifetime injection budget for this rule.
    max: u64,
    action: FaultAction,
}

/// A named, seeded schedule of faults. Pure data: build one, wrap it in
/// a [`FaultHook`], and hand that to the service and server.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The built-in plan name (`worker-panic`, `slow-batch`, ...).
    pub name: &'static str,
    rules: Vec<Rule>,
}

/// SplitMix64: cheap, well-distributed derivation of per-plan constants
/// from the seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Every built-in plan name accepted by [`FaultPlan::named`].
    pub const NAMES: &'static [&'static str] = &[
        "worker-panic",
        "slow-batch",
        "queue-stall",
        "conn-drop",
        "frame-corrupt",
        "proc-kill",
        "mixed",
        "inert",
    ];

    /// The built-in plan `name` derived from `seed`.
    pub fn named(name: &str, seed: u64) -> Result<FaultPlan, String> {
        match name {
            "worker-panic" => Ok(Self::worker_panic(seed)),
            "slow-batch" => Ok(Self::slow_batch(seed)),
            "queue-stall" => Ok(Self::queue_stall(seed)),
            "conn-drop" => Ok(Self::conn_drop(seed)),
            "frame-corrupt" => Ok(Self::frame_corrupt(seed)),
            "proc-kill" => Ok(Self::proc_kill(seed)),
            "mixed" => Ok(Self::mixed(seed)),
            "inert" => Ok(Self::inert(seed)),
            other => Err(format!(
                "unknown fault plan {other} (use one of {})",
                Self::NAMES.join(", ")
            )),
        }
    }

    /// Panics a worker on a seed-derived residue of the batch clock, six
    /// times: enough to prove supervision sustains repeated crashes, few
    /// enough that the run still makes progress.
    pub fn worker_panic(seed: u64) -> FaultPlan {
        let every = 2 + splitmix(seed) % 3; // every 2nd..4th batch
        FaultPlan {
            seed,
            name: "worker-panic",
            rules: vec![Rule {
                site: FaultSite::WorkerBatch,
                every,
                offset: splitmix(seed ^ 1) % every,
                max: 6,
                action: FaultAction::PanicWorker,
            }],
        }
    }

    /// Stalls a worker for a few milliseconds on a residue of the batch
    /// clock: requests behind it must still all be answered.
    pub fn slow_batch(seed: u64) -> FaultPlan {
        let every = 3 + splitmix(seed) % 4;
        let ms = 2 + splitmix(seed ^ 2) % 5;
        FaultPlan {
            seed,
            name: "slow-batch",
            rules: vec![Rule {
                site: FaultSite::WorkerBatch,
                every,
                offset: splitmix(seed ^ 3) % every,
                max: 8,
                action: FaultAction::Delay(Duration::from_millis(ms)),
            }],
        }
    }

    /// Stalls the former's drain loop, backing the ingest queue up
    /// against its capacity bound.
    pub fn queue_stall(seed: u64) -> FaultPlan {
        let every = 4 + splitmix(seed) % 4;
        let ms = 1 + splitmix(seed ^ 4) % 4;
        FaultPlan {
            seed,
            name: "queue-stall",
            rules: vec![Rule {
                site: FaultSite::FormerDrain,
                every,
                offset: splitmix(seed ^ 5) % every,
                max: 6,
                action: FaultAction::Delay(Duration::from_millis(ms)),
            }],
        }
    }

    /// Drops live connections mid-stream from both the read and write
    /// sides; clients must reconnect and resubmit.
    pub fn conn_drop(seed: u64) -> FaultPlan {
        let w_every = 23 + splitmix(seed) % 16;
        let r_every = 41 + splitmix(seed ^ 6) % 16;
        FaultPlan {
            seed,
            name: "conn-drop",
            rules: vec![
                Rule {
                    site: FaultSite::ConnWrite,
                    every: w_every,
                    offset: splitmix(seed ^ 7) % w_every,
                    max: 4,
                    action: FaultAction::DropConn,
                },
                Rule {
                    site: FaultSite::ConnRead,
                    every: r_every,
                    offset: splitmix(seed ^ 8) % r_every,
                    max: 2,
                    action: FaultAction::DropConn,
                },
            ],
        }
    }

    /// Corrupts and truncates reply frames on the wire; the peer's
    /// decoder must fail typed (never panic) and recover by reconnecting.
    pub fn frame_corrupt(seed: u64) -> FaultPlan {
        let c_every = 29 + splitmix(seed) % 12;
        let t_every = 47 + splitmix(seed ^ 9) % 12;
        FaultPlan {
            seed,
            name: "frame-corrupt",
            rules: vec![
                Rule {
                    site: FaultSite::ConnWrite,
                    every: c_every,
                    offset: splitmix(seed ^ 10) % c_every,
                    max: 3,
                    action: FaultAction::CorruptFrame,
                },
                Rule {
                    site: FaultSite::ConnWrite,
                    every: t_every,
                    offset: splitmix(seed ^ 11) % t_every,
                    max: 2,
                    action: FaultAction::TruncateFrame,
                },
            ],
        }
    }

    /// SIGKILLs whole shard *processes* from the fleet supervisor's
    /// round, twice: enough to prove OS-level crash recovery (in-flight
    /// requests come back as `ShardLost` and are resubmitted, the
    /// supervisor respawns the child), and one below the process count
    /// the chaos harness runs with (the supervisor additionally refuses
    /// to kill the last live process).
    pub fn proc_kill(seed: u64) -> FaultPlan {
        let every = 16 + splitmix(seed) % 12;
        FaultPlan {
            seed,
            name: "proc-kill",
            rules: vec![Rule {
                site: FaultSite::ShardProcess,
                every,
                offset: splitmix(seed ^ 13) % every,
                max: 2,
                action: FaultAction::KillProcess,
            }],
        }
    }

    /// Everything at once, at reduced rates.
    pub fn mixed(seed: u64) -> FaultPlan {
        let mut rules = Vec::new();
        for plan in [
            Self::worker_panic(seed),
            Self::slow_batch(seed ^ 0x5151),
            Self::queue_stall(seed ^ 0xA2A2),
            Self::conn_drop(seed ^ 0xF3F3),
            Self::frame_corrupt(seed ^ 0x1C1C),
        ] {
            rules.extend(plan.rules.into_iter().map(|mut r| {
                r.every *= 2; // halve every rate
                r.max = r.max.div_ceil(2);
                r
            }));
        }
        FaultPlan {
            seed,
            name: "mixed",
            rules,
        }
    }

    /// An enabled plan with no rules: every site check runs the full
    /// decide path but nothing ever fires. Used by the benches to price
    /// the hook machinery itself.
    pub fn inert(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            name: "inert",
            rules: Vec::new(),
        }
    }

    /// Number of rules in the plan.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// The live injector: a plan plus its logical clocks.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counts: [AtomicU64; SITES],
    fired: Vec<AtomicU64>,
    injected: AtomicU64,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> FaultInjector {
        let fired = (0..plan.rules.len()).map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            plan,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            fired,
            injected: AtomicU64::new(0),
        }
    }

    /// Ticks `site`'s clock and returns the action to take, if any.
    fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        let c = self.counts[site as usize].fetch_add(1, Ordering::Relaxed);
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.site != site || c % rule.every != rule.offset {
                continue;
            }
            if self.fired[i].fetch_add(1, Ordering::Relaxed) >= rule.max {
                continue;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(rule.action);
        }
        None
    }
}

/// The handle the service threads carry. Cloning is an `Arc` clone;
/// the disabled hook (the default) is a `None` and costs one branch per
/// site check.
#[derive(Clone, Default)]
pub struct FaultHook {
    inner: Option<Arc<FaultInjector>>,
}

impl FaultHook {
    /// The no-op hook production paths run with.
    pub fn disabled() -> FaultHook {
        FaultHook { inner: None }
    }

    /// A hook driving the given plan.
    pub fn from_plan(plan: FaultPlan) -> FaultHook {
        FaultHook {
            inner: Some(Arc::new(FaultInjector::new(plan))),
        }
    }

    /// `true` when a plan is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ticks `site`'s clock (when enabled) and returns the fault to
    /// inject, if any. The disabled path is a single `None` branch.
    #[inline]
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        match &self.inner {
            None => None,
            Some(inj) => inj.decide(site),
        }
    }

    /// Total faults injected so far (0 when disabled).
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// The attached plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.inner.as_ref().map(|i| &i.plan)
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.plan() {
            None => write!(f, "FaultHook(disabled)"),
            Some(p) => write!(f, "FaultHook({} seed {})", p.name, p.seed),
        }
    }
}

/// Marker carried by every panic the harness injects, so the panic hook
/// below can tell them from real bugs.
pub(crate) const INJECTED_PANIC_MARKER: &str = "injected worker panic";

/// Installs (once, process-wide) a panic hook that swallows the stderr
/// noise of panics *injected by the harness* — chaos runs fire dozens —
/// while delegating every other panic to the previously installed hook
/// untouched.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `n` ticks of one site and collects the firing positions.
    fn firings(hook: &FaultHook, site: FaultSite, n: u64) -> Vec<(u64, FaultAction)> {
        (0..n)
            .filter_map(|i| hook.check(site).map(|a| (i, a)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let a = FaultHook::from_plan(FaultPlan::worker_panic(seed));
            let b = FaultHook::from_plan(FaultPlan::worker_panic(seed));
            assert_eq!(
                firings(&a, FaultSite::WorkerBatch, 200),
                firings(&b, FaultSite::WorkerBatch, 200),
            );
            assert_eq!(a.injected(), b.injected());
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let schedules: Vec<_> = (0..8u64)
            .map(|s| {
                let h = FaultHook::from_plan(FaultPlan::conn_drop(s));
                firings(&h, FaultSite::ConnWrite, 400)
            })
            .collect();
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "eight consecutive seeds produced identical conn-drop schedules"
        );
    }

    #[test]
    fn budgets_cap_injections() {
        let hook = FaultHook::from_plan(FaultPlan::worker_panic(3));
        let fired = firings(&hook, FaultSite::WorkerBatch, 100_000);
        assert_eq!(fired.len(), 6, "worker-panic budget is 6");
        assert!(fired
            .iter()
            .all(|(_, a)| matches!(a, FaultAction::PanicWorker)));
        // Exhausted: later ticks never fire again.
        assert!(firings(&hook, FaultSite::WorkerBatch, 10_000).is_empty());
    }

    #[test]
    fn sites_are_independent_clocks() {
        let hook = FaultHook::from_plan(FaultPlan::conn_drop(11));
        // Ticking an unrelated site never fires conn rules.
        assert!(firings(&hook, FaultSite::WorkerBatch, 1000).is_empty());
        assert!(!firings(&hook, FaultSite::ConnWrite, 1000).is_empty());
    }

    #[test]
    fn disabled_hook_is_inert_and_cheap() {
        let hook = FaultHook::disabled();
        assert!(!hook.is_enabled());
        for _ in 0..1000 {
            assert!(hook.check(FaultSite::WorkerBatch).is_none());
        }
        assert_eq!(hook.injected(), 0);
        let inert = FaultHook::from_plan(FaultPlan::inert(5));
        assert!(inert.is_enabled());
        assert!(firings(&inert, FaultSite::ConnWrite, 1000).is_empty());
    }

    #[test]
    fn proc_kill_fires_only_at_the_process_site_within_budget() {
        let hook = FaultHook::from_plan(FaultPlan::proc_kill(42));
        assert!(firings(&hook, FaultSite::WorkerBatch, 10_000).is_empty());
        let fired = firings(&hook, FaultSite::ShardProcess, 10_000);
        assert_eq!(fired.len(), 2, "proc-kill budget is 2");
        assert!(fired
            .iter()
            .all(|(_, a)| matches!(a, FaultAction::KillProcess)));
    }

    #[test]
    fn named_plans_resolve_and_reject() {
        for name in FaultPlan::NAMES {
            let plan = FaultPlan::named(name, 42).unwrap();
            assert_eq!(plan.name, *name);
        }
        assert!(FaultPlan::named("meteor-strike", 42).is_err());
        assert!(FaultPlan::mixed(1).rule_count() >= 5);
    }
}
