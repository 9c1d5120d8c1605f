//! Fleet assembly for `serve` and `chaos`: the one place that turns a
//! [`ServiceConfig`] into a running service, in-process shard fleet, or
//! shard-process fleet, and the one place that renders a config into
//! the `serve --shard-child` argument list.

use crate::args::Args;
use ibcf_gpu_sim::GpuSpec;
use ibcf_service::{
    EngineSelector, FaultHook, Fleet, FleetConfig, InProcessShard, Router, RouterConfig, Service,
    ServiceConfig, ShardBackend, StatsSnapshot, TcpServer,
};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the shards of a served system run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One service, no router.
    Single,
    /// `n` services in this process behind a router. Each service runs
    /// the config's fault hook, so in-process faults fire inside shards.
    InProcess(usize),
    /// `n` `serve --shard-child` processes behind a router. Children run
    /// without faults; the config's fault hook drives the supervisor's
    /// process kills instead.
    Procs(usize),
}

/// The engine-plan tiers as given on the command line: a dispatch table
/// path (`--dispatch`) and a GPU name for the analytic tier
/// (`--analytic`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineTiers {
    /// Dispatch table saved by `ibcf tune`.
    pub dispatch: Option<String>,
    /// GPU preset the analytic tier models.
    pub analytic: Option<String>,
}

impl EngineTiers {
    /// Reads `--dispatch` and `--analytic`.
    pub fn of(args: &Args) -> EngineTiers {
        EngineTiers {
            dispatch: args.options.get("dispatch").cloned(),
            analytic: args.options.get("analytic").cloned(),
        }
    }

    /// The selector: table, then the analytic model for the named GPU (at
    /// the paper's batch), then the heuristic. Each tier is optional.
    pub fn selector(&self) -> Result<EngineSelector, String> {
        let selector = match &self.dispatch {
            None => EngineSelector::heuristic(),
            Some(path) => EngineSelector::load(Path::new(path))
                .map_err(|e| format!("loading dispatch table {path}: {e}"))?,
        };
        Ok(match &self.analytic {
            None => selector,
            Some(name) => match GpuSpec::by_name(name) {
                Some(spec) => selector.with_analytic(spec, 16_384),
                None => return Err(format!("unknown gpu {name} for --analytic")),
            },
        })
    }
}

/// Parses `--workers`, `--queue-cap`, `--max-batch`, `--max-delay-us`
/// and `--max-n`, each defaulting to [`ServiceConfig::default`].
pub fn service_config_of(args: &Args) -> Result<ServiceConfig, String> {
    let d = ServiceConfig::default();
    let config = ServiceConfig {
        workers: args.get("workers", d.workers)?,
        queue_cap: args.get("queue-cap", d.queue_cap)?,
        max_batch: args.get("max-batch", d.max_batch)?,
        max_delay: Duration::from_micros(args.get("max-delay-us", d.max_delay.as_micros() as u64)?),
        max_n: args.get("max-n", d.max_n)?,
        ..d
    };
    if config.workers == 0 || config.max_batch == 0 || config.queue_cap == 0 || config.max_n == 0 {
        return Err("--workers, --max-batch, --queue-cap and --max-n must be positive".into());
    }
    Ok(config)
}

/// The `serve --shard-child` argument list for `config` and `tiers`: the
/// inverse of [`service_config_of`] and [`EngineTiers::of`].
pub fn shard_child_args(config: &ServiceConfig, tiers: &EngineTiers) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "serve".into(),
        "--shard-child".into(),
        "--workers".into(),
        config.workers.to_string(),
        "--queue-cap".into(),
        config.queue_cap.to_string(),
        "--max-batch".into(),
        config.max_batch.to_string(),
        "--max-delay-us".into(),
        config.max_delay.as_micros().to_string(),
        "--max-n".into(),
        config.max_n.to_string(),
    ];
    if let Some(path) = &tiers.dispatch {
        args.extend(["--dispatch".into(), path.clone()]);
    }
    if let Some(gpu) = &tiers.analytic {
        args.extend(["--analytic".into(), gpu.clone()]);
    }
    args
}

enum Front {
    Single(Service),
    Routed(Router),
}

/// A running service or fleet: run the TCP server on it, inspect it,
/// shut it down.
pub struct Served {
    front: Front,
    procs: Option<Fleet>,
    engine: &'static str,
}

impl Served {
    /// Starts `shape` with `config` and `tiers`; `router` configures the
    /// router of a fleet and is ignored for [`Shape::Single`].
    pub fn build(
        shape: Shape,
        config: ServiceConfig,
        tiers: &EngineTiers,
        router: RouterConfig,
    ) -> Result<Served, String> {
        let selector = tiers.selector()?;
        let engine = match (selector.is_tuned(), selector.has_analytic()) {
            (true, true) => "tuned+analytic",
            (true, false) => "tuned",
            (false, true) => "analytic",
            (false, false) => "heuristic",
        };
        let (front, procs) = match shape {
            Shape::Single => (Front::Single(Service::start(config, selector)), None),
            Shape::InProcess(n) => {
                let backends: Vec<Arc<dyn ShardBackend>> = (0..n)
                    .map(|i| {
                        let service = Service::start(config.clone(), selector.clone());
                        Arc::new(InProcessShard::new(format!("shard-{i}"), service))
                            as Arc<dyn ShardBackend>
                    })
                    .collect();
                (Front::Routed(Router::start(backends, router)), None)
            }
            Shape::Procs(n) => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("resolving own executable for shard children: {e}"))?;
                let mut fleet_cfg = FleetConfig::new(exe, n);
                fleet_cfg.child_args = shard_child_args(&config, tiers);
                fleet_cfg.fault = config.fault;
                let fleet =
                    Fleet::spawn(fleet_cfg).map_err(|e| format!("spawning shard fleet: {e}"))?;
                let routed = Router::start(fleet.backends(), router);
                (Front::Routed(routed), Some(fleet))
            }
        };
        Ok(Served {
            front,
            procs,
            engine,
        })
    }

    /// Which selector tiers back the engine plans, for banners.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// Runs `server` on this service or fleet in a new thread, with `hook`
    /// injecting connection faults. The thread returns once the server
    /// has drained.
    pub fn spawn_server(
        &self,
        server: TcpServer,
        hook: FaultHook,
    ) -> JoinHandle<std::io::Result<()>> {
        match &self.front {
            Front::Single(service) => {
                let client = service.client();
                std::thread::spawn(move || server.run_with_faults(client, hook))
            }
            Front::Routed(router) => {
                let client = router.client();
                std::thread::spawn(move || server.run_with_faults(client, hook))
            }
        }
    }

    /// Live counters; a fleet's carry the per-shard breakdown.
    pub fn stats(&self) -> StatsSnapshot {
        match &self.front {
            Front::Single(service) => service.stats(),
            Front::Routed(router) => router.client().stats(),
        }
    }

    /// The router of a fleet.
    pub fn router(&self) -> Option<&Router> {
        match &self.front {
            Front::Single(_) => None,
            Front::Routed(router) => Some(router),
        }
    }

    /// The process supervisor of a [`Shape::Procs`] fleet.
    pub fn procs(&self) -> Option<&Fleet> {
        self.procs.as_ref()
    }

    /// Drains and stops everything. A process fleet stops respawning
    /// first, then every child drains and is reaped; its respawn count
    /// comes back with the final counters.
    pub fn shutdown(self) -> (StatsSnapshot, Option<u64>) {
        let mut procs = self.procs;
        if let Some(fleet) = &mut procs {
            fleet.stop_supervisor();
        }
        let snap = match self.front {
            Front::Single(service) => service.shutdown(),
            Front::Routed(router) => router.shutdown(),
        };
        (snap, procs.as_ref().map(Fleet::respawns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_child_args_parse_back_to_the_same_config() {
        let config = ServiceConfig {
            workers: 3,
            queue_cap: 512,
            max_batch: 96,
            max_delay: Duration::from_micros(750),
            max_n: 40,
            ..ServiceConfig::default()
        };
        let tiers = EngineTiers {
            dispatch: Some("tables/d.jsonl".into()),
            analytic: Some("v100".into()),
        };
        let rendered = Args::parse(shard_child_args(&config, &tiers)).unwrap();
        assert_eq!(rendered.command.as_deref(), Some("serve"));
        assert!(rendered.flag("shard-child"));
        let parsed = service_config_of(&rendered).unwrap();
        assert_eq!(format!("{parsed:?}"), format!("{config:?}"));
        assert_eq!(EngineTiers::of(&rendered), tiers);
        // The defaults render and parse back too, with no tier options.
        let rendered = Args::parse(shard_child_args(
            &ServiceConfig::default(),
            &EngineTiers::default(),
        ))
        .unwrap();
        let parsed = service_config_of(&rendered).unwrap();
        assert_eq!(
            format!("{parsed:?}"),
            format!("{:?}", ServiceConfig::default())
        );
        assert_eq!(EngineTiers::of(&rendered), EngineTiers::default());
    }

    #[test]
    fn service_options_must_be_positive() {
        let args = Args::parse(["serve", "--workers", "0"].map(String::from)).unwrap();
        assert!(service_config_of(&args).is_err());
    }
}
