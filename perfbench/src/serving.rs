//! The system under test over the wire: one daemon, or two replicas
//! behind the router, started with their shipped defaults; and the
//! closed-loop load generator that drives them.

use scamdetect_fleet::client::parse_metric;
use scamdetect_fleet::proxy::{spawn_router, RouterConfig, RunningRouter};
use scamdetect_serve::client::{http_call, HttpClient};
use scamdetect_serve::daemon::{spawn, RunningDaemon, ServeConfig};
use scamdetect_serve::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The committed golden artifact every deployment serves.
pub const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/fixtures/golden-logreg-unified-v1.scam"
);

/// Worker threads per replica behind the router: each idle pooled
/// router connection parks one replica worker, so the health probes
/// need spare ones.
const REPLICA_WORKERS: usize = 4;

/// How long a deployment may take to answer `/healthz`.
const HEALTH_DEADLINE: Duration = Duration::from_secs(20);

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-work")
            .join(std::process::id().to_string());
        let artifact = std::fs::read(ARTIFACT).map_err(|e| format!("reading {ARTIFACT}: {e}"))?;
        for replica in ["a", "b"] {
            let models = path.join(replica);
            std::fs::create_dir_all(&models).map_err(|e| format!("{}: {e}", models.display()))?;
            std::fs::write(models.join("golden-v1.scam"), &artifact)
                .map_err(|e| format!("staging the artifact: {e}"))?;
        }
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run uses the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A running deployment.
pub struct Deployment {
    pub replicas: Vec<RunningDaemon>,
    pub router: Option<RunningRouter>,
}

impl Deployment {
    /// Starts one daemon (`routed == false`) or two replicas and the
    /// router, and waits until every server answers `/healthz` and the
    /// router sees both replicas up. Returns the deployment and the
    /// seconds that took, from the artifact load on.
    pub fn start(work: &WorkDir, routed: bool) -> Result<(Deployment, f64), String> {
        let started = Instant::now();
        let dirs: &[&str] = if routed { &["a", "b"] } else { &["a"] };
        let mut replicas = Vec::new();
        for dir in dirs {
            let mut config = ServeConfig::default();
            config.http.addr = "127.0.0.1:0".to_string();
            config.registry.models_dir = work.0.join(dir);
            if routed {
                config.http.workers = REPLICA_WORKERS;
            }
            replicas.push(spawn(config).map_err(|e| format!("daemon: {e}"))?);
        }
        let router = if routed {
            Some(
                spawn_router(RouterConfig {
                    replicas: replicas.iter().map(|r| r.addr).collect(),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("router: {e}"))?,
            )
        } else {
            None
        };
        let deployment = Deployment { replicas, router };
        for replica in &deployment.replicas {
            wait_healthy(replica.addr, |_| true)?;
        }
        if let Some(router) = &deployment.router {
            let want = deployment.replicas.len() as f64;
            wait_healthy(router.addr, |health| {
                health.get("replicas_up").and_then(Json::as_f64) == Some(want)
            })?;
        }
        Ok((deployment, started.elapsed().as_secs_f64()))
    }

    /// Where clients send their requests.
    pub fn front(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.replicas[0].addr, |router| router.addr)
    }

    /// Load-shed and error totals from the replicas' `/metrics`, plus
    /// the router's failed forwards. Call with no client connected.
    pub fn shed_and_errors(&self) -> Result<(u64, u64), String> {
        let (mut shed, mut errors) = (0u64, 0u64);
        for replica in &self.replicas {
            let reply = http_call(replica.addr, "GET", "/metrics", None)
                .map_err(|e| format!("GET /metrics: {e}"))?;
            let metric = |name| parse_metric(&reply.body, name).map(|v| v as u64);
            shed += metric("scamdetect_requests_shed_total").ok_or("no shed counter")?;
            errors += metric("scamdetect_errors_total").ok_or("no error counter")?;
        }
        if let Some(router) = &self.router {
            let m = &router.metrics;
            errors += [&m.forward_failures, &m.unavailable, &m.deadline_exhausted]
                .iter()
                .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                .sum::<u64>();
        }
        Ok((shed, errors))
    }

    /// Stops every server and joins its threads.
    pub fn stop(self) {
        if let Some(router) = self.router {
            let _ = router.stop();
        }
        for replica in self.replicas {
            let _ = replica.stop();
        }
    }
}

fn wait_healthy(addr: SocketAddr, ready: impl Fn(&Json) -> bool) -> Result<(), String> {
    let deadline = Instant::now() + HEALTH_DEADLINE;
    loop {
        if let Ok(reply) = http_call(addr, "GET", "/healthz", None) {
            if reply.status == 200 && Json::parse(&reply.body).is_ok_and(|h| ready(&h)) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What one reply said.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Outcome {
    /// 200 with verdicts: the score bits (FNV-1a over the slots' bits
    /// for a batch) and how many slots were cross-request cache hits.
    Scored { bits: u64, hits: u32 },
    /// Any other status.
    Status(u16),
    /// The connection failed.
    #[default]
    Transport,
    /// A 200 whose body is not the documented schema.
    BadReply,
}

impl Outcome {
    /// The score bits, if the reply was a verdict.
    pub fn bits(self) -> Option<u64> {
        match self {
            Outcome::Scored { bits, .. } => Some(bits),
            _ => None,
        }
    }
}

/// The shots whose reply is not a verdict with the score bits
/// `expected` gives for their request index.
pub fn mismatches(shots: &[Shot], expected: impl Fn(usize) -> Option<u64>) -> u64 {
    shots
        .iter()
        .filter(|s| s.outcome.bits().is_none() || s.outcome.bits() != expected(s.index as usize))
        .count() as u64
}

/// Cross-request verdict-cache hits among the contracts of `shots`, and
/// their share.
pub fn cache_hits(shots: &[Shot]) -> (u64, f64) {
    let hits: u64 = shots
        .iter()
        .map(|s| match s.outcome {
            Outcome::Scored { hits, .. } => u64::from(hits),
            _ => 0,
        })
        .sum();
    let contracts: u64 = shots.iter().map(|s| u64::from(s.contracts)).sum();
    (hits, hits as f64 / contracts.max(1) as f64)
}

/// One request of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shot {
    /// Stream index of the request.
    pub index: u64,
    /// Contracts the request carried.
    pub contracts: u32,
    /// Completion time, ns since the run's start.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub outcome: Outcome,
}

/// Score bits of one scan report object.
fn report_bits(report: &Json) -> Option<(u64, bool)> {
    let score = report.get("score")?.as_f64()?;
    Some((score.to_bits(), report.get("cache")?.as_str()? == "hit"))
}

/// FNV-1a over a batch's score bits, in slot order.
pub fn fold_bits(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter()
        .fold(scamdetect_evm::proxy::fnv1a(b""), |h, b| {
            scamdetect_evm::proxy::fnv1a_extend(h, &b.to_le_bytes())
        })
}

/// What a reply with `status` and `body` said.
pub fn outcome_of(status: u16, body: &str, batch: bool) -> Outcome {
    if status != 200 {
        return Outcome::Status(status);
    }
    let Ok(json) = Json::parse(body) else {
        return Outcome::BadReply;
    };
    let parsed = if batch {
        json.get("results")
            .and_then(Json::as_array)
            .and_then(|slots| slots.iter().map(report_bits).collect::<Option<Vec<_>>>())
            .map(|slots| Outcome::Scored {
                bits: fold_bits(slots.iter().map(|s| s.0)),
                hits: slots.iter().filter(|s| s.1).count() as u32,
            })
    } else {
        report_bits(&json).map(|(bits, hit)| Outcome::Scored {
            bits,
            hits: u32::from(hit),
        })
    };
    parsed.unwrap_or(Outcome::BadReply)
}

/// One request to send: stream index, body, contracts carried.
pub type Request = (u64, String, u32);

/// Sends one request over `client` and times it.
pub fn shoot(client: &mut HttpClient, path: &str, request: &Request, t0: Instant) -> Shot {
    let (index, body, contracts) = request;
    let sent = Instant::now();
    let reply = client.request("POST", path, Some(body));
    let done = Instant::now();
    let outcome = match reply {
        Ok(reply) => outcome_of(reply.status, &reply.body, path == "/batch"),
        Err(_) => Outcome::Transport,
    };
    Shot {
        index: *index,
        contracts: *contracts,
        done_ns: (done - t0).as_nanos() as u64,
        latency_ns: (done - sent).as_nanos() as u64,
        outcome,
    }
}

/// A closed loop: one client sends the request `next` gives it, waits
/// for the reply, and repeats until `seconds` pass or `next` runs dry.
/// The client runs on the first allowed CPU, beside the confined
/// deployment, and records into `log`, whose capacity was set (and its
/// memory touched) before the run. Completion times count from the
/// loop's start plus `offset_ns`. Returns the measured seconds and
/// whether the input ran dry.
pub fn closed_loop(
    addr: SocketAddr,
    path: &str,
    seconds: f64,
    offset_ns: u64,
    log: &mut Vec<Shot>,
    next: &mut (dyn FnMut() -> Option<Request> + Send),
) -> Result<(f64, bool), String> {
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                pin_to_first_cpu();
                let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let t0 = Instant::now();
                let deadline = t0 + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline {
                    let Some(request) = next() else {
                        return Ok((t0.elapsed().as_secs_f64(), true));
                    };
                    if log.len() == log.capacity() {
                        return Err("request log full".to_string());
                    }
                    let mut shot = shoot(&mut client, path, &request, t0);
                    shot.done_ns += offset_ns;
                    log.push(shot);
                }
                Ok((t0.elapsed().as_secs_f64(), false))
            })
            .join()
            .expect("client thread panicked")
    })
}

/// An empty log with room for `capacity` shots, its memory already
/// touched so that filling it does not count as the program's memory.
pub fn touched_log(capacity: usize) -> Vec<Shot> {
    let mut log = vec![Shot::default(); capacity];
    log.clear();
    log
}

extern "C" {
    fn gettid() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, as the first call found them: call
/// it before any pin narrows them.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: pid 0 names the calling thread, and `mask` is a live
        // buffer whose size in bytes is passed alongside it.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..mask.len() * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if ok < 0 || cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

fn set_affinity(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer whose size in bytes is passed
    // alongside it. A failure (the thread has ended) is ignored.
    let _ = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Pins the calling thread to the first allowed CPU. Threads it spawns
/// afterwards inherit the pin.
pub fn pin_to_first_cpu() {
    set_affinity(0, &allowed_cpus()[..1]);
}

/// Lets the calling thread run on every allowed CPU again.
pub fn unpin() {
    set_affinity(0, allowed_cpus());
}

/// Pins every thread of the process but the caller to the first allowed
/// CPU: the running deployment, and every thread it spawns later. Start
/// the deployment unpinned, so that it sizes its pools for the machine.
pub fn confine_others() {
    // SAFETY: gettid has no preconditions.
    let me = unsafe { gettid() };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse().ok()) {
        if tid != me {
            set_affinity(tid, &allowed_cpus()[..1]);
        }
    }
}
