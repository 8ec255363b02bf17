//! The end-to-end run (`--trace 0`): set-up, warm-up, a timed closed
//! loop, then the check of every reply against the reference scanner.

use crate::inputs::{
    batch_body, hot_pool, stream_hash, ColdStore, ColdStream, Item, BATCH_SIZE, HOT_POOL,
};
use crate::serving::{
    cache_hits, closed_loop, confine_others, fold_bits, mismatches, shoot, touched_log,
    Deployment, Request, Shot, WorkDir,
};
use crate::stats::{median, peak_rss_mb, reset_peak_rss, Metrics, Summary};
use crate::{score_bits, threads, Report, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scamdetect::{ScanRequest, Scanner};
use scamdetect_serve::client::HttpClient;
use std::time::Instant;

/// Deployments started per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Untimed closed-loop warm-up of hot workloads before the timed window.
const WARM_SECONDS: f64 = 0.5;
/// Timed-window slices: `contracts_per_s` is the median slice rate, so
/// a stall in a few slices does not move it.
const SLICES: usize = 30;
/// Upper bound on requests per second the request logs can hold.
const MAX_RATE: f64 = 40_000.0;
/// Cold contracts (or batches) that warm the measured deployment; their
/// rate sizes the cold stream.
const CALIBRATION_ITEMS: usize = HOT_POOL;
const CALIBRATION_BATCHES: usize = 40;
/// Cold inputs generated for the timed window, as a multiple of the
/// calibrated rate times its length; the window pauses to make more
/// should they run out.
const COLD_MARGIN: f64 = 1.15;
/// Cold contracts generated and stored at a time.
const CHUNK: usize = 1024;
/// A closed loop that runs until its input is used up.
const UNTIL_DRY: f64 = 600.0;

/// What a workload sends.
enum Source {
    /// A warmed pool replayed in a seeded order.
    Hot {
        items: Vec<Item>,
        bodies: Vec<String>,
        order: Vec<usize>,
    },
    /// Contracts never seen before, in stream order.
    Cold(ColdStore),
    /// `/batch` requests of never-seen contracts plus in-batch twins,
    /// `BATCH_SIZE` consecutive stored contracts each.
    Batches(ColdStore),
}

impl Source {
    fn path(&self) -> &'static str {
        match self {
            Source::Batches(_) => "/batch",
            _ => "/scan",
        }
    }

    fn len(&self) -> usize {
        match self {
            Source::Hot { items, .. } => items.len(),
            Source::Cold(store) => store.len(),
            Source::Batches(store) => store.len() / BATCH_SIZE,
        }
    }

    fn batch(store: &ColdStore, index: usize) -> Vec<Item> {
        (index * BATCH_SIZE..(index + 1) * BATCH_SIZE)
            .map(|i| store.get(i))
            .collect()
    }

    /// Request `index` of the stream.
    fn request(&self, index: usize) -> Request {
        match self {
            Source::Hot { bodies, .. } => (index as u64, bodies[index].clone(), 1),
            Source::Cold(store) => (index as u64, store.get(index).body(), 1),
            Source::Batches(store) => (
                index as u64,
                batch_body(&Source::batch(store, index)),
                BATCH_SIZE as u32,
            ),
        }
    }

    /// The hash of the stream's first `HOT_POOL` contracts, as requests:
    /// the pool, the first cold contracts, or the first batches. The
    /// traced run hashes the same requests.
    fn hash(&self) -> u64 {
        let requests = match self {
            Source::Batches(_) => HOT_POOL / BATCH_SIZE,
            _ => HOT_POOL,
        };
        stream_hash((0..requests).map(|i| self.request(i).1))
    }

    /// The reference scanner's score bits for each request in
    /// `indices`, `None` elsewhere. Hot contracts are scored in pool
    /// order, the order the warm-up sent them in, so skeleton twins share
    /// the verdict of the same first sighting; cold requests share no
    /// skeleton across requests and are scored on `threads()` threads.
    fn expected(&self, reference: &Scanner, indices: &[usize]) -> Vec<Option<u64>> {
        let scan = |item: &Item| score_bits(&reference.scan_request(&item.request()));
        let one = |i: usize| match self {
            Source::Hot { items, .. } => scan(&items[i]),
            Source::Cold(store) => scan(&store.get(i)),
            Source::Batches(store) => {
                let batch = Source::batch(store, i);
                let requests: Vec<ScanRequest> = batch.iter().map(Item::request).collect();
                fold_bits(reference.scan_batch(&requests).iter().map(score_bits))
            }
        };
        let mut expected = vec![None; self.len()];
        if let Source::Hot { .. } = self {
            for (i, slot) in expected.iter_mut().enumerate() {
                *slot = Some(one(i));
            }
            return expected;
        }
        let per_thread = indices.len().div_ceil(threads()).max(1);
        std::thread::scope(|scope| {
            let parts: Vec<_> = indices
                .chunks(per_thread)
                .map(|chunk| {
                    scope.spawn(move || chunk.iter().map(|&i| (i, one(i))).collect::<Vec<_>>())
                })
                .collect();
            for part in parts {
                for (i, bits) in part.join().expect("verifier thread panicked") {
                    expected[i] = Some(bits);
                }
            }
        });
        expected
    }
}

/// The request generator over `source`: hot workloads walk the seeded
/// order round and round; cold ones send `start..end` once.
fn schedule(
    source: &Source,
    start: usize,
    end: usize,
) -> impl FnMut() -> Option<Request> + Send + '_ {
    let mut step = 0;
    move || {
        let at = step;
        step += 1;
        match source {
            Source::Hot { order, .. } => Some(source.request(order[at % order.len()])),
            _ => (start + at < end).then(|| source.request(start + at)),
        }
    }
}

fn seeded_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bde);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// The number of failed shots: every reply is compared with the
/// reference bits of its request.
fn failures(source: &Source, reference: &Scanner, shots: &[Shot]) -> u64 {
    let mut indices: Vec<usize> = shots.iter().map(|s| s.index as usize).collect();
    indices.sort_unstable();
    indices.dedup();
    let expected = source.expected(reference, &indices);
    mismatches(shots, |i| expected[i])
}

/// Contracts per second: the median rate over `SLICES` equal slices of
/// the timed window.
fn slice_rate(shots: &[Shot], seconds: f64) -> f64 {
    let mut counts = [0u32; SLICES];
    for shot in shots {
        let slice = (shot.done_ns as f64 * 1e-9 / seconds * SLICES as f64) as usize;
        counts[slice.min(SLICES - 1)] += shot.contracts;
    }
    median(
        counts
            .map(|n| f64::from(n) * SLICES as f64 / seconds)
            .to_vec(),
    )
}

/// Stores `n` more cold contracts (or `n` more batches), a chunk at a
/// time so generation never holds many in memory, and syncs the store.
fn grow(source: &mut Source, stream: &mut ColdStream, n: usize) -> Result<(), String> {
    match source {
        Source::Cold(store) => {
            for start in (0..n).step_by(CHUNK) {
                store.append(&stream.take(CHUNK.min(n - start), threads()))?;
            }
            store.sync()
        }
        Source::Batches(store) => {
            let per_chunk = CHUNK / BATCH_SIZE;
            for start in (0..n).step_by(per_chunk) {
                store.append(&stream.take_batches(per_chunk.min(n - start), threads()))?;
            }
            store.sync()
        }
        Source::Hot { .. } => Ok(()),
    }
}

/// The rate a calibration loop reached over its second half, once the
/// daemon was warm.
fn rate(log: &[Shot]) -> f64 {
    let done: Vec<u64> = log.iter().map(|s| s.done_ns).collect();
    let half = &done[done.len() / 2..];
    (half.len() - 1) as f64 * 1e9 / (half[half.len() - 1] - half[0]).max(1) as f64
}

/// Sends every hot contract once, in pool order, so the deployment's
/// caches are warm. Behind the router each contract also goes straight to
/// a replica, whose bits must agree: `direct` counts (checked, differing).
fn warm_pool(
    deployment: &Deployment,
    source: &Source,
    checks: &mut Vec<Shot>,
    direct: &mut (u64, u64),
) -> Result<(), String> {
    let connect = |addr| HttpClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut via_front = connect(deployment.front())?;
    let mut replica = match deployment.router {
        Some(_) => Some(connect(deployment.replicas[0].addr)?),
        None => None,
    };
    let t0 = Instant::now();
    for i in 0..source.len() {
        let request = source.request(i);
        let shot = shoot(&mut via_front, "/scan", &request, t0);
        if let Some(replica) = &mut replica {
            let again = shoot(replica, "/scan", &request, t0);
            direct.0 += 1;
            if again.outcome.bits().is_none() || again.outcome.bits() != shot.outcome.bits() {
                direct.1 += 1;
            }
        }
        checks.push(shot);
    }
    Ok(())
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let routed = workload == Workload::RoutedHot;
    let work = WorkDir::create()?;
    let reference = crate::reference()?;
    let mut stream = ColdStream::new(seed);
    let mut source = match workload {
        Workload::ScanHot | Workload::RoutedHot => {
            let items = hot_pool(seed);
            Source::Hot {
                bodies: items.iter().map(Item::body).collect(),
                items,
                order: seeded_order(seed, HOT_POOL),
            }
        }
        Workload::ScanCold => Source::Cold(ColdStore::create(&work.0.join("cold.bin"))?),
        Workload::BatchCold => Source::Batches(ColdStore::create(&work.0.join("cold.bin"))?),
    };
    let warm_len = match workload {
        Workload::ScanCold => CALIBRATION_ITEMS,
        Workload::BatchCold => CALIBRATION_BATCHES,
        _ => 0,
    };
    grow(&mut source, &mut stream, warm_len)?;

    // Set-up, repeated; the last deployment is the one measured.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let (deployment, setup) = Deployment::start(&work, routed)?;
        setups.push(setup);
        deployment.stop();
    }
    let (deployment, setup) = Deployment::start(&work, routed)?;
    setups.push(setup);
    // The deployment's threads join the client on the first CPU: a
    // request chain spread over vCPUs waits for idle ones to wake, at a
    // cost that follows the shared host's load.
    confine_others();
    let front = deployment.front();
    let path = source.path();

    // Warm-up: hot workloads send the pool once, then loop briefly; cold
    // ones send the calibration inputs, whose rate sizes the cold stream.
    let mut checks: Vec<Shot> = Vec::with_capacity(HOT_POOL);
    let mut direct = (0u64, 0u64);
    if let Source::Hot { .. } = &source {
        warm_pool(&deployment, &source, &mut checks, &mut direct)?;
    }
    let (warm_seconds, warm_end) = if warm_len > 0 {
        (UNTIL_DRY, warm_len)
    } else {
        (WARM_SECONDS, 0)
    };
    let mut warm_log = touched_log(warm_len.max((MAX_RATE * WARM_SECONDS) as usize));
    let mut warm = schedule(&source, 0, warm_end);
    closed_loop(front, path, warm_seconds, 0, &mut warm_log, &mut warm)?;
    drop(warm);
    let calibrated_rate = if warm_len > 0 { rate(&warm_log) } else { 0.0 };
    let more = calibrated_rate * seconds * COLD_MARGIN;
    grow(&mut source, &mut stream, more.ceil() as usize)?;
    let inputs_hash = source.hash();

    // The timed window. Should the cold stream run dry (the machine
    // sped up after calibration), the clock stops while more is made.
    let mut timed = touched_log((MAX_RATE * seconds) as usize);
    reset_peak_rss();
    let mut elapsed = 0.0;
    while elapsed < seconds {
        let mut next = schedule(&source, warm_len + timed.len(), source.len());
        let offset_ns = (elapsed * 1e9) as u64;
        let (active, dry) =
            closed_loop(front, path, seconds - elapsed, offset_ns, &mut timed, &mut next)?;
        drop(next);
        elapsed += active;
        if dry {
            let sent = timed.len();
            eprintln!("perfbench: the cold stream ran dry; making more");
            let more = sent as f64 / elapsed * (seconds - elapsed).max(1.0) * COLD_MARGIN;
            grow(&mut source, &mut stream, more.ceil() as usize + 1)?;
        }
    }
    let peak_mb = peak_rss_mb();
    let (shed, errors) = deployment.shed_and_errors()?;
    deployment.stop();

    let checked: Vec<Shot> = warm_log
        .into_iter()
        .chain(checks)
        .chain(timed.iter().copied())
        .collect();
    let attempted = checked.len() as u64 + direct.0;
    let failed = failures(&source, &reference, &checked) + direct.1;

    let (hits, hit_ratio) = cache_hits(&timed);
    let latency = Summary::of(timed.iter().map(|s| s.latency_ns as f64 / 1e3).collect());
    let contracts_per_s = slice_rate(&timed, elapsed);
    let mut guards = Vec::new();
    match workload {
        Workload::ScanHot | Workload::RoutedHot if hit_ratio < 0.99 => guards.push(format!(
            "cache hit ratio {hit_ratio} < 0.99 on a hot workload"
        )),
        Workload::ScanCold | Workload::BatchCold if hits > 0 => guards.push(format!(
            "{hits} cache hits on a cold workload: a skeleton was seen earlier in the run"
        )),
        _ => {}
    }
    if shed > 0 {
        guards.push(format!("{shed} requests shed"));
    }

    let mut metrics = Metrics::new();
    metrics.insert("contracts_per_s".into(), (contracts_per_s, "1/s"));
    metrics.insert("latency_p50_us".into(), (latency.p50, "us"));
    metrics.insert("latency_p90_us".into(), (latency.p90, "us"));
    metrics.insert("setup_s".into(), (median(setups), "s"));
    metrics.insert("peak_rss_mb".into(), (peak_mb, "MB"));
    let info = format!(
        "\"samples\": {}, \"latency_p99_us\": {}, \"failed_share\": {}, \
         \"cache_hit_ratio\": {hit_ratio}, \"shed_total\": {shed}, \"errors_total\": {errors}, \
         \"inputs_hash\": \"{inputs_hash:016x}\", \"seconds\": {elapsed:.3}",
        latency.count,
        latency.p99.map_or("null".to_string(), |p99| format!("{p99:.1}")),
        failed as f64 / attempted.max(1) as f64,
    );
    Ok(Report {
        metrics,
        attempted,
        failed,
        guards,
        info,
    })
}
