//! The traced run (`--trace 1`): single-threaded and in-process, it
//! times the benchmark's own calls into each layer's public functions
//! over the workload's inputs, plus single-client passes over the real
//! daemon and router for the time no in-process layer accounts for.
//! Nothing inside the program is instrumented.

use crate::inputs::{batch_body, hot_pool, stream_hash, ColdStream, Item, BATCH_SIZE};
use crate::serving::{
    cache_hits, confine_others, fold_bits, mismatches, outcome_of, pin_to_first_cpu, shoot, unpin,
    Deployment, Request, Shot, WorkDir,
};
use crate::stats::{median, Metrics, Summary};
use crate::{score_bits, threads, Report, Workload};
use scamdetect::featurize::{lift_bytes, opcode_histogram_bytes, Lifted};
use scamdetect::scan::request_fingerprint;
use scamdetect::{ScanRequest, Scanner};
use scamdetect_evm::cfg::{build_cfg_with, CfgOptions, UnknownJumpPolicy};
use scamdetect_evm::disasm::disassemble;
use scamdetect_ir::Platform;
use scamdetect_serve::client::HttpClient;
use scamdetect_serve::daemon::router;
use scamdetect_serve::http::{HttpConfig, HttpRequest, LoadGauge, TraceHub};
use scamdetect_serve::json::Json;
use scamdetect_serve::metrics::Metrics as DaemonMetrics;
use scamdetect_serve::registry::{ModelRegistry, RegistryConfig};
use scamdetect_serve::wire::{parse_scan_request, render_report};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Contracts each traced run times its layers over.
const LAYER_ITEMS: usize = 1024;
/// Fresh deployments the single-client pass over cold inputs repeats on.
const COLD_PASSES: usize = 4;
/// Requests per side of the direct-versus-routed comparison, sent in
/// alternating rounds so drift hits both sides alike.
const ROUTER_REQUESTS: usize = 4096;
const ROUTER_ROUNDS: usize = 8;

/// Per-call samples (µs) by layer metric name.
#[derive(Default)]
struct Timings(BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.0.entry(name).or_default().push(us);
        out
    }

    fn record(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    /// Median per call of `name`.
    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v.clone()))
    }
}

/// The workload's inputs, grouped into the requests it sends.
struct Inputs {
    items: Vec<Item>,
    /// Item indices of each request: one each for `/scan`, a batch each
    /// for `/batch`.
    requests: Vec<Vec<usize>>,
    path: &'static str,
    /// Whether the workload's requests hit the verdict cache.
    hot: bool,
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Inputs {
        let mut stream = ColdStream::new(seed);
        let (items, path, hot) = match workload {
            Workload::ScanHot | Workload::RoutedHot => (hot_pool(seed), "/scan", true),
            Workload::ScanCold => (stream.take(LAYER_ITEMS, threads()), "/scan", false),
            Workload::BatchCold => (
                stream.take_batches(LAYER_ITEMS / BATCH_SIZE, threads()),
                "/batch",
                false,
            ),
        };
        let per_request = if path == "/batch" { BATCH_SIZE } else { 1 };
        let requests = (0..items.len())
            .collect::<Vec<_>>()
            .chunks(per_request)
            .map(<[usize]>::to_vec)
            .collect();
        Inputs {
            items,
            requests,
            path,
            hot,
        }
    }

    fn body(&self, request: &[usize]) -> String {
        if self.path == "/batch" {
            let items: Vec<Item> = request.iter().map(|&i| self.items[i].clone()).collect();
            batch_body(&items)
        } else {
            self.items[request[0]].body()
        }
    }

    fn wire_requests(&self) -> Vec<Request> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, self.body(r), r.len() as u32))
            .collect()
    }
}

/// The reference bits of every item, scanned in item order (so skeleton
/// twins take their first sighting's verdict, as the daemon does), and
/// of every request. An item's own bits are known only for the first
/// sighting of its skeleton; later twins are `None`.
fn reference_bits(inputs: &Inputs, reference: &Scanner) -> (Vec<Option<u64>>, Vec<u64>) {
    let mut seen = HashSet::new();
    let items: Vec<(bool, u64)> = inputs
        .items
        .iter()
        .map(|item| {
            let bits = score_bits(&reference.scan_request(&item.request()));
            (seen.insert(item.key()), bits)
        })
        .collect();
    let requests = inputs
        .requests
        .iter()
        .map(|r| {
            if inputs.path == "/batch" {
                fold_bits(r.iter().map(|&i| items[i].1))
            } else {
                items[r[0]].1
            }
        })
        .collect();
    let own = items
        .iter()
        .map(|&(first, bits)| first.then_some(bits))
        .collect();
    (own, requests)
}

/// Sends `requests` in order over one connection.
fn pass(addr: std::net::SocketAddr, path: &str, requests: &[Request]) -> Result<Vec<Shot>, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now();
    Ok(requests
        .iter()
        .map(|r| shoot(&mut client, path, r, t0))
        .collect())
}

fn latencies(shots: &[Shot]) -> Summary {
    Summary::of(shots.iter().map(|s| s.latency_ns as f64 / 1e3).collect())
}

/// Times every layer over every input once. Returns the failures (a
/// score that differs from the reference).
fn layer_pass(
    t: &mut Timings,
    inputs: &Inputs,
    scanner: &Scanner,
    registry: &ModelRegistry,
    expected_items: &[Option<u64>],
) -> u64 {
    let batch = inputs.path == "/batch";
    for request in &inputs.requests {
        let body = inputs.body(request);
        let json = t
            .time("serve.json_parse_us", || Json::parse(&body))
            .expect("the benchmark sends valid JSON");
        let slots: Vec<&Json> = if batch {
            json.get("requests")
                .and_then(Json::as_array)
                .expect("a batch body has a requests array")
                .iter()
                .collect()
        } else {
            vec![&json]
        };
        for slot in slots {
            t.time("serve.wire_decode_us", || parse_scan_request(slot))
                .expect("the benchmark sends valid scan requests");
        }
    }

    let options = CfgOptions {
        unknown_jump_policy: UnknownJumpPolicy::VirtualNode,
        ..CfgOptions::default()
    };
    let model = registry.model();
    let detector = scanner.detector();
    let mut failures = 0;
    for (item, expected) in inputs.items.iter().zip(expected_items) {
        let (platform, bytes) = (item.platform, item.bytes.as_slice());
        t.time("core.fingerprint_us", || {
            request_fingerprint(platform, bytes)
        });
        match platform {
            Platform::Evm => {
                t.time("evm.disasm_us", || disassemble(bytes));
                t.time("evm.cfg_us", || build_cfg_with(bytes, &options));
            }
            Platform::Wasm => {
                let module = t
                    .time("wasm.decode_us", || {
                        scamdetect_wasm::decode::decode_module(bytes)
                    })
                    .expect("generated modules decode");
                t.time("wasm.validate_us", || {
                    scamdetect_wasm::validate::validate(&module)
                })
                .expect("generated modules validate");
                t.time("wasm.cfg_us", || scamdetect_wasm::cfg::lift_module(&module));
            }
        }
        let lift = match platform {
            Platform::Evm => "ir.lift_evm_us",
            Platform::Wasm => "ir.lift_wasm_us",
        };
        let cfg = t
            .time(lift, || lift_bytes(platform, bytes))
            .expect("generated contracts lift");
        t.time("ir.features_us", || {
            scamdetect_ir::features::graph_feature_vector(&cfg)
        });
        t.time("core.opcode_histogram_us", || {
            opcode_histogram_bytes(platform, bytes)
        });
        let lifted = Lifted::from_bytes(platform, bytes).expect("generated contracts lift");
        let input = t.time("core.prepare_us", || detector.prepare_lifted(&lifted));
        let score = t.time("core.score_us", || detector.score_prepared(&input));
        if expected.is_some() && score.map(f64::to_bits) != *expected {
            failures += 1;
        }
        scanner.clear_cache();
        let request = item.request();
        t.time("core.scan_miss_us", || scanner.scan_request(&request))
            .expect("generated contracts scan");
        let report = t
            .time("core.scan_hit_us", || scanner.scan_request(&request))
            .expect("generated contracts scan");
        if expected.is_some_and(|bits| bits != report.verdict.malicious_probability.to_bits()) {
            failures += 1;
        }
        t.time("serve.wire_render_us", || {
            render_report(&report, &model).render()
        });
    }

    let groups: Vec<Vec<usize>> = if batch {
        inputs.requests.clone()
    } else {
        (0..inputs.items.len())
            .collect::<Vec<_>>()
            .chunks(BATCH_SIZE)
            .map(<[usize]>::to_vec)
            .collect()
    };
    for group in &groups {
        let requests: Vec<ScanRequest> = group.iter().map(|&i| inputs.items[i].request()).collect();
        let n = requests.len() as f64;
        scanner.clear_cache();
        let started = Instant::now();
        black_box(scanner.scan_batch(&requests));
        t.record(
            "core.scan_batch_per_contract_us",
            started.elapsed().as_secs_f64() * 1e6 / n,
        );
        scanner.clear_cache();
        let started = Instant::now();
        for request in &requests {
            let _ = black_box(scanner.scan_request(request));
        }
        t.record(
            "core.serial_per_contract_us",
            started.elapsed().as_secs_f64() * 1e6 / n,
        );
    }
    failures
}

/// Times the daemon's route handler, called in-process on a built
/// request. Cold workloads start every pass with empty caches.
fn handler_pass(
    t: &mut Timings,
    inputs: &Inputs,
    handler: &scamdetect_serve::http::Handler,
    registry: &ModelRegistry,
    expected: &[u64],
) -> u64 {
    if !inputs.hot {
        registry.model().scanner.clear_cache();
    }
    let mut failures = 0;
    for (request, &want) in inputs.requests.iter().zip(expected) {
        let http = HttpRequest {
            method: "POST".to_string(),
            path: inputs.path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: inputs.body(request).into_bytes(),
            trace: None,
        };
        let response = t.time("serve.handler_us", || handler(&http));
        let body = String::from_utf8_lossy(&response.body);
        let outcome = outcome_of(response.status, &body, inputs.path == "/batch");
        if outcome.bits() != Some(want) {
            failures += 1;
        }
    }
    failures
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let work = WorkDir::create()?;
    let reference = crate::reference()?;
    let scanner = crate::reference()?;
    let inputs = Inputs::new(workload, seed);
    let (expected_items, expected) = reference_bits(&inputs, &reference);
    let inputs_hash = stream_hash(inputs.requests.iter().map(|r| inputs.body(r)));
    let mut attempted = 0u64;
    let mut failures = 0u64;
    let mut metrics = Metrics::new();

    // Counts over the inputs: these repeat exactly for a seed.
    let options = CfgOptions {
        unknown_jump_policy: UnknownJumpPolicy::VirtualNode,
        ..CfgOptions::default()
    };
    let (mut blocks, mut edges, mut unresolved) = (0usize, 0usize, 0usize);
    for item in inputs.items.iter().filter(|i| i.platform == Platform::Evm) {
        let cfg = build_cfg_with(&item.bytes, &options);
        blocks += cfg.block_count();
        edges += cfg.graph().edge_count();
        unresolved += cfg.unresolved_jump_count();
    }
    let unique: usize = inputs
        .requests
        .iter()
        .map(|r| {
            r.iter()
                .map(|&i| inputs.items[i].key())
                .collect::<HashSet<_>>()
                .len()
        })
        .sum();
    metrics.insert("evm.cfg_blocks".into(), (blocks as f64, "count"));
    metrics.insert("evm.cfg_edges".into(), (edges as f64, "count"));
    metrics.insert("evm.cfg_unresolved".into(), (unresolved as f64, "count"));
    metrics.insert(
        "core.batch_unique_ratio".into(),
        (unique as f64 / inputs.items.len() as f64, "ratio"),
    );

    // In-process layers, pass after pass until the time is spent.
    let registry = Arc::new(
        ModelRegistry::open(RegistryConfig {
            models_dir: work.0.join("a"),
            ..RegistryConfig::default()
        })
        .map_err(|e| format!("registry: {e}"))?,
    );
    let http = HttpConfig::default();
    let handler = router(
        Arc::clone(&registry),
        Arc::new(DaemonMetrics::default()),
        Arc::default(),
        Arc::new(LoadGauge::default()),
        None,
        Arc::new(TraceHub::new(
            http.trace_sample,
            http.trace_slow_us,
            http.trace_ring,
        )),
    );
    if inputs.hot {
        // Warm the handler's caches in item order, as the daemon's are.
        handler_pass(
            &mut Timings::default(),
            &inputs,
            &handler,
            &registry,
            &expected,
        );
    }
    let mut t = Timings::default();
    let started = Instant::now();
    loop {
        failures += layer_pass(&mut t, &inputs, &scanner, &registry, &expected_items);
        failures += handler_pass(&mut t, &inputs, &handler, &registry, &expected);
        attempted += (2 * inputs.items.len() + inputs.requests.len()) as u64;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Single-client passes over the real daemon: its p50 less the
    // handler's is the time no in-process layer accounts for.
    let wire = inputs.wire_requests();
    let mut direct: Vec<Shot> = Vec::new();
    let (mut shed, mut errors) = (0, 0);
    for _ in 0..if inputs.hot { 1 } else { COLD_PASSES } {
        unpin();
        let (deployment, _) = Deployment::start(&work, false)?;
        // The deployment and its one client share a CPU, as in the
        // end-to-end run.
        confine_others();
        pin_to_first_cpu();
        if inputs.hot {
            pass(deployment.front(), inputs.path, &wire)?;
        }
        direct.extend(pass(deployment.front(), inputs.path, &wire)?);
        let (s, e) = deployment.shed_and_errors()?;
        (shed, errors) = (shed + s, errors + e);
        deployment.stop();
    }
    attempted += direct.len() as u64;
    failures += mismatches(&direct, |i| Some(expected[i]));
    let (hits, hit_ratio) = cache_hits(&direct);
    let direct_p50 = latencies(&direct).p50;

    // The router's added latency on the hot stream: direct and routed
    // deployments, both warm, in alternating rounds.
    let pool = Inputs::new(Workload::ScanHot, seed);
    let (_, pool_expected) = reference_bits(&pool, &reference);
    let pool_wire = pool.wire_requests();
    // Both deployments and the client on one CPU, as in the end-to-end
    // runs.
    unpin();
    let (one, _) = Deployment::start(&work, false)?;
    let (fleet, _) = Deployment::start(&work, true)?;
    confine_others();
    pin_to_first_cpu();
    let mut sides: [Vec<Shot>; 2] = [Vec::new(), Vec::new()];
    for deployment in [&one, &fleet] {
        pass(deployment.front(), "/scan", &pool_wire)?;
    }
    let per_round = ROUTER_REQUESTS / ROUTER_ROUNDS;
    for round in 0..ROUTER_ROUNDS {
        let batch: Vec<Request> = (0..per_round)
            .map(|k| pool_wire[(round * per_round + k) % pool_wire.len()].clone())
            .collect();
        for (side, deployment) in [&one, &fleet].into_iter().enumerate() {
            sides[side].extend(pass(deployment.front(), "/scan", &batch)?);
        }
    }
    for side in &sides {
        attempted += side.len() as u64;
        failures += mismatches(side, |i| Some(pool_expected[i]));
    }
    let (fleet_shed, fleet_errors) = fleet.shed_and_errors()?;
    let (one_shed, one_errors) = one.shed_and_errors()?;
    shed += fleet_shed + one_shed;
    errors += fleet_errors + one_errors;
    one.stop();
    fleet.stop();
    let (d, r) = (latencies(&sides[0]), latencies(&sides[1]));
    let (Some(d99), Some(r99)) = (d.p99, r.p99) else {
        return Err("too few router samples for a p99".to_string());
    };

    for (name, samples) in &t.0 {
        let s = Summary::of(samples.clone());
        metrics.insert((*name).to_string(), (s.p50, "us"));
        let p90 = format!("{}_p90_us", name.trim_end_matches("_us"));
        metrics.insert(p90, (s.p90, "us"));
    }
    let n = if inputs.path == "/batch" {
        BATCH_SIZE as f64
    } else {
        1.0
    };
    let scan_path = if inputs.path == "/batch" {
        n * t.median("core.scan_batch_per_contract_us")
    } else if inputs.hot {
        t.median("core.scan_hit_us")
    } else {
        t.median("core.scan_miss_us")
    };
    let handler_p50 = t.median("serve.handler_us");
    let wire_layers = t.median("serve.json_parse_us")
        + n * (t.median("serve.wire_decode_us") + t.median("serve.wire_render_us"));
    // Lift time is heavy-tailed (obfuscation level 5 costs over ten
    // times level 0), so its share of request time is a ratio of means:
    // medians of skewed parts do not add up to the whole.
    let lift_samples: Vec<f64> =
        t.0.iter()
            .filter(|(k, _)| k.starts_with("ir.lift_"))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
    let lift_mean = lift_samples.iter().sum::<f64>() / lift_samples.len() as f64;
    let direct_mean = direct
        .iter()
        .map(|s| s.latency_ns as f64 / 1e3)
        .sum::<f64>()
        / direct.len() as f64;
    let lifts_per_request = (1.0 - hit_ratio) * unique as f64 / inputs.requests.len() as f64;
    let unattributed = direct_p50 - handler_p50;
    for (name, value, unit) in [
        ("serve.direct_p50_us", direct_p50, "us"),
        ("serve.unattributed_us", unattributed, "us"),
        (
            "serve.layer_coverage_share",
            (wire_layers + scan_path) / direct_p50,
            "ratio",
        ),
        (
            "serve.wire_share",
            (wire_layers + unattributed) / direct_p50,
            "ratio",
        ),
        ("serve.direct_mean_us", direct_mean, "us"),
        (
            "ir.lift_share",
            lifts_per_request * lift_mean / direct_mean,
            "ratio",
        ),
        ("serve.cache_hit_ratio", hit_ratio, "ratio"),
        ("serve.shed_total", shed as f64, "count"),
        ("serve.errors_total", errors as f64, "count"),
        ("fleet.router_added_p50_us", r.p50 - d.p50, "us"),
        ("fleet.router_added_p99_us", r99 - d99, "us"),
    ] {
        metrics.insert(name.to_string(), (value, unit));
    }
    let mut guards = Vec::new();
    if inputs.hot && hit_ratio < 0.99 {
        guards.push(format!(
            "cache hit ratio {hit_ratio} < 0.99 on a hot workload"
        ));
    }
    if !inputs.hot && hits > 0 {
        guards.push(format!("{hits} cache hits on a cold workload"));
    }
    if shed > 0 {
        guards.push(format!("{shed} requests shed"));
    }
    let info = format!(
        "\"inputs_hash\": \"{inputs_hash:016x}\", \"layer_contracts\": {}, \"direct_samples\": {}, \
         \"router_samples\": {}",
        inputs.items.len(),
        direct.len(),
        sides[1].len()
    );
    Ok(Report {
        metrics,
        attempted,
        failed: failures,
        guards,
        info,
    })
}
