//! Deterministic request streams, one per workload, made from the
//! workload seed through the dataset generators and the obfuscator.
//!
//! Every item is derived from `(seed, stream tag, index, attempt)` alone,
//! so the same seed gives a byte-identical stream and a different seed a
//! different one. Cold streams never repeat a skeleton (the daemon's
//! cache key): a candidate whose key was already drawn is redrawn with
//! the next attempt number.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use scamdetect::scan::request_fingerprint;
use scamdetect::ScanRequest;
use scamdetect_dataset::{generate_evm, generate_wasm, FamilyKind};
use scamdetect_evm::disasm::disassemble;
use scamdetect_evm::proxy::{fnv1a, fnv1a_extend, make_erc1167};
use scamdetect_ir::Platform;
use scamdetect_obfuscate::{obfuscate_evm, ObfuscationLevel};
use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Contracts in the hot pool (`scan-hot`, `routed-hot`).
pub const HOT_POOL: usize = 1024;
/// Contracts per `/batch` request (`batch-cold`).
pub const BATCH_SIZE: usize = 64;
/// Skeleton twins per batch: a quarter of the batch.
pub const BATCH_TWINS: usize = BATCH_SIZE / 4;
/// Share of WASM modules in every stream.
const WASM_SHARE: f64 = 0.2;
/// Share of ERC-1167 clones in the hot pool.
const CLONE_SHARE: f64 = 0.15;

const PUSH4: u8 = 0x63;

const TAG_HOT: u64 = 0x686f74;
const TAG_COLD: u64 = 0x636f6c64;
const TAG_TWIN: u64 = 0x7477696e;

/// One contract as the benchmark sends it.
#[derive(Debug, Clone)]
pub struct Item {
    pub bytes: Vec<u8>,
    pub platform: Platform,
}

impl Item {
    fn new(bytes: Vec<u8>, platform: Platform) -> Item {
        Item { bytes, platform }
    }

    /// The request the in-process scanner takes.
    pub fn request(&self) -> ScanRequest<'_> {
        ScanRequest::new(&self.bytes).on(self.platform)
    }

    /// The daemon's cache key: the skeleton fingerprint.
    pub fn key(&self) -> (Platform, u64) {
        (
            self.platform,
            request_fingerprint(self.platform, &self.bytes),
        )
    }

    /// The scan request object. WASM travels base64-encoded and EVM
    /// hex-encoded, so both wire decoders are on the path.
    pub fn body(&self) -> String {
        match self.platform {
            Platform::Evm => format!(r#"{{"bytecode":"0x{}"}}"#, hex(&self.bytes)),
            Platform::Wasm => format!(
                r#"{{"bytecode":"{}","encoding":"base64"}}"#,
                base64(&self.bytes)
            ),
        }
    }
}

/// The `/batch` request body for `items`.
pub fn batch_body(items: &[Item]) -> String {
    let slots: Vec<String> = items.iter().map(Item::body).collect();
    format!(r#"{{"requests":[{}]}}"#, slots.join(","))
}

/// The generator for item `index` of stream `tag`, attempt `attempt`.
fn item_rng(seed: u64, tag: u64, index: u64, attempt: u64) -> StdRng {
    let mut h = fnv1a(&seed.to_le_bytes());
    for word in [tag, index, attempt] {
        h = fnv1a_extend(h, &word.to_le_bytes());
    }
    StdRng::seed_from_u64(h)
}

fn family(rng: &mut StdRng) -> FamilyKind {
    let all = FamilyKind::all();
    all[rng.random_range(0..all.len())]
}

fn wasm_item(rng: &mut StdRng) -> Item {
    let kind = family(rng);
    let module = generate_wasm(kind, rng).module;
    Item::new(
        scamdetect_wasm::encode::encode_module(&module),
        Platform::Wasm,
    )
}

/// The hot pool: plain family contracts, ERC-1167 clones and about 20%
/// WASM. Repeats are allowed; the pool is warmed before timing.
pub fn hot_pool(seed: u64) -> Vec<Item> {
    (0..HOT_POOL as u64)
        .map(|i| {
            let mut rng = item_rng(seed, TAG_HOT, i, 0);
            let draw: f64 = rng.random();
            if draw < WASM_SHARE {
                wasm_item(&mut rng)
            } else if draw < WASM_SHARE + CLONE_SHARE {
                Item::new(make_erc1167(&rng.random::<[u8; 20]>()), Platform::Evm)
            } else {
                let kind = family(&mut rng);
                let program = generate_evm(kind, &mut rng).program;
                let bytes = program.assemble().expect("generated contract assembles");
                Item::new(bytes, Platform::Evm)
            }
        })
        .collect()
}

/// One cold candidate: a family contract obfuscated at a level drawn
/// from 0–5 with its own obfuscation seed, or a plain WASM module.
fn cold_candidate(seed: u64, index: u64, attempt: u64) -> Item {
    let mut rng = item_rng(seed, TAG_COLD, index, attempt);
    if rng.random::<f64>() < WASM_SHARE {
        return wasm_item(&mut rng);
    }
    let kind = family(&mut rng);
    let program = generate_evm(kind, &mut rng).program;
    let level = ObfuscationLevel::new(rng.random_range(0..=5u8));
    let (obfuscated, _) = obfuscate_evm(&program, level, rng.next_u64());
    let bytes = obfuscated
        .assemble()
        .expect("obfuscated contract assembles");
    Item::new(bytes, Platform::Evm)
}

/// A stream of contracts whose skeletons are pairwise distinct.
pub struct ColdStream {
    seed: u64,
    next: u64,
    batches: u64,
    seen: HashSet<(Platform, u64)>,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            seed,
            next: 0,
            batches: 0,
            seen: HashSet::new(),
        }
    }

    /// The next `n` contracts, each with a skeleton not drawn before.
    /// First attempts are generated on `threads` threads; the rare
    /// redraws after a repeated skeleton run in stream order, so the
    /// result does not depend on the thread count.
    pub fn take(&mut self, n: usize, threads: usize) -> Vec<Item> {
        let (seed, first) = (self.seed, self.next);
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let candidates: Vec<(Item, (Platform, u64))> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n) as u64;
                    scope.spawn(move || {
                        (start as u64..end)
                            .map(|i| {
                                let item = cold_candidate(seed, first + i, 0);
                                let key = item.key();
                                (item, key)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("generator thread panicked"))
                .collect()
        });
        self.next += n as u64;
        candidates
            .into_iter()
            .zip(first..)
            .map(|((candidate, key), index)| {
                if self.seen.insert(key) {
                    return candidate;
                }
                (1..)
                    .map(|attempt| cold_candidate(seed, index, attempt))
                    .find(|item| self.seen.insert(item.key()))
                    .expect("an unbounded attempt sequence yields a fresh skeleton")
            })
            .collect()
    }

    /// The next `n` `/batch` requests, flattened: `BATCH_SIZE -
    /// BATCH_TWINS` fresh contracts each, plus skeleton twins of some of
    /// them, interleaved.
    pub fn take_batches(&mut self, n: usize, threads: usize) -> Vec<Item> {
        let fresh = self.take(n * (BATCH_SIZE - BATCH_TWINS), threads);
        fresh
            .chunks(BATCH_SIZE - BATCH_TWINS)
            .flat_map(|chunk| {
                let mut rng = item_rng(self.seed, TAG_TWIN, self.batches, 0);
                self.batches += 1;
                let mut batch = chunk.to_vec();
                for _ in 0..BATCH_TWINS {
                    let original = &chunk[rng.random_range(0..chunk.len())];
                    let at = rng.random_range(0..=batch.len());
                    batch.insert(at, twin(original));
                }
                batch
            })
            .collect()
    }
}

/// Generated contracts kept in a file rather than in memory, so the
/// process's resident memory does not grow with the number of inputs a
/// faster program gets through in the timed window.
pub struct ColdStore {
    file: File,
    entries: Vec<(u64, u32, Platform)>,
    end: u64,
}

impl ColdStore {
    pub fn create(path: &Path) -> Result<ColdStore, String> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ColdStore {
            file,
            entries: Vec::new(),
            end: 0,
        })
    }

    pub fn append(&mut self, items: &[Item]) -> Result<(), String> {
        let mut chunk = Vec::new();
        for item in items {
            let len = u32::try_from(item.bytes.len()).expect("contracts are far below 4 GiB");
            self.entries
                .push((self.end + chunk.len() as u64, len, item.platform));
            chunk.extend_from_slice(&item.bytes);
        }
        self.file
            .write_all(&chunk)
            .map_err(|e| format!("writing the cold store: {e}"))?;
        self.end += chunk.len() as u64;
        Ok(())
    }

    /// Writes the stored contracts through to the disk, so that the
    /// kernel's write-back of them does not fall into a timed window.
    pub fn sync(&self) -> Result<(), String> {
        self.file
            .sync_data()
            .map_err(|e| format!("syncing the cold store: {e}"))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, index: usize) -> Item {
        let (offset, len, platform) = self.entries[index];
        let mut bytes = vec![0u8; len as usize];
        self.file
            .read_exact_at(&mut bytes, offset)
            .expect("the cold store holds every appended contract");
        Item::new(bytes, platform)
    }
}

/// A contract with the same skeleton as `item`: for EVM the first PUSH4
/// immediate (a selector, which the skeleton masks) is altered; a WASM
/// skeleton is the whole module, so its twin is a copy.
fn twin(item: &Item) -> Item {
    let mut bytes = item.bytes.clone();
    if item.platform == Platform::Evm {
        if let Some(push4) = disassemble(&bytes)
            .iter()
            .find(|ins| ins.byte == PUSH4 && ins.immediate.len() == 4)
        {
            bytes[push4.offset + 4] ^= 0x5a;
        }
    }
    let twin = Item::new(bytes, item.platform);
    assert_eq!(
        twin.key(),
        item.key(),
        "a twin shares its original's skeleton"
    );
    twin
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 15)] as char);
    }
    out
}

fn base64(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = chunk
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc | u32::from(b) << (16 - 8 * i));
        for i in 0..4 {
            if i <= chunk.len() {
                out.push(ALPHABET[(n >> (18 - 6 * i) & 63) as usize] as char);
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// FNV-1a over a sequence of request bodies: the printed input hash.
pub fn stream_hash(bodies: impl IntoIterator<Item = String>) -> u64 {
    bodies.into_iter().fold(fnv1a(b"perfbench"), |h, body| {
        fnv1a_extend(fnv1a_extend(h, body.as_bytes()), b"\n")
    })
}
