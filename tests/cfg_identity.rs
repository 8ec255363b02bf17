//! CFG identity gate: EVM CFG recovery must keep producing exactly the
//! graphs it produced when the expected digest below was recorded.
//!
//! The digest covers every generator family at every obfuscation level,
//! under all three unknown-jump policies. Per CFG it folds in, in graph
//! order, each block's start offset, instruction count and virtual flag,
//! then every edge with its kind, then the resolved and unresolved jump
//! counts. Edge order is part of the digest because downstream features
//! and GNN adjacency are built by iterating it.
//!
//! Inputs whose fixpoint runs out of its worklist budget are excluded:
//! the result for them depends on the budget, which the unit tests in
//! `scamdetect_evm::cfg` cover. An input is treated as exhausting the
//! budget when a run with an effectively unbounded budget gives a
//! different CFG.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scamdetect_dataset::{generate_evm, FamilyKind};
use scamdetect_evm::cfg::{build_cfg_with, Cfg, CfgOptions, UnknownJumpPolicy};
use scamdetect_evm::proxy::{fnv1a, fnv1a_extend};
use scamdetect_obfuscate::{obfuscate_evm, ObfuscationLevel};

/// Generated contracts per family; each is obfuscated at every level.
const SEEDS_PER_FAMILY: u64 = 4;
/// Digest of every CFG, recorded with the builder before its flat-array
/// rewrite.
const EXPECTED_DIGEST: u64 = 0x513b_46e2_daed_80ff;
/// Inputs that enter the digest (all of them: none exhausts the budget).
const EXPECTED_INPUTS: usize = 336;

const POLICIES: [UnknownJumpPolicy; 3] = [
    UnknownJumpPolicy::Ignore,
    UnknownJumpPolicy::ToAllJumpdests,
    UnknownJumpPolicy::VirtualNode,
];

fn inputs() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (k, kind) in FamilyKind::all().into_iter().enumerate() {
        for s in 0..SEEDS_PER_FAMILY {
            let seed = fold(fnv1a(&(k as u64).to_le_bytes()), s);
            let program = generate_evm(kind, &mut StdRng::seed_from_u64(seed)).program;
            for level in ObfuscationLevel::all() {
                let seed = fold(seed, u64::from(level.get()));
                let (obfuscated, _) = obfuscate_evm(&program, level, seed);
                out.push(
                    obfuscated
                        .assemble()
                        .expect("obfuscated contract assembles"),
                );
            }
        }
    }
    out
}

fn fold(h: u64, word: u64) -> u64 {
    fnv1a_extend(h, &word.to_le_bytes())
}

fn digest(mut h: u64, cfg: &Cfg) -> u64 {
    let g = cfg.graph();
    h = fold(h, g.node_count() as u64);
    for (_, b) in g.nodes() {
        h = fold(h, b.start as u64);
        h = fold(h, b.instrs.len() as u64);
        h = fold(h, u64::from(b.is_virtual));
    }
    h = fold(h, g.edge_count() as u64);
    for (u, v, kind) in g.edges() {
        h = fold(h, u.index() as u64);
        h = fold(h, v.index() as u64);
        h = fold(h, *kind as u64);
    }
    h = fold(h, cfg.resolved_jump_count() as u64);
    fold(h, cfg.unresolved_jump_count() as u64)
}

fn options(unknown_jump_policy: UnknownJumpPolicy, max_passes: usize) -> CfgOptions {
    CfgOptions {
        unknown_jump_policy,
        max_passes,
    }
}

#[test]
fn cfg_identity_gate() {
    let default_passes = CfgOptions::default().max_passes;
    let mut h = fnv1a(b"cfg-identity");
    let mut counted = 0usize;
    for code in inputs() {
        // The policy is applied after the fixpoint, so one policy shows
        // whether the budget ran out.
        let bounded = build_cfg_with(&code, &options(UnknownJumpPolicy::Ignore, default_passes));
        let unbounded = build_cfg_with(&code, &options(UnknownJumpPolicy::Ignore, 1 << 20));
        if digest(0, &bounded) != digest(0, &unbounded) {
            continue;
        }
        counted += 1;
        for policy in POLICIES {
            h = digest(h, &build_cfg_with(&code, &options(policy, default_passes)));
        }
    }
    assert_eq!(counted, EXPECTED_INPUTS, "inputs inside the budget");
    assert_eq!(h, EXPECTED_DIGEST, "CFG identity digest: {h:#018x}");
}
