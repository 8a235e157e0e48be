//! The cross-protocol twin suite: the binary wire protocol is only
//! allowed to exist because it is *provably* the same service as SOAP.
//! Two identical catalogs (same seed data, same deterministic clock)
//! are put behind the two front ends — a keep-alive SOAP server and a
//! binary-protocol server — and a seeded ~400-step mixed stream of
//! `Request`s is replayed through both clients in lockstep, by one
//! function generic over the client's transport. After
//! every step the two results must be byte-identical (`{:?}` of the
//! full `Result`, so success payloads *and* errors), and the
//! epoch/shard echoes must match; at the end the audit trails, file
//! states and topology reports are swept and compared.
//!
//! The mix runs under the default barrier engine, the MVCC engine
//! (with mid-run vacuums) and a 4-shard catalog. Deliberately
//! hand-rolled xorshift PRNG — no test-only dependency may decide the
//! property. Reproduce a CI failure with
//! `MCS_WIRE_SEED=<seed> cargo test -p mcs-net --test wire_twin`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, FileSpec, FileUpdate,
    IndexProfile, ManualClock, ObjectRef, ShardedCatalog,
};
use mcs_net::client::{Client, DurabilityMode, Transport};
use mcs_net::{BinMcsClient, BinServer, McsClient, McsServer, Request};
use relstore::Value;
use soapstack::TransportOpts;

/// xorshift64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn file_name(i: u64) -> String {
    format!("f{i:02}.dat")
}

fn random_value(rng: &mut Rng, ty: AttrType) -> Value {
    match ty {
        AttrType::Int => Value::Int(rng.below(6) as i64),
        AttrType::Str => Value::from(format!("s{}", rng.below(5)).as_str()),
        AttrType::Float => Value::Float(rng.below(5) as f64 / 2.0),
        _ => unreachable!("test uses int/str/float only"),
    }
}

fn random_pred(rng: &mut Rng) -> AttrPredicate {
    let (name, ty) = match rng.below(3) {
        0 => ("run", AttrType::Int),
        1 => ("site", AttrType::Str),
        _ => ("quality", AttrType::Float),
    };
    let op = match rng.below(6) {
        0 => AttrOp::Eq,
        1 => AttrOp::Ne,
        2 => AttrOp::Le,
        3 => AttrOp::Ge,
        4 => AttrOp::Lt,
        _ => AttrOp::Gt,
    };
    AttrPredicate { name: name.into(), op, value: random_value(rng, ty) }
}

fn random_spec(rng: &mut Rng) -> FileSpec {
    let mut spec = FileSpec::named(file_name(rng.below(40)));
    for _ in 0..rng.below(4) {
        let p = random_pred(rng);
        spec = spec.attr(p.name, p.value);
    }
    if rng.below(3) == 0 {
        spec = spec.in_collection(format!("c{}", rng.below(2)));
    }
    if rng.below(4) == 0 {
        spec.audit = true;
    }
    spec
}

struct Config {
    tag: &'static str,
    shards: usize,
    mvcc: bool,
    cache: bool,
}

const CONFIGS: [Config; 3] = [
    Config { tag: "default", shards: 1, mvcc: false, cache: true },
    Config { tag: "mvcc", shards: 1, mvcc: true, cache: false },
    Config { tag: "sharded4", shards: 4, mvcc: false, cache: false },
];

/// Build one of the two identical catalogs for a config.
fn build_catalog(cfg: &Config) -> Arc<ShardedCatalog> {
    Arc::new(
        ShardedCatalog::in_memory_opts(
            cfg.shards,
            &admin(),
            IndexProfile::Paper2003,
            Arc::new(ManualClock::default()),
            if cfg.cache { Some(CacheConfig::default()) } else { None },
            cfg.mvcc,
        )
        .unwrap(),
    )
}

/// One call's observable outcome on one client: the full `Result`
/// (success payload or error) and the epoch/shard echo.
fn outcome<T: Transport>(c: &mut Client<T>, req: &Request) -> String {
    let r = c.call(req);
    format!("{r:?}, echo (epoch {}, shard {})", c.last_epoch(), c.last_shard())
}

/// Run the same request on both clients and require byte-identical
/// outcomes. Returns whether it succeeded.
fn twin(at: &str, soap: &mut McsClient, bin: &mut BinMcsClient, req: Request) -> bool {
    let a = outcome(soap, &req);
    let what = req.op().name();
    assert_eq!(a, outcome(bin, &req), "{at}: SOAP and binary diverged on {what}");
    a.starts_with("Ok")
}

fn check_case(cfg: &Config, seed: u64) {
    eprintln!("wire_twin: config = {}, seed = {seed}", cfg.tag);
    let cat_soap = build_catalog(cfg);
    let cat_bin = build_catalog(cfg);
    let soap_server = McsServer::start_sharded(Arc::clone(&cat_soap), "127.0.0.1:0", 4).unwrap();
    let bin_server = BinServer::start_sharded(Arc::clone(&cat_bin), "127.0.0.1:0", 4).unwrap();
    let opts = TransportOpts { keep_alive: true, simulated_rtt: Duration::ZERO };
    let mut soap = McsClient::with_opts(soap_server.addr().to_string(), admin(), opts);
    let mut bin = BinMcsClient::connect(bin_server.addr().to_string(), admin());

    // Identical seed schema through both front ends.
    for (name, ty) in [("run", AttrType::Int), ("site", AttrType::Str), ("quality", AttrType::Float)]
    {
        soap.define_attribute(name, ty, "").unwrap();
        bin.define_attribute(name, ty, "").unwrap();
    }
    for c in ["c0", "c1"] {
        soap.create_collection(c, None, "").unwrap();
        bin.create_collection(c, None, "").unwrap();
    }

    let mut rng = Rng::new(seed);
    for step in 0..400 {
        let at = format!("config {} seed {seed} step {step}", cfg.tag);
        let twin = |soap: &mut McsClient, bin: &mut BinMcsClient, req| twin(&at, soap, bin, req);
        match rng.below(20) {
            // 0–3: create one file (AlreadyExists churn included).
            0..=3 => {
                let spec = random_spec(&mut rng);
                twin(&mut soap, &mut bin, Request::CreateFile { spec });
            }
            // 4–5: the bulk mutation, 2–5 specs per batch. Duplicate
            // names inside a batch exercise the all-or-nothing abort.
            4..=5 => {
                let n = 2 + rng.below(4);
                let specs: Vec<FileSpec> = (0..n).map(|_| random_spec(&mut rng)).collect();
                twin(&mut soap, &mut bin, Request::CreateFiles { specs });
            }
            // 6–8: simple queries.
            6..=8 => {
                let name = file_name(rng.below(40));
                twin(&mut soap, &mut bin, Request::GetFile { name });
            }
            9 => {
                let name = file_name(rng.below(40));
                let version = rng.below(3) as i64;
                twin(&mut soap, &mut bin, Request::GetFileVersion { name, version });
            }
            // 10: metadata update.
            10 => {
                let name = file_name(rng.below(40));
                let update = FileUpdate {
                    data_type: Some(format!("t{}", rng.below(3))),
                    ..FileUpdate::default()
                };
                twin(&mut soap, &mut bin, Request::UpdateFile { name, update });
            }
            // 11: attribute churn.
            11 => {
                let object = ObjectRef::File(file_name(rng.below(40)));
                if rng.below(3) == 0 {
                    let name = ["run", "site", "quality"][rng.below(3) as usize].to_string();
                    twin(&mut soap, &mut bin, Request::RemoveAttribute { object, name });
                } else {
                    let p = random_pred(&mut rng);
                    let attr = Attribute { name: p.name, value: p.value };
                    twin(&mut soap, &mut bin, Request::SetAttribute { object, attr });
                }
            }
            // 12: deletes and invalidations.
            12 => {
                let name = file_name(rng.below(40));
                if rng.below(2) == 0 {
                    twin(&mut soap, &mut bin, Request::DeleteFile { name });
                } else {
                    twin(&mut soap, &mut bin, Request::InvalidateFile { name });
                }
            }
            // 13–14: discovery, planned and explained.
            13..=14 => {
                let n = 1 + rng.below(3);
                let preds: Vec<AttrPredicate> = (0..n).map(|_| random_pred(&mut rng)).collect();
                twin(&mut soap, &mut bin, Request::QueryByAttributes { preds: preds.clone() });
                twin(&mut soap, &mut bin, Request::ExplainQuery { preds });
            }
            // 15: collection membership.
            15 => {
                let file = file_name(rng.below(40));
                let collection = if rng.below(3) == 0 {
                    None
                } else {
                    Some(format!("c{}", rng.below(2)))
                };
                twin(&mut soap, &mut bin, Request::AssignCollection { file, collection });
            }
            16 => {
                let name = format!("c{}", rng.below(2));
                twin(&mut soap, &mut bin, Request::ListCollection { name });
            }
            // 17: annotations and audit toggles.
            17 => {
                let object = ObjectRef::File(file_name(rng.below(40)));
                match rng.below(3) {
                    0 => {
                        let text = format!("note {}", rng.below(100));
                        twin(&mut soap, &mut bin, Request::Annotate { object, text });
                    }
                    1 => {
                        let enabled = rng.below(2) == 0;
                        twin(&mut soap, &mut bin, Request::SetAudit { object, enabled });
                    }
                    _ => {
                        twin(&mut soap, &mut bin, Request::GetAnnotations { object });
                    }
                }
            }
            // 18: per-request headers — durability override and cache
            // bypass must behave identically as SOAP attributes and as
            // binary flag bits. A sync_now barrier afterwards makes the
            // durable watermark deterministic again before comparing.
            18 => {
                let mode = match rng.below(3) {
                    0 => DurabilityMode::Always,
                    1 => DurabilityMode::Group,
                    _ => DurabilityMode::Async,
                };
                soap.set_durability(Some(mode));
                bin.set_durability(Some(mode));
                let spec = random_spec(&mut rng);
                let ok = twin(&mut soap, &mut bin, Request::CreateFile { spec });
                if ok && soap.last_epoch() > 0 {
                    let (epoch, shard) = (soap.last_epoch(), soap.last_shard());
                    let ws = soap.wait_for_epoch_on(shard, epoch).unwrap();
                    let wb = bin.wait_for_epoch_on(shard, epoch).unwrap();
                    assert!(ws >= epoch && wb >= epoch, "durable watermark below epoch");
                }
                soap.set_durability(None);
                bin.set_durability(None);
                let bs = soap.sync_now().unwrap();
                let bb = bin.sync_now().unwrap();
                assert_eq!(bs, bb, "config {} seed {seed} step {step}: sync_now barrier", cfg.tag);
            }
            // 19: cache bypass on a read (a no-op flag on the uncached
            // configs — it must still be accepted identically).
            _ => {
                soap.set_cache_bypass(true);
                bin.set_cache_bypass(true);
                let name = file_name(rng.below(40));
                twin(&mut soap, &mut bin, Request::GetFile { name });
                soap.set_cache_bypass(false);
                bin.set_cache_bypass(false);
            }
        }
        // MVCC reclamation mid-run, identically on both catalogs.
        if cfg.mvcc && step % 97 == 0 {
            for k in 0..cat_soap.shards() {
                cat_soap.shard(k).database().vacuum();
                cat_bin.shard(k).database().vacuum();
            }
        }
    }

    // Final sweep: every file's state, history and audit trail, plus
    // the topology report, must agree byte for byte.
    let at = format!("config {} seed {seed} final sweep", cfg.tag);
    for i in 0..40 {
        let name = file_name(i);
        let object = ObjectRef::File(name.clone());
        for req in [
            Request::GetFile { name: name.clone() },
            Request::GetFileVersions { name },
            Request::GetAttributes { object: object.clone() },
            Request::GetAuditTrail { object: object.clone() },
            Request::GetAnnotations { object },
        ] {
            twin(&at, &mut soap, &mut bin, req);
        }
    }
    twin(&at, &mut soap, &mut bin, Request::CatalogInfo);

    // Both persistent clients must have held exactly one connection for
    // the whole run — the twin suite doubles as the keep-alive witness
    // for the binary protocol.
    assert_eq!(
        soap_server.stats().connections.load(Ordering::Relaxed),
        1,
        "config {}: SOAP keep-alive client must reuse one connection",
        cfg.tag
    );
    assert_eq!(
        bin_server.stats().connections.load(Ordering::Relaxed),
        1,
        "config {}: binary client must reuse one connection",
        cfg.tag
    );
    // ... and must have issued exactly the same number of requests.
    assert_eq!(
        soap_server.stats().requests.load(Ordering::Relaxed),
        bin_server.stats().requests.load(Ordering::Relaxed),
        "config {}: request counts diverged",
        cfg.tag
    );
}

/// Random interleavings under fixed seeds (or one from `MCS_WIRE_SEED`,
/// for replaying a CI failure) across all three configurations.
#[test]
fn binary_protocol_equals_soap() {
    if let Some(seed) = std::env::var("MCS_WIRE_SEED").ok().and_then(|s| s.parse::<u64>().ok()) {
        for cfg in &CONFIGS {
            check_case(cfg, seed);
        }
        return;
    }
    for cfg in &CONFIGS {
        for seed in [42, 0xC0FFEE] {
            check_case(cfg, seed);
        }
    }
}
