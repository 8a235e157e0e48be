//! The differential harness: however the catalog is deployed, it must
//! answer every operation exactly as the 2003 catalog does
//! (DESIGN.md §7.3–§7.7).
//!
//! One seeded generator yields a stream of [`Step`]s: mostly
//! `(CallScope, Request)` pairs, plus the two actions the wire cannot
//! carry (a general boolean query and a vacuum). One runner feeds the
//! stream to an **oracle** — one shard, barrier engine, no cache,
//! planner bypassed, same index profile — and to every **subject** of
//! one configuration: `dispatch::execute` on a catalog directly and, for
//! wire configurations, `McsClient` and `BinMcsClient` against servers
//! over identically built catalogs. After every step each subject's
//! result (success payload or fault) must equal the oracle's, with
//! file, annotation, history and audit row ids redacted when the shard
//! counts differ (a file's id is its shard's row id), and the subjects
//! of one configuration must agree byte for byte, epoch/shard echo
//! included. The configurations are one table, [`CONFIGS`]; each
//! `#[test]` runs one family of it.
//!
//! The runner is single-threaded, so a seed replays the exact stream.
//! Deliberately hand-rolled xorshift PRNG: no test-only dependency may
//! decide the property. A failure names the seed, the configuration,
//! the step and its request; replay it with
//! `MCS_TWIN_SEED=<seed> cargo test -p mcs-net --test twin -- --nocapture`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, FileSpec, FileUpdate,
    IndexProfile, LogicalFile, ManualClock, ObjectRef, ObjectType, QueryExpr, ShardedCatalog,
    StaticPredicate, StoreConfig,
};
use mcs_net::client::{Client, DurabilityMode, Transport};
use mcs_net::dispatch::{execute, fault_of, CallScope};
use mcs_net::ops::Reply;
use mcs_net::{BinMcsClient, BinServer, McsClient, McsServer, NetError, Request, Response};
use relstore::Value;
use soapstack::TransportOpts;

/// xorshift64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n
    }

    fn coin(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

// ---------- the generator ----------

/// Steps per run, after the schema setup and before the final sweep.
const STEPS: usize = 400;
/// Logical-file name pool: small enough for AlreadyExists churn and
/// cache hits, large enough for multi-file query answers.
const FILES: u64 = 24;
const ATTRS: [(&str, AttrType); 3] =
    [("run", AttrType::Int), ("site", AttrType::Str), ("quality", AttrType::Float)];

/// One action every subject (and the oracle) performs.
#[derive(Debug)]
enum Step {
    /// A catalog operation under per-request options.
    Call(CallScope, Request),
    /// `general_query` — no wire op carries a boolean tree, so every
    /// subject runs it on its catalog directly.
    Query(QueryExpr),
    /// Reclaim dead MVCC versions on every shard (a no-op on the barrier
    /// engine); answers must not change across it.
    Vacuum,
}

fn call(request: Request) -> Step {
    Step::Call(CallScope::default(), request)
}

fn file_name(i: u64) -> String {
    format!("f{i:02}.dat")
}

fn any_file(rng: &mut Rng) -> String {
    file_name(rng.below(FILES))
}

/// `c0` and `c1` exist from setup on and are never deleted, so query
/// leaves naming them always resolve; `c2` comes and goes.
fn any_coll(rng: &mut Rng) -> String {
    format!("c{}", rng.below(3))
}

fn any_object(rng: &mut Rng) -> ObjectRef {
    if rng.coin(3) {
        ObjectRef::Collection(any_coll(rng))
    } else {
        ObjectRef::File(any_file(rng))
    }
}

fn random_value(rng: &mut Rng, ty: AttrType) -> Value {
    match ty {
        AttrType::Int => Value::Int(rng.below(6) as i64),
        AttrType::Str => Value::from(format!("s{}", rng.below(5)).as_str()),
        AttrType::Float => Value::Float(rng.below(5) as f64 / 2.0),
        _ => unreachable!("the harness uses int/str/float attributes only"),
    }
}

/// A predicate over one of the three defined attributes. With `like`,
/// string predicates are sometimes LIKE patterns: the planner's
/// prefix-range path, with (`s%1`) and without a residual re-check, the
/// posting fallback (leading wildcard) and exact-pattern corner cases.
fn random_pred(rng: &mut Rng, like: bool) -> AttrPredicate {
    let (name, ty) = ATTRS[rng.below(3) as usize];
    if like && ty == AttrType::Str && rng.coin(3) {
        let pat = ["s%", "s1%", "s%1", "s%3", "%1", "s_", "s2", "_%"][rng.below(8) as usize];
        return AttrPredicate { name: name.into(), op: AttrOp::Like, value: pat.into() };
    }
    let op = [AttrOp::Eq, AttrOp::Ne, AttrOp::Le, AttrOp::Ge, AttrOp::Lt, AttrOp::Gt]
        [rng.below(6) as usize];
    AttrPredicate { name: name.into(), op, value: random_value(rng, ty) }
}

fn conjunction(rng: &mut Rng) -> Vec<AttrPredicate> {
    (0..1 + rng.below(4)).map(|_| random_pred(rng, true)).collect()
}

/// Three in four conjunctive queries repeat one of the run's two hot
/// predicates, so cached answers get reused, and go stale under writes
/// before the tiny cache evicts them.
fn random_preds(rng: &mut Rng, hot: &[Vec<AttrPredicate>]) -> Vec<AttrPredicate> {
    if !rng.coin(4) {
        hot[rng.below(hot.len() as u64) as usize].clone()
    } else {
        conjunction(rng)
    }
}

fn random_attr(rng: &mut Rng) -> Attribute {
    let p = random_pred(rng, false);
    Attribute { name: p.name, value: p.value }
}

/// A boolean tree whose leaves only name defined attributes and
/// permanent collections, so every evaluation order succeeds and the
/// comparison is about answers, not error precedence.
fn random_expr(rng: &mut Rng, depth: u64) -> QueryExpr {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0..=2 if depth < 2 => {
            let mut subs: Vec<QueryExpr> =
                (0..2 + rng.below(2)).map(|_| random_expr(rng, depth + 1)).collect();
            if rng.coin(4) {
                let c = format!("c{}", rng.below(2));
                subs.push(QueryExpr::Static(StaticPredicate::InCollection(c)));
            }
            if rng.coin(2) {
                QueryExpr::And(subs)
            } else {
                QueryExpr::Or(subs)
            }
        }
        3 if depth > 0 && rng.coin(3) => QueryExpr::Attr(random_pred(rng, true)).not(),
        _ => QueryExpr::Attr(random_pred(rng, true)),
    }
}

fn random_spec(rng: &mut Rng) -> FileSpec {
    let mut spec = FileSpec::named(any_file(rng));
    for _ in 0..rng.below(4) {
        let a = random_attr(rng);
        spec = spec.attr(a.name, a.value);
    }
    if rng.coin(3) {
        spec = spec.in_collection(any_coll(rng));
    }
    spec.audit = rng.coin(4);
    spec
}

/// The schema every run starts from.
fn setup() -> Vec<Step> {
    let defs = ATTRS.map(|(name, ty)| Request::DefineAttribute {
        name: name.into(),
        ty,
        description: String::new(),
    });
    let colls = ["c0", "c1"].map(|c| Request::CreateCollection {
        name: c.into(),
        parent: None,
        description: String::new(),
    });
    defs.into_iter().chain(colls).map(call).collect()
}

/// The op mix: the union of what the five twin suites drove before
/// they became this one harness. About a third of the steps are
/// queries, which the vacuity check below relies on.
fn next_step(rng: &mut Rng, hot: &[Vec<AttrPredicate>]) -> Step {
    use Request as Q;
    let request = match rng.below(40) {
        0..=5 => Q::CreateFile { spec: random_spec(rng) },
        // Duplicate names inside a batch exercise the all-or-nothing abort.
        6 => Q::CreateFiles { specs: (0..2 + rng.below(4)).map(|_| random_spec(rng)).collect() },
        // Updates create superseded versions and (under MVCC) stale
        // index entries the reads must not see.
        7..=9 => Q::SetAttribute { object: ObjectRef::File(any_file(rng)), attr: random_attr(rng) },
        10 => {
            let object = ObjectRef::File(any_file(rng));
            if rng.coin(2) {
                Q::GetAttributes { object }
            } else {
                Q::RemoveAttribute { object, name: ATTRS[rng.below(3) as usize].0.into() }
            }
        }
        11 => {
            let name = any_file(rng);
            if rng.coin(2) {
                Q::DeleteFile { name }
            } else {
                Q::InvalidateFile { name }
            }
        }
        12 => {
            let name = any_file(rng);
            let update = FileUpdate {
                valid: Some(!rng.coin(4)),
                data_type: Some(format!("t{}", rng.below(3))),
                ..FileUpdate::default()
            };
            Q::UpdateFile { name, update }
        }
        13..=15 => {
            let name = any_file(rng);
            match rng.below(4) {
                0 => Q::GetFileVersion { name, version: rng.below(3) as i64 },
                1 => Q::GetFileVersions { name },
                _ => Q::GetFile { name },
            }
        }
        16 => {
            let name = any_coll(rng);
            match rng.below(4) {
                0 => Q::CreateCollection { name, parent: None, description: String::new() },
                1 => Q::DeleteCollection { name: "c2".into() },
                2 => Q::GetCollection { name },
                _ => Q::ListCollection { name },
            }
        }
        17 => {
            let file = any_file(rng);
            Q::AssignCollection { file, collection: (!rng.coin(3)).then(|| any_coll(rng)) }
        }
        18 => {
            let view = "v0".to_string();
            let member = ObjectRef::File(any_file(rng));
            match rng.below(5) {
                0 => Q::CreateView { name: view, description: String::new() },
                1 => Q::AddToView { view, member },
                2 => Q::RemoveFromView { view, member },
                3 => Q::ListView { name: view },
                _ => Q::DeleteView { name: view },
            }
        }
        19 => {
            let object = any_object(rng);
            if rng.coin(2) {
                Q::GetAnnotations { object }
            } else {
                Q::Annotate { object, text: format!("note {}", rng.below(4)) }
            }
        }
        20 => {
            let file = any_file(rng);
            if rng.coin(2) {
                Q::GetHistory { file }
            } else {
                Q::AddHistory { file, description: format!("step {}", rng.below(4)) }
            }
        }
        21 => Q::SetAudit { object: any_object(rng), enabled: rng.coin(2) },
        22 => Q::ExplainQuery { preds: conjunction(rng) },
        23 if rng.coin(2) => return Step::Vacuum,
        23 => Q::CatalogInfo,
        // A durability override; the runner follows it with the
        // wait-for-epoch and sync barriers.
        24 => {
            let mode = [DurabilityMode::Always, DurabilityMode::Group, DurabilityMode::Async]
                [rng.below(3) as usize];
            let scope = CallScope { durability: Some(mode), cache_bypass: false };
            return Step::Call(scope, Q::CreateFile { spec: random_spec(rng) });
        }
        25..=35 => Q::QueryByAttributes { preds: random_preds(rng, hot) },
        _ => return Step::Query(random_expr(rng, 0)),
    };
    // Any call may bypass the read cache (a no-op without one).
    Step::Call(CallScope { durability: None, cache_bypass: rng.coin(8) }, request)
}

/// After the run: every file's and collection's state, history and
/// audit trail, plus the topology report.
fn sweep() -> Vec<Step> {
    let files = (0..FILES).map(file_name).flat_map(|name| {
        let object = ObjectRef::File(name.clone());
        [
            Request::GetFile { name: name.clone() },
            Request::GetFileVersions { name: name.clone() },
            Request::GetHistory { file: name },
            Request::GetAttributes { object: object.clone() },
            Request::GetAnnotations { object: object.clone() },
            Request::GetAuditTrail { object },
        ]
    });
    let colls = (0..3).map(|i| format!("c{i}")).flat_map(|name| {
        let object = ObjectRef::Collection(name.clone());
        [Request::ListCollection { name }, Request::GetAuditTrail { object }]
    });
    files
        .chain(colls)
        .chain([Request::ListView { name: "v0".into() }, Request::CatalogInfo])
        .map(call)
        .collect()
}

// ---------- the configuration table ----------

/// One deployment of the catalog, compared against the oracle of its
/// index profile.
struct Config {
    /// Its family, the `#[test]` that runs it, is the name's first word.
    name: &'static str,
    profile: IndexProfile,
    shards: usize,
    mvcc: bool,
    cache: Option<CacheConfig>,
    /// Opened on disk (WAL, fsyncs, background vacuum) instead of in
    /// memory.
    durable: bool,
    /// Also serve it over SOAP and the binary protocol.
    wire: bool,
    seeds: &'static [u64],
}

/// 16 entries over 2 lock shards: steady-state operation constantly
/// evicts and refills.
const TINY_CACHE: Option<CacheConfig> = Some(CacheConfig { capacity: 16, shards: 2 });

const ORACLE: Config = Config {
    name: "oracle",
    profile: IndexProfile::Paper2003,
    shards: 1,
    mvcc: false,
    cache: None,
    durable: false,
    wire: false,
    seeds: &[],
};

const SEEDS: &[u64] = &[42, 0xDEAD_BEEF, 7, 1_000_003];
const PLANNER_SEEDS: &[u64] = &[42, 0x0BAD_C0DE, 7_777_777];
const WIRE_SEEDS: &[u64] = &[42, 0xC0FFEE];
const VI: IndexProfile = IndexProfile::ValueIndexed;

const CONFIGS: &[Config] = &[
    Config { name: "cache", cache: TINY_CACHE, seeds: &[42, 0xDEAD_BEEF, 7], ..ORACLE },
    Config {
        name: "cache-value-indexed",
        profile: VI,
        cache: TINY_CACHE,
        seeds: &[1_000_003, 0x9E37_79B9_7F4A_7C15],
        ..ORACLE
    },
    Config { name: "shard-4", shards: 4, seeds: SEEDS, ..ORACLE },
    Config { name: "mvcc-durable", mvcc: true, durable: true, seeds: SEEDS, ..ORACLE },
    Config { name: "planner", profile: VI, seeds: PLANNER_SEEDS, ..ORACLE },
    Config { name: "planner-mvcc", profile: VI, mvcc: true, seeds: PLANNER_SEEDS, ..ORACLE },
    Config { name: "planner-shard-4", profile: VI, shards: 4, seeds: PLANNER_SEEDS, ..ORACLE },
    Config {
        name: "wire-cache",
        cache: Some(CacheConfig { capacity: 4096, shards: 8 }),
        wire: true,
        seeds: WIRE_SEEDS,
        ..ORACLE
    },
    Config { name: "wire-mvcc", mvcc: true, wire: true, seeds: WIRE_SEEDS, ..ORACLE },
    Config { name: "wire-shard-4", shards: 4, wire: true, seeds: WIRE_SEEDS, ..ORACLE },
    Config {
        name: "all-toggles",
        profile: VI,
        shards: 4,
        mvcc: true,
        cache: TINY_CACHE,
        wire: true,
        seeds: WIRE_SEEDS,
        ..ORACLE
    },
];

// ---------- the runner ----------

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch() -> Scratch {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mcs_twin_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

enum Via {
    Direct,
    Soap(McsClient, McsServer),
    Binary(BinMcsClient, BinServer),
}

/// One catalog under test and the path requests take to it. Fields drop
/// in order: servers, then the catalog, then its directory.
struct Subject {
    name: &'static str,
    via: Via,
    catalog: Arc<ShardedCatalog>,
    planner_bypass: bool,
    _dir: Option<Scratch>,
}

type Outcome = Result<Reply, NetError>;

impl Subject {
    fn open(cfg: &Config, name: &'static str) -> Subject {
        let clock = Arc::new(ManualClock::default());
        let (catalog, dir) = if cfg.durable {
            let dir = scratch();
            let store = StoreConfig {
                cache: cfg.cache,
                shards: cfg.shards,
                mvcc: cfg.mvcc,
                ..StoreConfig::default()
            };
            let c = ShardedCatalog::open(&dir.0, &admin(), cfg.profile, clock, store);
            (c, Some(dir))
        } else {
            let c = ShardedCatalog::in_memory_opts(
                cfg.shards,
                &admin(),
                cfg.profile,
                clock,
                cfg.cache,
                cfg.mvcc,
            );
            (c, None)
        };
        let catalog = Arc::new(catalog.unwrap());
        let via = match name {
            "soap" => {
                let server =
                    McsServer::start_sharded(Arc::clone(&catalog), "127.0.0.1:0", 4).unwrap();
                let opts = TransportOpts { keep_alive: true, simulated_rtt: Duration::ZERO };
                Via::Soap(McsClient::with_opts(server.addr().to_string(), admin(), opts), server)
            }
            "binary" => {
                let server =
                    BinServer::start_sharded(Arc::clone(&catalog), "127.0.0.1:0", 4).unwrap();
                Via::Binary(BinMcsClient::connect(server.addr().to_string(), admin()), server)
            }
            _ => Via::Direct,
        };
        Subject { name, via, catalog, planner_bypass: name == "oracle", _dir: dir }
    }

    fn direct<R>(&self, f: impl FnOnce(&ShardedCatalog) -> R) -> R {
        if self.planner_bypass {
            self.catalog.with_planner_bypass(f)
        } else {
            f(&self.catalog)
        }
    }

    fn call(&mut self, scope: CallScope, req: &Request) -> Outcome {
        fn over<T: Transport>(c: &mut Client<T>, scope: CallScope, req: &Request) -> Outcome {
            c.set_durability(scope.durability);
            c.set_cache_bypass(scope.cache_bypass);
            let response = c.call(req)?;
            Ok(Reply { response, epoch: c.last_epoch(), shard: c.last_shard() })
        }
        match &mut self.via {
            Via::Direct => {
                self.direct(|c| execute(c, &admin(), scope, req.clone())).map_err(NetError::from)
            }
            Via::Soap(c, _) => over(c, scope, req),
            Via::Binary(c, _) => over(c, scope, req),
        }
    }

    /// Perform one step; `None` when it has no result to compare.
    fn run(&mut self, step: &Step) -> Option<Outcome> {
        match step {
            Step::Call(scope, req) => Some(self.call(*scope, req)),
            Step::Query(q) => Some(
                self.direct(|c| c.general_query(&admin(), q))
                    .map(|hits| Reply { response: Response::Hits(hits), epoch: 0, shard: 0 })
                    .map_err(|e| NetError::from(fault_of(e))),
            ),
            Step::Vacuum => {
                for k in 0..self.catalog.shards() {
                    self.catalog.shard(k).database().vacuum();
                }
                None
            }
        }
    }
}

/// A result as the oracle must see it: the configuration's own
/// topology and plans are not the oracle's, and with other shard counts
/// neither are file row ids (collection ids are mirrored from shard 0,
/// so they stay exact).
fn canon(o: &Outcome, redact: bool) -> String {
    fn file(mut f: LogicalFile) -> LogicalFile {
        f.id = 0;
        f
    }
    let id = |ty: ObjectType, id: i64| if ty == ObjectType::File { 0 } else { id };
    let response = match o {
        Err(e) => return format!("Err({e:?})"),
        Ok(reply) => reply.response.clone(),
    };
    let shown = match response {
        Response::CatalogInfo { report, .. } => return format!("{} files", report.files),
        Response::Plan(_) => return "a plan".into(),
        r if !redact => r,
        Response::File(f) => Response::File(file(f)),
        Response::Files(v) => Response::Files(v.into_iter().map(file).collect()),
        Response::Annotations(mut v) => {
            v.iter_mut().for_each(|a| a.object_id = id(a.object_type, a.object_id));
            Response::Annotations(v)
        }
        Response::AuditTrail(mut v) => {
            v.iter_mut().for_each(|a| a.object_id = id(a.object_type, a.object_id));
            Response::AuditTrail(v)
        }
        Response::History(mut v) => {
            v.iter_mut().for_each(|h| h.file_id = 0);
            Response::History(v)
        }
        r => r,
    };
    format!("Ok({shown:?})")
}

/// Feeds one seed's stream to the oracle and a configuration's subjects.
struct Run<'a> {
    cfg: &'a Config,
    seed: u64,
    oracle: Subject,
    subjects: Vec<Subject>,
    queries: usize,
}

impl Run<'_> {
    fn ctx(&self, at: &str, step: &Step, what: &str) -> String {
        format!("seed {}, config {}, {at}: {what}\n  step: {step:?}", self.seed, self.cfg.name)
    }

    /// Perform a step on every subject; they must agree byte for byte,
    /// epoch/shard echo included.
    fn among(&mut self, at: &str, step: &Step) -> Option<Outcome> {
        let got: Vec<Option<Outcome>> = self.subjects.iter_mut().map(|s| s.run(step)).collect();
        for (s, g) in self.subjects.iter().zip(&got).skip(1) {
            let what = format!("{} diverged from {}", s.name, self.subjects[0].name);
            assert_eq!(format!("{g:?}"), format!("{:?}", got[0]), "{}", self.ctx(at, step, &what));
        }
        got.into_iter().next().flatten()
    }

    /// Perform a step on the oracle and the subjects and compare.
    fn check(&mut self, at: &str, step: &Step) {
        let expected = self.oracle.run(step);
        let (Some(expected), Some(got)) = (expected, self.among(at, step)) else { return };
        let redact = self.cfg.shards != 1;
        let (want, have) = (canon(&expected, redact), canon(&got, redact));
        assert_eq!(have, want, "{}", self.ctx(at, step, "diverged from the oracle"));
        match step {
            Step::Query(_) | Step::Call(_, Request::QueryByAttributes { .. }) => self.queries += 1,
            // The explain surface describes every predicate of a
            // well-formed conjunction without executing anything.
            Step::Call(_, Request::ExplainQuery { preds }) => {
                if let Ok(Reply { response: Response::Plan(plan), .. }) = &got {
                    let body = plan.iter().filter(|l| !l.starts_with("scatter")).count();
                    assert_eq!(body, preds.len(), "{}", self.ctx(at, step, "plan/predicate count"));
                }
            }
            // A durability override: its epoch becomes durable on request,
            // and a sync barrier leaves every subject's watermarks equal.
            Step::Call(CallScope { durability: Some(_), .. }, _) => {
                if let Ok(Reply { epoch, shard, .. }) = got {
                    let durable = match self
                        .among(at, &call(Request::WaitForEpoch { epoch, shard }))
                    {
                        Some(Ok(Reply { response: Response::DurableEpoch(d), .. })) => d,
                        other => panic!("{}", self.ctx(at, step, &format!("wait gave {other:?}"))),
                    };
                    assert!(
                        durable >= epoch,
                        "{}",
                        self.ctx(at, step, "watermark below the epoch")
                    );
                }
                self.among(at, &call(Request::SyncNow));
            }
            _ => {}
        }
    }

    /// The properties are vacuous unless the run actually exercised what
    /// the configuration adds.
    fn check_vacuity(&self) {
        let (name, seed) = (self.cfg.name, self.seed);
        let direct = &self.subjects[0].catalog;
        assert!(self.queries >= 100, "seed {seed}, config {name}: only {} queries", self.queries);
        if self.cfg.cache.is_some() {
            let stats = direct.cache_stats().unwrap();
            assert!(stats.hits > 0 && stats.misses > 0, "seed {seed}, config {name}: {stats:?}");
        }
        if self.cfg.mvcc {
            let versions: u64 = (0..direct.shards())
                .map(|k| direct.shard(k).database().wal_stats().versions_created_count())
                .sum();
            assert!(versions > 0, "seed {seed}, config {name}: no superseded version");
        }
        if self.cfg.shards > 1 {
            let per_shard: Vec<usize> =
                (0..direct.shards()).map(|k| direct.shard(k).file_count().unwrap()).collect();
            let populated = per_shard.iter().filter(|&&n| n > 0).count();
            assert!(
                per_shard.iter().sum::<usize>() < 4 || populated >= 2,
                "seed {seed}, config {name}: files per shard {per_shard:?}"
            );
        }
        // After a full vacuum (horizon = everything committed) every store
        // passes the same physical integrity checks.
        for s in std::iter::once(&self.oracle).chain(&self.subjects) {
            for k in 0..s.catalog.shards() {
                let db = s.catalog.shard(k).database();
                db.vacuum();
                for table in ["logical_files", "user_attributes", "logical_collections"] {
                    if let Err(e) = db.table(table).unwrap().read().check_integrity() {
                        panic!("seed {seed}, config {name}: {} shard {k} {table}: {e}", s.name);
                    }
                }
            }
        }
        // Each persistent client held one connection for the whole run,
        // and both issued the same number of requests.
        if let [_, soap, bin] = &self.subjects[..] {
            let (Via::Soap(_, soap), Via::Binary(_, bin)) = (&soap.via, &bin.via) else {
                unreachable!("wire subjects are soap then binary")
            };
            let n = bin.stats().requests.load(std::sync::atomic::Ordering::Relaxed);
            soap.stats().assert_single_connection(n, "SOAP keep-alive client");
            bin.stats().assert_single_connection(n, "binary client");
        }
    }
}

fn check_case(cfg: &Config, seed: u64) {
    eprintln!("twin: config = {}, seed = {seed}", cfg.name);
    let names: &[&str] = if cfg.wire { &["direct", "soap", "binary"] } else { &["direct"] };
    let mut run = Run {
        cfg,
        seed,
        oracle: Subject::open(&Config { profile: cfg.profile, ..ORACLE }, "oracle"),
        subjects: names.iter().map(|n| Subject::open(cfg, n)).collect(),
        queries: 0,
    };
    for (i, step) in setup().iter().enumerate() {
        run.check(&format!("setup step {i}"), step);
    }
    let mut rng = Rng::new(seed);
    let hot: Vec<_> = (0..2).map(|_| vec![random_pred(&mut rng, true)]).collect();
    for i in 0..STEPS {
        run.check(&format!("step {i}"), &next_step(&mut rng, &hot));
    }
    for (i, step) in sweep().iter().enumerate() {
        run.check(&format!("sweep step {i}"), step);
    }
    run.check_vacuity();
}

/// Run every configuration of one family under its seeds, or under the
/// one seed in `MCS_TWIN_SEED` when replaying a failure.
fn run_family(family: &str) {
    let replay = std::env::var("MCS_TWIN_SEED").ok().and_then(|s| s.parse::<u64>().ok());
    for cfg in CONFIGS.iter().filter(|c| c.name.split('-').next() == Some(family)) {
        let seeds = replay.map_or(cfg.seeds.to_vec(), |seed| vec![seed]);
        for seed in seeds {
            check_case(cfg, seed);
        }
    }
}

/// A tiny evicting read cache, on both index profiles (DESIGN.md §7.3).
#[test]
fn cached_catalog_equals_uncached_twin() {
    run_family("cache");
}

/// Four hash-partitioned shards (DESIGN.md §7.4).
#[test]
fn sharded_catalog_equals_single_shard_twin() {
    run_family("shard");
}

/// The MVCC engine, durable so its background vacuum runs mid-run
/// (DESIGN.md §7.5).
#[test]
fn mvcc_catalog_equals_barrier_twin() {
    run_family("mvcc");
}

/// The cost-based planner on the barrier engine, MVCC and 4 shards,
/// against posting scans (DESIGN.md §7.6).
#[test]
fn planner_equals_posting_scan_oracle() {
    run_family("planner");
}

/// SOAP and the binary protocol over the barrier engine with a cache,
/// MVCC and 4 shards (DESIGN.md §7.7).
#[test]
fn binary_protocol_equals_soap() {
    run_family("wire");
}

/// Every toggle at once: value indexes with the planner, a tiny cache,
/// MVCC and 4 shards, over both wires. In memory: a background vacuum
/// would move the index-dive estimates `explainQuery` prints between
/// the subjects.
#[test]
fn all_toggles_equal_the_oracle() {
    run_family("all");
}
