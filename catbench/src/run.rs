//! One benchmark run: deploy the catalog in-process, drive it, check
//! it, and report either the end-to-end metrics or (traced) the
//! per-layer ones.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcs::{Credential, IndexProfile, ManualClock, Mcs, StoreConfig};
use mcs_net::{BinServer, McsServer};
use soapstack::server::ServerStats;
use workload::spec::{ATTR_NAMES, ATTR_TYPES};

use crate::client::{credential, Client};
use crate::metrics::{cpu_us, host_ticks, peak_rss_mb, ratio, Report};
use crate::phase::{closed_loop, Length, Phase};
use crate::trace::Tracer;
use crate::workloads::{
    Keys, Kind, Mix, Op, OpGen, Protocol, Scale, Spec, Workload, CLIENTS, INGEST_BATCH,
};

/// Every `SAMPLE_EVERY`-th operation of a client is traced.
const SAMPLE_EVERY: u64 = 50;
/// Traced operations per kind at least; kinds the mix lacks or rarely
/// draws are topped up by a traced probe of that kind alone.
const MIN_SAMPLES: usize = 200;
/// Operations per kind in the single-client counter pass.
const COUNT_OPS: u64 = 100;
/// `createFiles` batches in the WAL pass and in the direct replay.
const COUNT_BATCHES: u64 = 8;
/// Add+delete pairs per thread in the WAL pass.
const WAL_PAIRS: u64 = 100;
/// Operations of the single-client pass that measures how often the read
/// cache answers a query whole.
const HIT_OPS: u64 = 1_000;
/// The ingest phase runs in this many equal chunks, each on fresh
/// client threads.
const INGEST_CHUNKS: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Directory for the WAL pass's durable catalog and the span file;
    /// created if missing, the catalog removed afterwards.
    pub run_dir: PathBuf,
}

enum Server {
    Bin(BinServer),
    Soap(McsServer),
}

impl Server {
    fn stats(&self) -> &ServerStats {
        match self {
            Server::Bin(s) => s.stats(),
            Server::Soap(s) => s.stats(),
        }
    }
}

/// Removes a directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A catalog, its server and the connected clients. Fields drop in
/// order: clients close their connections, the server joins its
/// workers, then the catalog goes.
struct Deployment {
    clients: Vec<Client>,
    server: Server,
    mcs: Arc<Mcs>,
}

/// Load the catalog `spec` describes, start its server with a worker
/// per client connection, and connect the clients.
fn deploy(spec: &Spec) -> Deployment {
    let mcs = workload::build_catalog_with(spec.files, IndexProfile::ValueIndexed, spec.cache).mcs;
    let bind = "127.0.0.1:0";
    let server = match spec.protocol {
        Protocol::Bin => {
            Server::Bin(BinServer::start(Arc::clone(&mcs), bind, CLIENTS).expect("start server"))
        }
        Protocol::Soap => {
            Server::Soap(McsServer::start(Arc::clone(&mcs), bind, CLIENTS).expect("start server"))
        }
    };
    let addr = match &server {
        Server::Bin(s) => s.addr(),
        Server::Soap(s) => s.addr(),
    }
    .to_string();
    let clients = (0..CLIENTS)
        .map(|k| Client::connect(spec.protocol, &addr, k))
        .collect();
    Deployment {
        clients,
        server,
        mcs,
    }
}

/// WAL counts of the workload's writes: `CLIENTS` threads each run
/// `WAL_PAIRS` add+delete pairs, then `COUNT_BATCHES` `createFiles`
/// batches between them, as direct calls against a fresh durable catalog
/// in `dir` with the default store configuration (sync on every commit).
/// Returns `(syncs per commit, groups per batch write, WAL bytes per
/// ingested file)` and adds the calls to `total`.
fn wal_pass(spec: &Spec, keys: &Arc<Keys>, seed: u64, dir: &Path, total: &mut Phase) -> [f64; 3] {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL pass directory");
    let _guard = DirGuard(dir.to_path_buf());
    let admin = Credential::new(workload::ADMIN_DN);
    let clock = Arc::new(ManualClock::default());
    let mcs = Mcs::open_durable(
        dir,
        &admin,
        IndexProfile::ValueIndexed,
        clock,
        StoreConfig::default(),
    )
    .expect("open durable catalog");
    mcs.allow_anyone(&admin).expect("open service");
    for (a, name) in ATTR_NAMES.iter().enumerate() {
        mcs.define_attribute(&admin, name, ATTR_TYPES[a], "evaluation workload attribute")
            .expect("define attribute");
    }
    let wal_file = dir.join(relstore::wal::WAL_FILE);
    let size = || std::fs::metadata(&wal_file).map_or(0, |m| m.len());
    let adds = Mix::only(Kind::Add);
    let w0 = wal_counts(&mcs);
    let pairs_ok = direct_loop(
        &mcs,
        gens(spec, keys, adds, seed, "wal-add", CLIENTS),
        OpGen::next_op,
        WAL_PAIRS,
    );
    let bytes0 = size();
    let per_client = COUNT_BATCHES / CLIENTS as u64;
    let batches_ok = direct_loop(
        &mcs,
        gens(spec, keys, adds, seed, "wal-ingest", CLIENTS),
        OpGen::next_batch,
        per_client,
    );
    let bytes = size() - bytes0;
    let w1 = wal_counts(&mcs);
    let attempted = CLIENTS as u64 * (WAL_PAIRS + per_client);
    total.attempted += attempted;
    total.failed += attempted - pairs_ok - batches_ok;
    let files = batches_ok * INGEST_BATCH as u64;
    let [syncs, groups, writes] = [0, 1, 2].map(|i| (w1[i] - w0[i]) as f64);
    [
        ratio(syncs, groups),
        ratio(groups, writes),
        ratio(bytes as f64, files as f64),
    ]
}

/// Each request stream in `gens` gets a thread that sends `n` of its
/// writes straight to `mcs`, as client `k`. Returns how many were
/// answered correctly.
fn direct_loop(mcs: &Mcs, gens: Vec<OpGen>, next: fn(&mut OpGen) -> Op, n: u64) -> u64 {
    std::thread::scope(|s| {
        let threads: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(k, mut gen)| {
                s.spawn(move || {
                    let cred = credential(k);
                    let write = |op: Op| match op {
                        Op::Add(f) => {
                            mcs.create_file(&cred, &f).is_ok_and(|g| g.name == f.name)
                                && mcs.delete_file(&cred, &f.name).is_ok()
                        }
                        Op::Ingest(fs) => mcs.create_files(&cred, &fs).is_ok_and(|got| {
                            got.len() == fs.len()
                                && got.iter().zip(&fs).all(|(g, f)| g.name == f.name)
                        }),
                        Op::Simple(_) | Op::Complex(_) => unreachable!("the WAL pass only writes"),
                    };
                    (0..n).filter(|_| write(next(&mut gen))).count() as u64
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("WAL pass thread panicked"))
            .sum()
    })
}

/// Share of the simple and of the complex queries (indexed by
/// `Kind::idx`) that the read cache answers whole: no cache lookup of the
/// call misses. One client runs the workload's own mix alone for
/// `HIT_OPS` operations, so each call's cache counter deltas are its own.
/// 0 when the cache is off.
fn cache_hit_shares(
    dep: &mut Deployment,
    spec: &Spec,
    keys: &Arc<Keys>,
    seed: u64,
    total: &mut Phase,
) -> [f64; 2] {
    let mut hits = [0u64; 2];
    let mut seen = [0u64; 2];
    let mut gen = OpGen::new(spec, keys, spec.mix, seed, "hits", 0);
    for _ in 0..HIT_OPS {
        let op = gen.next_op();
        let before = dep.mcs.cache_stats();
        let ok = dep.clients[0].run(&op);
        let after = dep.mcs.cache_stats();
        total.attempted += 1;
        total.failed += u64::from(!ok);
        let k = op.kind().idx();
        if let (true, Some(b), Some(a)) = (ok && k < 2, before, after) {
            seen[k] += 1;
            hits[k] += u64::from(a.misses == b.misses);
        }
    }
    [0, 1].map(|k| ratio(hits[k] as f64, seen[k] as f64))
}

/// One request stream per client for the phase named `phase`.
fn gens(spec: &Spec, keys: &Arc<Keys>, mix: Mix, seed: u64, phase: &str, n: usize) -> Vec<OpGen> {
    (0..n)
        .map(|k| OpGen::new(spec, keys, mix, seed, phase, k))
        .collect()
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Report {
    let spec = opts.workload.spec(opts.scale);
    let keys = Keys::new(&spec, opts.seed);
    std::fs::create_dir_all(&opts.run_dir).expect("create run directory");
    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} seed {} seconds {} trace {}: {} files, {:?} protocol, cache {}, {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        spec.files,
        spec.protocol,
        spec.cache
            .map_or("off".to_string(), |c| format!("{} entries", c.capacity)),
        if spec.wal_pass {
            "in memory; WAL pass on a durable copy when traced"
        } else {
            "in memory"
        },
    ));
    report.notes.push(format!(
        "closed loop, window 1: {CLIENTS} clients on {CLIENTS} persistent connections; \
         server pool {} workers; {} CPUs",
        CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let host0 = host_ticks();
    if opts.trace {
        traced(&spec, opts, &keys, &mut report);
    } else {
        end_to_end(&spec, opts, &keys, &mut report);
    }
    let host = host_ticks();
    let all = (host[2] - host0[2]) as f64;
    report.notes.push(format!(
        "host over the run: steal {:.3}, busy {:.3} of all CPU time",
        ratio((host[0] - host0[0]) as f64, all),
        ratio((host[1] - host0[1]) as f64, all),
    ));
    report
}

/// Deploy and warm up: the unit `setup_s` times.
fn set_up(spec: &Spec, opts: &Options, keys: &Arc<Keys>, tag: &str) -> (Deployment, Phase) {
    let mut dep = deploy(spec);
    let warm = closed_loop(
        &mut dep.clients,
        gens(spec, keys, spec.mix, opts.seed, tag, CLIENTS),
        OpGen::next_op,
        Length::Ops(spec.warmup_ops),
        None,
    );
    (dep, warm)
}

/// Check the catalog holds exactly the loaded files plus `landed`.
fn check_size(dep: &Deployment, spec: &Spec, landed: u64, report: &mut Report) {
    let want = spec.files + landed;
    match dep.mcs.file_count() {
        Ok(n) if n as u64 == want => {}
        other => report
            .errors
            .push(format!("catalog holds {other:?} files, expected {want}")),
    }
}

fn end_to_end(spec: &Spec, opts: &Options, keys: &Arc<Keys>, report: &mut Report) {
    let mut total = Phase::default();
    let mut setup_s = Vec::new();
    let mut timed_set_up = |k: usize, total: &mut Phase| {
        let t = Instant::now();
        let (d, warm) = set_up(spec, opts, keys, &format!("warm{k}"));
        setup_s.push(t.elapsed().as_secs_f64());
        total.count(&warm);
        d
    };
    // Measure on the first deployment. The other set-ups come after the
    // measurements: freeing a catalog of this size leaves the kernel
    // reclaiming memory for a while, which would slow what follows.
    let mut dep = timed_set_up(0, &mut total);

    let main = closed_loop(
        &mut dep.clients,
        gens(spec, keys, spec.mix, opts.seed, "main", CLIENTS),
        OpGen::next_op,
        Length::For(Duration::from_secs_f64(opts.seconds)),
        None,
    );
    total.count(&main);
    // Kinds the mix lacks are timed by a fixed-length probe on the same
    // deployment and connections, after the measured phase.
    let mut probes = Vec::new();
    for kind in Kind::PAPER.into_iter().filter(|&k| spec.mix.share(k) == 0) {
        let probe = closed_loop(
            &mut dep.clients,
            gens(
                spec,
                keys,
                Mix::only(kind),
                opts.seed,
                &format!("probe-{}", kind.name()),
                CLIENTS,
            ),
            OpGen::next_op,
            Length::For(opts.scale.probe()),
            None,
        );
        total.count(&probe);
        probes.push((kind, probe));
    }
    // Ingest in equal chunks; the rate counts every chunk.
    let batches = (spec.ingest_files / INGEST_BATCH / CLIENTS / INGEST_CHUNKS) as u64;
    let mut ingest_wall = Duration::ZERO;
    let mut landed = 0;
    for c in 0..INGEST_CHUNKS {
        let chunk = closed_loop(
            &mut dep.clients,
            gens(
                spec,
                keys,
                spec.mix,
                opts.seed,
                &format!("ingest{c}"),
                CLIENTS,
            ),
            OpGen::next_batch,
            Length::Ops(batches),
            None,
        );
        total.count(&chunk);
        let files = chunk.ok * INGEST_BATCH as u64;
        landed += files;
        ingest_wall += chunk.wall();
    }
    check_size(&dep, spec, landed, report);

    report.put("ops_per_s", main.ops_per_s(), "ops/s");
    for kind in Kind::PAPER {
        let phase = probes
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(&main, |(_, p)| p);
        let n = phase.samples(kind);
        // p99 is printed but not gated: see `NOTES.md`, "Steadiness".
        for p in [50, 99] {
            let v = phase.percentile_us(kind, f64::from(p));
            report.put_latency(&format!("{}_p{p}_us", kind.name()), v, n, p == 50);
        }
    }
    report.put(
        "ingest_files_per_s",
        ratio(landed as f64, ingest_wall.as_secs_f64()),
        "files/s",
    );
    drop(dep);
    for k in 1..spec.setups {
        drop(timed_set_up(k, &mut total));
    }
    report.put("setup_s", crate::metrics::median(&setup_s), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.attempted = total.attempted;
    report.failed = total.failed;
    let rates: Vec<String> = main
        .round_rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    report.notes.push(format!(
        "measured phase, ops/s of each round in order: {}",
        rates.join(" ")
    ));
    report.notes.push(format!(
        "setup_s samples {setup_s:?}; ingest {landed} files in batches of {INGEST_BATCH}"
    ));
}

/// Statements executed by the storage engine so far.
fn statements(mcs: &Mcs) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let s = &mcs.database().stats;
    s.selects.load(Relaxed)
        + s.inserts.load(Relaxed)
        + s.updates.load(Relaxed)
        + s.deletes.load(Relaxed)
}

/// `(syncs, transaction groups, batch writes)` of the WAL so far.
fn wal_counts(mcs: &Mcs) -> [u64; 3] {
    let w = mcs.database().wal_stats();
    [w.sync_count(), w.group_commit_count(), w.batch_count()]
}

fn traced(spec: &Spec, opts: &Options, keys: &Arc<Keys>, report: &mut Report) {
    let epoch = Instant::now();
    let (mut dep, warm) = set_up(spec, opts, keys, "warm");
    let mut total = Phase::default();
    total.count(&warm);
    let half = Length::For(Duration::from_secs_f64(opts.seconds / 2.0));

    // Untraced half: the baseline for the tracing overhead, and the
    // phase the process, cache and connection counters cover.
    let cache0 = dep.mcs.cache_stats().unwrap_or_default();
    let cpu0 = cpu_us();
    let untraced = closed_loop(
        &mut dep.clients,
        gens(spec, keys, spec.mix, opts.seed, "untraced", CLIENTS),
        OpGen::next_op,
        half,
        None,
    );
    let cpu = cpu_us() - cpu0;
    let cache1 = dep.mcs.cache_stats().unwrap_or_default();
    let stats = dep.server.stats();
    let (conns, reqs) = {
        use std::sync::atomic::Ordering::Relaxed;
        (
            stats.connections.load(Relaxed),
            stats.requests.load(Relaxed),
        )
    };
    total.count(&untraced);
    // How often the cache answers a query whole weights the replays of
    // the cached and the uncached catalog path (see `trace`).
    let hit_shares = cache_hit_shares(&mut dep, spec, keys, opts.seed, &mut total);

    // Traced half: the same mix, every SAMPLE_EVERY-th op replayed.
    let tracer = Tracer::new(&dep.mcs, spec.protocol);
    let mut traced_phase = closed_loop(
        &mut dep.clients,
        gens(spec, keys, spec.mix, opts.seed, "traced", CLIENTS),
        OpGen::next_op,
        half,
        Some((&tracer, SAMPLE_EVERY)),
    );
    total.count(&traced_phase);
    let mut log = std::mem::take(&mut traced_phase.spans);
    for kind in Kind::PAPER {
        let have = log
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.kind == kind)
            .count();
        if have >= MIN_SAMPLES {
            continue;
        }
        let probe = closed_loop(
            &mut dep.clients,
            gens(
                spec,
                keys,
                Mix::only(kind),
                opts.seed,
                &format!("tprobe-{}", kind.name()),
                CLIENTS,
            ),
            OpGen::next_op,
            // Sampled as sparsely as the traced half, so a live call does
            // not wait behind the other client's replays.
            Length::Ops(((MIN_SAMPLES - have) as u64 * SAMPLE_EVERY).div_ceil(CLIENTS as u64)),
            Some((&tracer, SAMPLE_EVERY)),
        );
        total.count(&probe);
        log.append(probe.spans);
    }
    tracer.replay_batches(&mut log, COUNT_BATCHES as usize, spec.attr_base());
    total.attempted += log.attempted;
    total.failed += log.failed;

    // Counter pass: one client, reads bypassing the cache, so the
    // counts depend on the inputs alone and repeat exactly.
    let mut counts = Vec::new();
    dep.clients[0].set_cache_bypass(true);
    for kind in Kind::PAPER {
        let s0 = statements(&dep.mcs);
        let p = closed_loop(
            &mut dep.clients[..1],
            gens(
                spec,
                keys,
                Mix::only(kind),
                opts.seed,
                &format!("count-{}", kind.name()),
                1,
            ),
            OpGen::next_op,
            Length::Ops(COUNT_OPS),
            None,
        );
        total.count(&p);
        counts.push((kind, (statements(&dep.mcs) - s0) as f64 / COUNT_OPS as f64));
    }
    dep.clients[0].set_cache_bypass(false);
    check_size(&dep, spec, 0, report);
    // The deployment is in memory; a write workload's WAL counts come
    // from the same writes against a durable copy.
    let wal = if spec.wal_pass {
        let dir = opts.run_dir.join(format!("wal-{}", std::process::id()));
        wal_pass(spec, keys, opts.seed, &dir, &mut total)
    } else {
        [0.0; 3]
    };

    // Per-layer metrics, in BENCHMARK.json order.
    report.attempted = total.attempted;
    report.failed = total.failed;
    for (name, value, unit) in tracer.layer_metrics(&log, hit_shares) {
        report.put(name, value, unit);
    }
    report.put(
        "net.connections_per_request",
        ratio(conns as f64, reqs as f64),
        "ratio",
    );
    let lookups = (cache1.hits + cache1.misses - cache0.hits - cache0.misses) as f64;
    report.put(
        "mcs.cache.hit_ratio",
        ratio((cache1.hits - cache0.hits) as f64, lookups),
        "ratio",
    );
    report.put(
        "mcs.cache.stale_ratio",
        ratio((cache1.stale - cache0.stale) as f64, lookups),
        "ratio",
    );
    report.put(
        "mcs.cache.evictions_per_op",
        ratio(
            (cache1.evictions - cache0.evictions) as f64,
            untraced.ok as f64,
        ),
        "ratio",
    );
    for kind in [Kind::Simple, Kind::Complex] {
        report.put(
            format!("mcs.cache.result_hit_ratio.{}", kind.name()),
            hit_shares[kind.idx()],
            "ratio",
        );
    }
    for (kind, per_op) in counts {
        report.put(
            format!("relstore.stmts_per_op.{}", kind.name()),
            per_op,
            "count",
        );
    }
    report.put("relstore.wal.syncs_per_commit", wal[0], "ratio");
    report.put("relstore.wal.groups_per_batch", wal[1], "ratio");
    report.put("relstore.wal.bytes_per_file", wal[2], "B");
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    report.put(
        "process.cpu_us_per_op",
        ratio(cpu, untraced.ok as f64),
        "us",
    );
    report.put(
        "process.cpu_util",
        ratio(cpu / 1e6, untraced.wall().as_secs_f64() * ncpu),
        "ratio",
    );
    report.put("trace.untraced_ops_per_s", untraced.ops_per_s(), "ops/s");
    report.put("trace.traced_ops_per_s", traced_phase.ops_per_s(), "ops/s");
    report.put(
        "trace.overhead_ops_per_s",
        untraced.ops_per_s() - traced_phase.ops_per_s(),
        "ops/s",
    );
    let sampled = log.spans.iter().filter(|s| s.parent == 0).count();
    report.put("trace.sampled_ops", sampled as f64, "count");

    let span_file = opts.run_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match log.write_jsonl(&span_file, epoch) {
        Ok(()) => report.notes.push(format!(
            "{} spans of {sampled} operations written to {}",
            log.spans.len(),
            span_file.display()
        )),
        Err(e) => report.errors.push(format!("writing spans: {e}")),
    }
}
