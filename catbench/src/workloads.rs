//! The three workloads, their sizes, and the operations they generate.
//!
//! Every input is a function of the seed: which files the clients ask
//! for, the hot set, and the names of the files they add. The catalog
//! contents themselves are the paper's §7 layout (`workload::spec`):
//! file `i` is `lfn.<i>.dat` with ten typed attributes derived from `i`.

use std::sync::Arc;
use std::time::Duration;

use mcs::{AttrPredicate, CacheConfig, FileSpec};
use workload::spec;

use crate::rng::Rng;

/// Closed-loop clients, each on its own persistent connection. The
/// servers pin a pool worker per connection, so the pool gets this many
/// workers: with fewer, a connection would stall for the server's read
/// timeout. No run opens more connections than this.
pub const CLIENTS: usize = 2;

/// Files per `createFiles` batch in the ingest phase.
pub const INGEST_BATCH: usize = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only discovery mix over the binary protocol, uniform keys
    /// over a 100 k-file catalog (working set far above the cache).
    Discover,
    /// Add+delete pairs and batched ingest over the binary protocol: the
    /// commit and index-maintenance paths, with WAL counts traced.
    Publish,
    /// The paper's three operations over SOAP keep-alive, reads beside
    /// writes, with a hot set that fits in the cache.
    SoapMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Discover, Workload::Publish, Workload::SoapMixed];

    /// The workload named `s` on the command line.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Discover => "discover",
            Workload::Publish => "publish",
            Workload::SoapMixed => "soap-mixed",
        }
    }

    /// The workload's deployment and inputs at `scale`.
    pub fn spec(self, scale: Scale) -> Spec {
        let full = scale == Scale::Full;
        let pick = |f: u64, t: u64| if full { f } else { t };
        let cache = Some(CacheConfig {
            capacity: 16_384,
            shards: 8,
        });
        match self {
            Workload::Discover => Spec {
                workload: self,
                protocol: Protocol::Bin,
                files: pick(100_000, 3_000),
                wal_pass: false,
                cache,
                mix: Mix {
                    simple: 50,
                    complex: 50,
                    add: 0,
                },
                hot: None,
                ingest_files: pick(32_768, 1_024) as usize,
                setups: 2,
                warmup_ops: pick(2_000, 50),
            },
            Workload::Publish => Spec {
                workload: self,
                protocol: Protocol::Bin,
                files: pick(20_000, 2_000),
                wal_pass: true,
                cache: None,
                mix: Mix {
                    simple: 0,
                    complex: 0,
                    add: 100,
                },
                hot: None,
                ingest_files: pick(32_768, 1_024) as usize,
                setups: pick(3, 2) as usize,
                warmup_ops: pick(500, 20),
            },
            Workload::SoapMixed => Spec {
                workload: self,
                protocol: Protocol::Soap,
                files: pick(100_000, 3_000),
                wal_pass: false,
                cache,
                mix: Mix {
                    simple: 60,
                    complex: 30,
                    add: 10,
                },
                hot: Some(HotSet {
                    files: pick(2_000, 100),
                    share_pct: 90,
                }),
                ingest_files: pick(32_768, 1_024) as usize,
                setups: 2,
                warmup_ops: pick(2_000, 50),
            },
        }
    }
}

/// Catalog size and run lengths: the real benchmark, or a tiny one for
/// the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes the benchmark is defined at.
    Full,
    /// A few thousand files and a few hundred operations.
    Tiny,
}

impl Scale {
    /// Closed loop for each operation kind a workload's mix lacks.
    pub fn probe(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(4),
            Scale::Tiny => Duration::from_millis(100),
        }
    }
}

/// Which wire the clients speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// `mcs_net::binproto`, one request in flight per connection.
    Bin,
    /// SOAP over HTTP/1.1 keep-alive.
    Soap,
}

/// Operation mix in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// `getFile` by logical name.
    pub simple: u32,
    /// `queryByAttributes` on all ten attributes.
    pub complex: u32,
    /// `createFile` then `deleteFile`.
    pub add: u32,
}

impl Mix {
    /// Share of `kind` in percent.
    pub fn share(&self, kind: Kind) -> u32 {
        match kind {
            Kind::Simple => self.simple,
            Kind::Complex => self.complex,
            Kind::Add => self.add,
            Kind::Ingest => 0,
        }
    }

    /// A mix of `kind` alone.
    pub fn only(kind: Kind) -> Mix {
        let mut m = Mix {
            simple: 0,
            complex: 0,
            add: 0,
        };
        match kind {
            Kind::Simple => m.simple = 100,
            Kind::Complex => m.complex = 100,
            Kind::Add | Kind::Ingest => m.add = 100,
        }
        m
    }
}

/// A skewed key distribution: `share_pct` of lookups go to `files`
/// seeded-random catalog files.
#[derive(Debug, Clone, Copy)]
pub struct HotSet {
    /// Hot files.
    pub files: u64,
    /// Percent of lookups that go to the hot set.
    pub share_pct: u32,
}

/// Everything that defines one workload's run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Client wire.
    pub protocol: Protocol,
    /// Files loaded before measuring.
    pub files: u64,
    /// The traced run also replays the workload's writes against a
    /// durable catalog with the default `StoreConfig`, for WAL counts.
    pub wal_pass: bool,
    /// Read cache, if on.
    pub cache: Option<CacheConfig>,
    /// Closed-loop operation mix of the measured phase.
    pub mix: Mix,
    /// Key skew (uniform when `None`).
    pub hot: Option<HotSet>,
    /// Files landed by the ingest phase.
    pub ingest_files: usize,
    /// Set-ups per end-to-end run (`setup_s` is their median).
    pub setups: usize,
    /// Warm-up operations per client, part of each set-up.
    pub warmup_ops: u64,
}

impl Spec {
    /// First attribute index for files the benchmark adds: at or above
    /// every loaded file's collection block, so a complex query for a
    /// loaded file (attributes 2 and 3 pin its index) never matches one.
    pub fn attr_base(&self) -> u64 {
        self.files.div_ceil(spec::FILES_PER_COLLECTION) * spec::FILES_PER_COLLECTION
    }
}

/// An operation kind; the index of its latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `getFile`.
    Simple,
    /// `queryByAttributes` with ten equalities.
    Complex,
    /// `createFile` + `deleteFile`.
    Add,
    /// One `createFiles` batch.
    Ingest,
}

impl Kind {
    /// The three paper operations.
    pub const PAPER: [Kind; 3] = [Kind::Simple, Kind::Complex, Kind::Add];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Simple => "simple",
            Kind::Complex => "complex",
            Kind::Add => "add",
            Kind::Ingest => "ingest",
        }
    }

    /// Dense index.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Look up loaded file `i` by name.
    Simple(u64),
    /// Query loaded file `i`'s ten attributes.
    Complex(u64),
    /// Add this file, then delete it.
    Add(FileSpec),
    /// Land these files in one `createFiles` call.
    Ingest(Vec<FileSpec>),
}

impl Op {
    /// Its kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Simple(_) => Kind::Simple,
            Op::Complex(_) => Kind::Complex,
            Op::Add(_) => Kind::Add,
            Op::Ingest(_) => Kind::Ingest,
        }
    }
}

/// The ten-attribute query for loaded file `i`, whose only answer is
/// `[(file_name(i), 1)]`.
pub fn complex_query(i: u64) -> Vec<AttrPredicate> {
    spec::complex_query(i, 10)
}

/// A file spec with the ten workload attributes of index `attr_index`.
pub fn file_spec(name: String, attr_index: u64) -> FileSpec {
    let mut s = FileSpec::named(name);
    s.attributes = spec::attributes_of(attr_index);
    s
}

/// The files lookups are drawn from, shared by all clients of a run.
pub struct Keys {
    files: u64,
    hot: Vec<u64>,
    hot_pct: u32,
}

impl Keys {
    /// Keys for `spec` under `seed`; the hot set is a seeded sample.
    pub fn new(spec: &Spec, seed: u64) -> Arc<Keys> {
        let mut hot = Vec::new();
        let mut hot_pct = 0;
        if let Some(h) = spec.hot {
            let mut rng = Rng::new(seed, 0x407);
            let mut seen = std::collections::HashSet::new();
            while (hot.len() as u64) < h.files.min(spec.files) {
                let i = rng.below(spec.files);
                if seen.insert(i) {
                    hot.push(i);
                }
            }
            hot_pct = h.share_pct;
        }
        Arc::new(Keys {
            files: spec.files,
            hot,
            hot_pct,
        })
    }

    fn draw(&self, rng: &mut Rng) -> u64 {
        if !self.hot.is_empty() && rng.below(100) < u64::from(self.hot_pct) {
            self.hot[rng.below(self.hot.len() as u64) as usize]
        } else {
            rng.below(self.files)
        }
    }
}

/// A client's request stream for one phase.
pub struct OpGen {
    rng: Rng,
    mix: Mix,
    keys: Arc<Keys>,
    /// Prefix of added file names: unique per phase and client.
    prefix: String,
    attr_base: u64,
    seq: u64,
}

impl OpGen {
    /// The stream of `client` in the phase named `phase` (part of every
    /// added file's name, so phases never collide).
    pub fn new(
        spec: &Spec,
        keys: &Arc<Keys>,
        mix: Mix,
        seed: u64,
        phase: &str,
        client: usize,
    ) -> OpGen {
        let salt = phase
            .bytes()
            .fold(client as u64 + 1, |h, b| h.wrapping_mul(31) ^ u64::from(b));
        OpGen {
            rng: Rng::new(seed, salt),
            mix,
            keys: Arc::clone(keys),
            prefix: format!("catbench.{phase}.c{client}"),
            attr_base: spec.attr_base(),
            seq: 0,
        }
    }

    /// Next request.
    pub fn next_op(&mut self) -> Op {
        self.seq += 1;
        let roll = self.rng.below(100) as u32;
        if roll < self.mix.simple {
            Op::Simple(self.keys.draw(&mut self.rng))
        } else if roll < self.mix.simple + self.mix.complex {
            Op::Complex(self.keys.draw(&mut self.rng))
        } else {
            let name = format!("{}.{:010}.dat", self.prefix, self.seq);
            Op::Add(file_spec(
                name,
                self.attr_base + self.rng.below(self.keys.files.max(1)),
            ))
        }
    }

    /// Next `createFiles` batch of [`INGEST_BATCH`] new files.
    pub fn next_batch(&mut self) -> Op {
        self.seq += 1;
        let specs = (0..INGEST_BATCH)
            .map(|j| {
                let name = format!("{}.{:06}.{j:02}.dat", self.prefix, self.seq);
                file_spec(
                    name,
                    self.attr_base + self.rng.below(self.keys.files.max(1)),
                )
            })
            .collect();
        Op::Ingest(specs)
    }
}
