//! Spans around the benchmark's own calls into each layer.
//!
//! For a sample of live operations, the tracer times the live call
//! (`net.rpc`) and then replays the same operation through each layer's
//! public functions: the binary codec, the SOAP codec and XML parser,
//! the SOAP dispatcher without a socket, the catalog itself, its planner
//! and the storage engine's name index. Every timed call is a span with
//! a name, a start, an end, its parent (the operation's root span) and
//! the operation's id. Spans stay in memory until the run writes them
//! out. Replayed writes use names of their own and are deleted again.
//!
//! The live call has just filled the read cache for its key, so a plain
//! replay of a query would always hit the cache, whether or not the live
//! call did. Queries that reach the catalog (`mcs.*` and
//! `soapstack.handle`) are therefore replayed twice when the cache is
//! on: as is (`*.cached`, the hit path) and inside
//! `Mcs::with_cache_bypass` (`*.uncached`, the planner and index path).
//! A layer's time for the operation weights the two by how often the
//! cache answers a query of that kind whole, which the run measures
//! apart (`run::cache_hit_shares`).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcs::{Credential, LogicalFile, Mcs, ShardedCatalog};
use mcs_net::binproto::frame::{self, FrameError, Reader};
use mcs_net::wire;
use relstore::{Prepared, Value};
use soapstack::server::{Handler, SoapDispatcher};
use soapstack::{soap, Element, Request, Response};
use workload::spec::file_name;

use crate::metrics::median;
use crate::workloads::{complex_query, file_spec, Kind, Op, Protocol, INGEST_BATCH};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `soapstack.handle`; roots are `op`.
    pub name: &'static str,
    /// Kind of the operation the span belongs to.
    pub kind: Kind,
    /// Operation id, shared by all spans of one operation.
    pub op: u64,
    /// Span id.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

/// Spans and per-operation byte counts of one client (or of the run).
#[derive(Default)]
pub struct SpanLog {
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// `(codec, kind, bytes)`: request plus response size of one
    /// replayed operation on each wire codec.
    pub bytes: Vec<(&'static str, Kind, u64)>,
    /// Replays whose answer was wrong.
    pub failed: u64,
    /// Replays made.
    pub attempted: u64,
}

impl SpanLog {
    /// Move `other`'s records into this log.
    pub fn append(&mut self, mut other: SpanLog) {
        self.spans.append(&mut other.spans);
        self.bytes.append(&mut other.bytes);
        self.failed += other.failed;
        self.attempted += other.attempted;
    }

    /// Write every span as one JSON object per line, times in ns from
    /// `epoch`.
    pub fn write_jsonl(&self, path: &std::path::Path, epoch: Instant) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"kind\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.id,
                s.parent,
                s.name,
                s.kind.name(),
                s.start.saturating_duration_since(epoch).as_nanos(),
                s.end.saturating_duration_since(epoch).as_nanos()
            )?;
        }
        w.flush()
    }
}

/// Children of one operation's root span, recorded in order.
struct OpSpans<'a> {
    log: &'a mut SpanLog,
    kind: Kind,
    op: u64,
    n: u64,
    ok: bool,
}

impl OpSpans<'_> {
    fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.n += 1;
        let (op, kind) = (self.op, self.kind);
        self.log.spans.push(Span {
            name,
            kind,
            op,
            id: op << 8 | self.n,
            parent: op << 8,
            start,
            end,
        });
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        self.push(name, start, Instant::now());
        r
    }

    fn check(&mut self, ok: bool) {
        self.ok &= ok;
    }

    fn bytes(&mut self, codec: &'static str, n: usize) {
        self.log.bytes.push((codec, self.kind, n as u64));
    }
}

/// Replays sampled operations through every layer.
pub struct Tracer {
    protocol: Protocol,
    mcs: Arc<Mcs>,
    dispatcher: SoapDispatcher,
    lookup: Prepared,
    cred: Credential,
    next_op: AtomicU64,
}

type FrameResult<T> = Result<T, FrameError>;

impl Tracer {
    /// A tracer over the catalog the server serves.
    pub fn new(mcs: &Arc<Mcs>, protocol: Protocol) -> Tracer {
        let mut dispatcher = SoapDispatcher::new();
        mcs_net::register_methods(
            &mut dispatcher,
            Arc::new(ShardedCatalog::from_single(Arc::clone(mcs))),
        );
        let lookup = mcs
            .database()
            .prepare("SELECT * FROM logical_files WHERE name = ?")
            .expect("prepare name lookup");
        Tracer {
            protocol,
            mcs: Arc::clone(mcs),
            dispatcher,
            lookup,
            cred: Credential::new("/O=Grid/OU=catbench/CN=replay"),
            next_op: AtomicU64::new(1),
        }
    }

    /// Record the live call of `op` (from `t0` to `t1`) and replay it
    /// through the layers, all under one root span.
    pub fn sample(&self, log: &mut SpanLog, op: &Op, t0: Instant, t1: Instant) {
        let id = self.next_op.fetch_add(1, Ordering::Relaxed);
        let kind = op.kind();
        let first = log.spans.len();
        let mut sp = OpSpans {
            log,
            kind,
            op: id,
            n: 0,
            ok: true,
        };
        sp.push("net.rpc", t0, t1);
        match op {
            Op::Simple(i) => self.replay_simple(&mut sp, *i),
            Op::Complex(i) => self.replay_complex(&mut sp, *i),
            Op::Add(spec) => self.replay_add(&mut sp, spec, id),
            Op::Ingest(_) => unreachable!("ingest batches are not sampled"),
        }
        let ok = sp.ok;
        let end = Instant::now();
        log.attempted += 1;
        log.failed += u64::from(!ok);
        let root = Span {
            name: "op",
            kind,
            op: id,
            id: id << 8,
            parent: 0,
            start: t0,
            end,
        };
        log.spans.insert(first, root);
    }

    fn soap_request(&self, method: &str, args: Vec<Element>) -> String {
        let mut a = Element::new("a").child(wire::credential_el(&self.cred));
        for c in args {
            a = a.child(c);
        }
        soap::encode_request(method, a)
    }

    /// Time the read `f` as span `uncached` with the read cache bypassed
    /// and, first, when the cache is on, as span `cached`. Returns the
    /// answers in that order.
    fn both_paths<R>(
        &self,
        sp: &mut OpSpans,
        [cached, uncached]: [&'static str; 2],
        f: impl Fn() -> R,
    ) -> (Option<R>, R) {
        let hit = self.mcs.cache_enabled().then(|| sp.time(cached, &f));
        let miss = sp.time(uncached, || self.mcs.with_cache_bypass(|_| f()));
        (hit, miss)
    }

    fn soap_post(body: &str) -> Request {
        Request::post("/mcs", "text/xml; charset=utf-8", body.as_bytes().to_vec())
    }

    /// Dispatch a prebuilt SOAP write request with no socket; the response
    /// body when the call succeeded.
    fn handle(&self, sp: &mut OpSpans, body: &str) -> Vec<u8> {
        let req = Self::soap_post(body);
        let resp = sp.time("soapstack.handle", || self.dispatcher.handle(&req));
        sp.check(resp.status == 200);
        resp.body
    }

    /// Dispatch a prebuilt SOAP read request with no socket, on both cache
    /// paths; the uncached response body when every call succeeded.
    fn handle_read(&self, sp: &mut OpSpans, body: &str) -> Vec<u8> {
        let req = Self::soap_post(body);
        let (hit, miss) = self.both_paths(
            sp,
            ["soapstack.handle.cached", "soapstack.handle.uncached"],
            || self.dispatcher.handle(&req),
        );
        let ok = |r: &Response| r.status == 200;
        sp.check(hit.as_ref().is_none_or(ok) && ok(&miss));
        miss.body
    }

    fn soap_decode<T>(
        body: Vec<u8>,
        f: impl FnOnce(&Element) -> Result<T, xmlkit::XmlError>,
    ) -> Option<T> {
        let text = String::from_utf8(body).ok()?;
        let el = soap::decode_response(&text).ok()?;
        f(&el).ok()
    }

    fn replay_simple(&self, sp: &mut OpSpans, i: u64) {
        let name = file_name(i);
        let (hit, f) =
            self.both_paths(sp, ["mcs.get_file.cached", "mcs.get_file.uncached"], || {
                self.mcs.get_file(&self.cred, &name)
            });
        sp.check(hit.is_none_or(|h| h.is_ok_and(|h| h.name == name)));
        let Ok(f) = f else { return sp.check(false) };
        sp.check(f.name == name);

        let key = [Value::from(name.as_str())];
        let rows = sp.time("relstore.lookup", || {
            self.mcs.database().execute_prepared(&self.lookup, &key)
        });
        sp.check(rows.is_ok_and(|r| r.rows.is_some_and(|rs| rs.rows.len() == 1)));

        let (req, resp) = sp.time("binproto.encode", || {
            let mut req = Vec::new();
            frame::put_credential(&mut req, &self.cred);
            frame::put_str(&mut req, &name);
            let mut resp = Vec::new();
            frame::put_file(&mut resp, &f);
            (req, resp)
        });
        let back = sp.time(
            "binproto.decode",
            || -> FrameResult<(String, LogicalFile)> {
                let mut r = Reader::new(&req);
                frame::get_credential(&mut r)?;
                let asked = r.str()?;
                r.finish()?;
                let mut r = Reader::new(&resp);
                let got = frame::get_file(&mut r)?;
                r.finish()?;
                Ok((asked, got))
            },
        );
        sp.check(back.is_ok_and(|(asked, got)| asked == name && got.name == name));
        sp.bytes("binproto", req.len() + resp.len());

        let body = sp.time("soapstack.encode", || {
            self.soap_request("getFile", vec![wire::text_el("name", name.as_str())])
        });
        let parsed = sp.time("xmlkit.parse", || xmlkit::parse(&body));
        sp.check(parsed.is_ok());
        let out = self.handle_read(sp, &body);
        let out_len = out.len();
        let got = sp.time("soapstack.decode", || {
            Self::soap_decode(out, |el| wire::file_from(el.expect("file")?))
        });
        sp.check(got.is_some_and(|g| g.name == name));
        sp.bytes("soapstack", body.len() + out_len);
    }

    fn replay_complex(&self, sp: &mut OpSpans, i: u64) {
        let preds = complex_query(i);
        let want = [(file_name(i), 1)];
        let (cached, hits) =
            self.both_paths(sp, ["mcs.query.cached", "mcs.query.uncached"], || {
                self.mcs.query_by_attributes(&self.cred, &preds)
            });
        sp.check(cached.is_none_or(|c| c.is_ok_and(|c| c == want)));
        let Ok(hits) = hits else {
            return sp.check(false);
        };
        sp.check(hits == want);
        let plan = sp.time("mcs.plan.explain", || {
            self.mcs.explain_query(&self.cred, &preds)
        });
        sp.check(plan.is_ok_and(|p| !p.is_empty()));

        let (req, resp) = sp.time("binproto.encode", || {
            let mut req = Vec::new();
            frame::put_credential(&mut req, &self.cred);
            frame::put_u32(&mut req, preds.len() as u32);
            for p in &preds {
                frame::put_predicate(&mut req, p);
            }
            let mut resp = Vec::new();
            frame::put_hits(&mut resp, &hits);
            (req, resp)
        });
        let back = sp.time(
            "binproto.decode",
            || -> FrameResult<(usize, Vec<(String, i64)>)> {
                let mut r = Reader::new(&req);
                frame::get_credential(&mut r)?;
                let n = r.seq_len()?;
                for _ in 0..n {
                    frame::get_predicate(&mut r)?;
                }
                r.finish()?;
                let mut r = Reader::new(&resp);
                let got = frame::get_hits(&mut r)?;
                r.finish()?;
                Ok((n, got))
            },
        );
        sp.check(back.is_ok_and(|(n, got)| n == preds.len() && got == want));
        sp.bytes("binproto", req.len() + resp.len());

        let body = sp.time("soapstack.encode", || {
            self.soap_request(
                "queryByAttributes",
                preds.iter().map(wire::predicate_el).collect(),
            )
        });
        let parsed = sp.time("xmlkit.parse", || xmlkit::parse(&body));
        sp.check(parsed.is_ok());
        let out = self.handle_read(sp, &body);
        let out_len = out.len();
        let got = sp.time("soapstack.decode", || {
            Self::soap_decode(out, |el| wire::hits_from(el.expect("hits")?))
        });
        sp.check(got.is_some_and(|g| g == want));
        sp.bytes("soapstack", body.len() + out_len);
    }

    fn replay_add(&self, sp: &mut OpSpans, spec: &mcs::FileSpec, id: u64) {
        // Distinct names per layer, so no replay collides with a live
        // file or with another replay.
        let mut direct = spec.clone();
        direct.name = format!("catbench.replay.d{id}.dat");
        let f = sp.time("mcs.add", || {
            let f = self.mcs.create_file(&self.cred, &direct)?;
            self.mcs.delete_file(&self.cred, &direct.name)?;
            Ok::<_, mcs::McsError>(f)
        });
        let Ok(f) = f else { return sp.check(false) };
        sp.check(f.name == direct.name);

        let (reqs, resp) = sp.time("binproto.encode", || {
            let mut create = Vec::new();
            frame::put_credential(&mut create, &self.cred);
            frame::put_filespec(&mut create, &direct);
            let mut delete = Vec::new();
            frame::put_credential(&mut delete, &self.cred);
            frame::put_str(&mut delete, &direct.name);
            let mut resp = Vec::new();
            frame::put_file(&mut resp, &f);
            ([create, delete], resp)
        });
        let back = sp.time("binproto.decode", || -> FrameResult<bool> {
            let mut r = Reader::new(&reqs[0]);
            frame::get_credential(&mut r)?;
            let s = frame::get_filespec(&mut r)?;
            r.finish()?;
            let mut r = Reader::new(&reqs[1]);
            frame::get_credential(&mut r)?;
            let n = r.str()?;
            r.finish()?;
            let mut r = Reader::new(&resp);
            let g = frame::get_file(&mut r)?;
            r.finish()?;
            Ok(s.name == direct.name && n == direct.name && g.name == direct.name)
        });
        sp.check(back.unwrap_or(false));
        sp.bytes("binproto", reqs[0].len() + reqs[1].len() + resp.len());

        let mut via_soap = spec.clone();
        via_soap.name = format!("catbench.replay.s{id}.dat");
        let bodies = sp.time("soapstack.encode", || {
            [
                self.soap_request("createFile", vec![wire::filespec_el(&via_soap)]),
                self.soap_request(
                    "deleteFile",
                    vec![wire::text_el("name", via_soap.name.as_str())],
                ),
            ]
        });
        let parsed = sp.time("xmlkit.parse", || {
            xmlkit::parse(&bodies[0]).is_ok() && xmlkit::parse(&bodies[1]).is_ok()
        });
        sp.check(parsed);
        let created = self.handle(sp, &bodies[0]);
        let deleted = self.handle(sp, &bodies[1]);
        let out_len = created.len() + deleted.len();
        let got = sp.time("soapstack.decode", || {
            let f = Self::soap_decode(created, |el| wire::file_from(el.expect("file")?));
            let d = Self::soap_decode(deleted, |_| Ok(()));
            f.filter(|_| d.is_some())
        });
        sp.check(got.is_some_and(|g| g.name == via_soap.name));
        sp.bytes("soapstack", bodies[0].len() + bodies[1].len() + out_len);
    }

    /// Time `batches` direct `create_files` calls of [`INGEST_BATCH`]
    /// files each, then delete the files again.
    pub fn replay_batches(&self, log: &mut SpanLog, batches: usize, attr_base: u64) {
        for _ in 0..batches {
            let id = self.next_op.fetch_add(1, Ordering::Relaxed);
            let specs: Vec<_> = (0..INGEST_BATCH)
                .map(|j| {
                    file_spec(
                        format!("catbench.replay.b{id}.{j:02}.dat"),
                        attr_base + j as u64,
                    )
                })
                .collect();
            let first = log.spans.len();
            let mut sp = OpSpans {
                log,
                kind: Kind::Ingest,
                op: id,
                n: 0,
                ok: true,
            };
            let t0 = Instant::now();
            let made = sp.time("mcs.create_files64", || {
                self.mcs.create_files(&self.cred, &specs)
            });
            sp.check(made.is_ok_and(|fs| fs.len() == specs.len()));
            let end = Instant::now();
            let ok = sp.ok
                && specs
                    .iter()
                    .all(|s| self.mcs.delete_file(&self.cred, &s.name).is_ok());
            log.attempted += 1;
            log.failed += u64::from(!ok);
            let root = Span {
                name: "op",
                kind: Kind::Ingest,
                op: id,
                id: id << 8,
                parent: 0,
                start: t0,
                end,
            };
            log.spans.insert(first, root);
        }
    }

    /// Per-layer metrics from the spans: the median over the sampled
    /// operations of each layer's self time per operation kind, the
    /// median residual of the live call, and the mean bytes per
    /// operation on each codec. `hit_shares` (by `Kind::idx`) weights a
    /// query's cached and uncached replays.
    pub fn layer_metrics(
        &self,
        log: &SpanLog,
        hit_shares: [f64; 2],
    ) -> Vec<(String, f64, &'static str)> {
        // Self time in µs of each layer call, summed per operation (an
        // add dispatches two SOAP requests).
        let mut ops: BTreeMap<u64, (Kind, HashMap<&str, f64>)> = BTreeMap::new();
        for (s, ns) in self_times(&log.spans) {
            if s.parent != 0 {
                let (_, t) = ops.entry(s.op).or_insert_with(|| (s.kind, HashMap::new()));
                *t.entry(s.name).or_default() += ns as f64 / 1e3;
            }
        }
        // A layer's time in one operation; a query's cached and uncached
        // replays weighted by how often the cache answers it whole.
        let layer = |kind: Kind, t: &HashMap<&str, f64>, span: &str| -> Option<f64> {
            let Some(miss) = t.get(format!("{span}.uncached").as_str()) else {
                return t.get(span).copied();
            };
            let h = hit_shares.get(kind.idx()).copied().unwrap_or(0.0);
            let hit = t.get(format!("{span}.cached").as_str());
            Some(hit.map_or(*miss, |hit| h * hit + (1.0 - h) * miss))
        };
        let of_kind = |kind: Kind| ops.values().filter(move |(k, _)| *k == kind);
        let mut out = Vec::new();
        for (span, metric, per_kind) in LAYER_SPANS {
            for kind in Kind::PAPER.into_iter().chain([Kind::Ingest]) {
                let v: Vec<f64> = of_kind(kind)
                    .filter_map(|(k, t)| layer(*k, t, span))
                    .collect();
                if v.is_empty() {
                    continue;
                }
                let name = if per_kind {
                    format!("{metric}.{}", kind.name())
                } else {
                    metric.to_string()
                };
                out.push((name, median(&v), "us"));
            }
        }
        // Residual: the live call minus its server side and the client
        // and server codec, each as replayed alone. The server decodes the
        // request and encodes the response and the client does the
        // reverse, so the two codec spans cover both ends.
        let (server, codec): (&[&str], [&str; 2]) = match self.protocol {
            Protocol::Bin => (
                &["mcs.get_file", "mcs.query", "mcs.add"],
                ["binproto.encode", "binproto.decode"],
            ),
            Protocol::Soap => (
                &["soapstack.handle"],
                ["soapstack.encode", "soapstack.decode"],
            ),
        };
        for kind in Kind::PAPER {
            let v: Vec<f64> = of_kind(kind)
                .filter_map(|(k, t)| {
                    let rpc = t.get("net.rpc")?;
                    let inner: f64 = server.iter().filter_map(|s| layer(*k, t, s)).sum();
                    let codec: f64 = codec.iter().filter_map(|c| t.get(c)).sum();
                    Some(rpc - inner - codec)
                })
                .collect();
            if !v.is_empty() {
                out.push((format!("net.residual_us.{}", kind.name()), median(&v), "us"));
            }
            for codec in ["binproto", "soapstack"] {
                let b: Vec<f64> = log
                    .bytes
                    .iter()
                    .filter(|(c, k, _)| *c == codec && *k == kind)
                    .map(|(_, _, n)| *n as f64)
                    .collect();
                if !b.is_empty() {
                    let mean = b.iter().sum::<f64>() / b.len() as f64;
                    out.push((format!("{codec}.bytes_per_op.{}", kind.name()), mean, "B"));
                }
            }
        }
        out
    }
}

/// `(span name, metric name, one metric per operation kind)`. A span
/// name that a query replays on both cache paths stands for their
/// weighted time; its `.uncached` name for the uncached path alone.
const LAYER_SPANS: [(&str, &str, bool); 15] = [
    ("net.rpc", "net.rpc_us", true),
    ("binproto.encode", "binproto.encode_us", true),
    ("binproto.decode", "binproto.decode_us", true),
    ("soapstack.encode", "soapstack.encode_us", true),
    ("soapstack.decode", "soapstack.decode_us", true),
    ("xmlkit.parse", "xmlkit.parse_us", true),
    ("soapstack.handle", "soapstack.handle_us", true),
    ("mcs.get_file", "mcs.get_file_us", false),
    ("mcs.get_file.uncached", "mcs.get_file_uncached_us", false),
    ("mcs.query", "mcs.query_us", false),
    ("mcs.query.uncached", "mcs.query_uncached_us", false),
    ("mcs.add", "mcs.add_us", false),
    ("mcs.create_files64", "mcs.create_files64_us", false),
    ("mcs.plan.explain", "mcs.plan.explain_us", false),
    ("relstore.lookup", "relstore.lookup_us", false),
];

/// Each span's self time in ns: its duration minus the part of it its
/// children's intervals cover.
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(Instant, Instant)> = children
                .get(&s.id)
                .map(|cs| {
                    cs.iter()
                        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                        .collect()
                })
                .unwrap_or_default();
            iv.retain(|(a, b)| a < b);
            iv.sort();
            let mut covered = std::time::Duration::ZERO;
            let mut cur: Option<(Instant, Instant)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (
                s,
                (s.end - s.start).saturating_sub(covered).as_nanos() as u64,
            )
        })
        .collect()
}
