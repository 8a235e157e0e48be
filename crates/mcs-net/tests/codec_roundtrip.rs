//! Seeded round-trip properties of the two request/reply codecs: for
//! random calls and replies of every operation, `decode(encode(x)) == x`
//! on the SOAP codec (through real envelope text) and on the binary
//! codec (through real frame bodies). Together with the golden
//! transcript (`wire_golden.rs`) and one behavioural run per protocol
//! pair (`twin.rs`), this is what makes the two wires the same
//! service.
//!
//! Hand-rolled xorshift PRNG like the other seeded suites; replay a
//! failure with `MCS_WIRE_SEED=<seed> cargo test -p mcs-net --test
//! codec_roundtrip`.

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use mcs_net::binproto::frame::{self, Reader};
use mcs_net::client::DurabilityMode;
use mcs_net::dispatch::{Call, CallScope};
use mcs_net::ops::{Op, Reply, Shape};
use mcs_net::{wire, CacheStatsReport, CatalogInfoReport, Request, Response};
use relstore::{Date, DateTime, Time, Value};
use soapstack::soap;

/// xorshift64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
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

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    /// Up to 32 characters of printable ASCII (`' '..='~'`, so every
    /// XML-hostile character), including the empty string. Never
    /// whitespace only: the XML parser drops text nodes that are nothing
    /// but whitespace, so SOAP cannot carry them.
    fn text(&mut self) -> String {
        let n = self.below(33);
        let s: String = (0..n).map(|_| (b' ' + self.below(95) as u8) as char).collect();
        if !s.is_empty() && s.trim().is_empty() {
            s + "a"
        } else {
            s
        }
    }

    fn opt_text(&mut self) -> Option<String> {
        self.coin().then(|| self.text())
    }

    fn int(&mut self) -> i64 {
        self.next() as i64
    }

    fn list<T>(&mut self, f: impl Fn(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(4)).map(|_| f(self)).collect()
    }

    fn datetime(&mut self) -> DateTime {
        DateTime::from_seconds_from_epoch(self.below(20_000_000_000) as i64 - 10_000_000_000)
    }
}

fn value(g: &mut Rng) -> Value {
    match g.below(8) {
        0 => Value::Null,
        1 => Value::Int(g.int()),
        2 => Value::Float(float(g)),
        3 => Value::from(g.text()),
        4 => Value::Bool(g.coin()),
        5 => Value::Date(Date::from_days_from_epoch(g.below(200_000) as i64 - 100_000)),
        6 => {
            let s = g.below(86_400) as u32;
            Value::Time(Time::new((s / 3600) as u8, (s % 3600 / 60) as u8, (s % 60) as u8).unwrap())
        }
        _ => Value::DateTime(g.datetime()),
    }
}

/// Any double but NaN, which would break the equality tested: raw bit
/// patterns, decimal fractions like the ones users type, and the edge
/// values the SOAP text form spells out.
fn float(g: &mut Rng) -> f64 {
    match g.below(4) {
        0 => Some(f64::from_bits(g.next())).filter(|x| !x.is_nan()).unwrap_or(0.5),
        1 => g.int() as f64 / 1e6,
        2 => (g.below(1_000_000_000) as i64 - 500_000_000) as f64 / 1e6,
        _ => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][g.below(4) as usize],
    }
}

fn attribute(g: &mut Rng) -> Attribute {
    Attribute { name: g.text(), value: value(g) }
}

fn predicate(g: &mut Rng) -> AttrPredicate {
    let ops = [AttrOp::Eq, AttrOp::Ne, AttrOp::Lt, AttrOp::Le, AttrOp::Gt, AttrOp::Ge, AttrOp::Like];
    AttrPredicate { name: g.text(), op: ops[g.below(7) as usize], value: value(g) }
}

fn object(g: &mut Rng) -> ObjectRef {
    match g.below(5) {
        0 => ObjectRef::File(g.text()),
        1 => ObjectRef::FileVersion(g.text(), g.int()),
        2 => ObjectRef::Collection(g.text()),
        3 => ObjectRef::View(g.text()),
        _ => ObjectRef::Service,
    }
}

fn object_type(g: &mut Rng) -> ObjectType {
    [ObjectType::File, ObjectType::Collection, ObjectType::View, ObjectType::Service]
        [g.below(4) as usize]
}

fn spec(g: &mut Rng) -> FileSpec {
    FileSpec {
        name: g.text(),
        version: g.coin().then(|| g.int()),
        data_type: g.opt_text(),
        collection: g.opt_text(),
        container_id: g.opt_text(),
        container_service: g.opt_text(),
        master_copy: g.opt_text(),
        audit: g.coin(),
        attributes: g.list(attribute),
    }
}

fn file(g: &mut Rng) -> LogicalFile {
    LogicalFile {
        id: g.int(),
        name: g.text(),
        version: g.int(),
        data_type: g.opt_text(),
        valid: g.coin(),
        collection_id: g.coin().then(|| g.int()),
        container_id: g.opt_text(),
        container_service: g.opt_text(),
        creator: g.text(),
        created: g.datetime(),
        last_modifier: g.opt_text(),
        last_modified: g.coin().then(|| g.datetime()),
        master_copy: g.opt_text(),
        audit_enabled: g.coin(),
    }
}

fn user(g: &mut Rng) -> UserRecord {
    let (dn, description, institution) = (g.text(), g.text(), g.text());
    UserRecord { dn, description, institution, email: g.text(), phone: g.text() }
}

fn extcat(g: &mut Rng) -> ExternalCatalog {
    let (name, catalog_type, host) = (g.text(), g.text(), g.text());
    ExternalCatalog { name, catalog_type, host, ip: g.text(), description: g.text() }
}

fn hits(g: &mut Rng) -> Vec<(String, i64)> {
    g.list(|g| (g.text(), g.int()))
}

fn permission(g: &mut Rng) -> Permission {
    [Permission::Read, Permission::Write, Permission::Delete, Permission::Admin]
        [g.below(4) as usize]
}

fn request(op: Op, g: &mut Rng) -> Request {
    use Request as Q;
    match op {
        Op::Ping => Q::Ping,
        Op::CatalogInfo => Q::CatalogInfo,
        Op::WaitForEpoch => {
            Q::WaitForEpoch { epoch: g.below(i64::MAX as u64), shard: g.below(8) as usize }
        }
        Op::SyncNow => Q::SyncNow,
        Op::CacheStats => Q::CacheStats,
        Op::CreateFile => Q::CreateFile { spec: spec(g) },
        Op::CreateFiles => Q::CreateFiles { specs: g.list(spec) },
        Op::GetFile => Q::GetFile { name: g.text() },
        Op::GetFileVersion => Q::GetFileVersion { name: g.text(), version: g.int() },
        Op::GetFileVersions => Q::GetFileVersions { name: g.text() },
        Op::UpdateFile => Q::UpdateFile {
            name: g.text(),
            update: FileUpdate {
                data_type: g.opt_text(),
                valid: g.coin().then(|| g.coin()),
                master_copy: g.opt_text(),
                container_id: g.opt_text(),
                container_service: g.opt_text(),
            },
        },
        Op::InvalidateFile => Q::InvalidateFile { name: g.text() },
        Op::DeleteFile => Q::DeleteFile { name: g.text() },
        Op::DeleteFileVersion => Q::DeleteFileVersion { name: g.text(), version: g.int() },
        Op::CreateCollection => {
            Q::CreateCollection { name: g.text(), parent: g.opt_text(), description: g.text() }
        }
        Op::GetCollection => Q::GetCollection { name: g.text() },
        Op::DeleteCollection => Q::DeleteCollection { name: g.text() },
        Op::ListCollection => Q::ListCollection { name: g.text() },
        Op::AssignCollection => Q::AssignCollection { file: g.text(), collection: g.opt_text() },
        Op::CreateView => Q::CreateView { name: g.text(), description: g.text() },
        Op::GetView => Q::GetView { name: g.text() },
        Op::DeleteView => Q::DeleteView { name: g.text() },
        Op::AddToView => Q::AddToView { view: g.text(), member: object(g) },
        Op::RemoveFromView => Q::RemoveFromView { view: g.text(), member: object(g) },
        Op::ListView => Q::ListView { name: g.text() },
        Op::DefineAttribute => {
            use AttrType::*;
            let ty = [Str, Int, Float, Date, Time, DateTime][g.below(6) as usize];
            Q::DefineAttribute { name: g.text(), ty, description: g.text() }
        }
        Op::SetAttribute => Q::SetAttribute { object: object(g), attr: attribute(g) },
        Op::RemoveAttribute => Q::RemoveAttribute { object: object(g), name: g.text() },
        Op::GetAttributes => Q::GetAttributes { object: object(g) },
        Op::QueryByAttributes => Q::QueryByAttributes { preds: g.list(predicate) },
        Op::ExplainQuery => Q::ExplainQuery { preds: g.list(predicate) },
        Op::Annotate => Q::Annotate { object: object(g), text: g.text() },
        Op::GetAnnotations => Q::GetAnnotations { object: object(g) },
        Op::GetAuditTrail => Q::GetAuditTrail { object: object(g) },
        Op::SetAudit => Q::SetAudit { object: object(g), enabled: g.coin() },
        Op::AddHistory => Q::AddHistory { file: g.text(), description: g.text() },
        Op::GetHistory => Q::GetHistory { file: g.text() },
        Op::Grant => Q::Grant { object: object(g), principal: g.text(), perm: permission(g) },
        Op::Revoke => Q::Revoke { object: object(g), principal: g.text(), perm: permission(g) },
        Op::RegisterUser => Q::RegisterUser { user: user(g) },
        Op::GetUser => Q::GetUser { dn: g.text() },
        Op::ListUsers => Q::ListUsers,
        Op::RegisterExternalCatalog => Q::RegisterExternalCatalog { catalog: extcat(g) },
        Op::ListExternalCatalogs => Q::ListExternalCatalogs,
    }
}

fn response(shape: Shape, g: &mut Rng) -> Response {
    use Response as R;
    match shape {
        Shape::Unit => R::Unit,
        Shape::Removed => R::Removed(g.coin()),
        Shape::File => R::File(file(g)),
        Shape::Files => R::Files(g.list(file)),
        Shape::Collection => R::Collection(Collection {
            id: g.int(),
            name: g.text(),
            description: g.text(),
            parent_id: g.coin().then(|| g.int()),
            creator: g.text(),
            created: g.datetime(),
            last_modifier: g.opt_text(),
            last_modified: g.coin().then(|| g.datetime()),
            audit_enabled: g.coin(),
        }),
        Shape::CollectionContents => R::CollectionContents(CollectionContents {
            files: hits(g),
            subcollections: g.list(Rng::text),
        }),
        Shape::View => R::View(View {
            id: g.int(),
            name: g.text(),
            description: g.text(),
            creator: g.text(),
            created: g.datetime(),
            last_modifier: g.opt_text(),
            last_modified: g.coin().then(|| g.datetime()),
            audit_enabled: g.coin(),
        }),
        Shape::ViewContents => R::ViewContents(ViewContents {
            files: hits(g),
            collections: g.list(Rng::text),
            views: g.list(Rng::text),
        }),
        Shape::Attributes => R::Attributes(g.list(attribute)),
        Shape::Hits => R::Hits(hits(g)),
        Shape::Plan => R::Plan(g.list(Rng::text)),
        Shape::Annotations => R::Annotations(g.list(|g| Annotation {
            object_type: object_type(g),
            object_id: g.int(),
            text: g.text(),
            creator: g.text(),
            created: g.datetime(),
        })),
        Shape::AuditTrail => R::AuditTrail(g.list(|g| AuditRecord {
            object_type: object_type(g),
            object_id: g.int(),
            action: g.text(),
            actor: g.text(),
            at: g.datetime(),
            details: g.text(),
        })),
        Shape::History => R::History(g.list(|g| HistoryRecord {
            file_id: g.int(),
            description: g.text(),
            actor: g.text(),
            at: g.datetime(),
        })),
        Shape::User => R::User(user(g)),
        Shape::Users => R::Users(g.list(user)),
        Shape::ExternalCatalogs => R::ExternalCatalogs(g.list(extcat)),
        Shape::CatalogInfo => R::CatalogInfo {
            report: CatalogInfoReport {
                shards: g.below(64) as usize + 1,
                profile: g.text(),
                files: g.next(),
                cache_enabled: g.coin(),
            },
            commit_epochs: g.list(Rng::next),
            durable_epochs: g.list(Rng::next),
        },
        Shape::DurableEpoch => R::DurableEpoch(g.next()),
        // one epoch per shard, so never empty
        Shape::Synced => R::Synced((0..=g.below(4)).map(|_| g.next()).collect()),
        Shape::CacheStats => R::CacheStats(CacheStatsReport {
            enabled: g.coin(),
            hits: g.next(),
            misses: g.next(),
            stale: g.next(),
            evictions: g.next(),
        }),
    }
}

fn call(op: Op, g: &mut Rng) -> Call {
    let modes = [DurabilityMode::Always, DurabilityMode::Group, DurabilityMode::Async];
    let durability = g.coin().then(|| modes[g.below(3) as usize]);
    Call {
        // the SOAP codec always has a DN element, possibly empty
        cred: Credential { dn: g.text(), groups: g.list(Rng::text) },
        scope: CallScope { durability, cache_bypass: g.coin() },
        request: request(op, g),
    }
}

/// A reply from a catalog of `shards` shards: a write's epoch and
/// shard, or (0, 0) for a call that logged nothing.
fn reply(op: Op, shards: usize, g: &mut Rng) -> Reply {
    let epoch = if g.coin() { 0 } else { g.next() };
    let shard = if epoch == 0 { 0 } else { g.below(shards as u64) as usize };
    Reply { response: response(op.shape(), g), epoch, shard }
}

fn soap_call(c: &Call) -> Call {
    let op = c.request.op();
    let text = soap::encode_request(op.name(), wire::call_el(&c.cred, c.scope, &c.request));
    let (method, el) = soap::decode_request(&text).unwrap();
    assert_eq!(method, op.name());
    wire::call_from(op, &el).unwrap_or_else(|f| panic!("{op:?}: {f}\n{text}"))
}

fn soap_reply(op: Op, r: &Reply, shards: usize) -> Reply {
    let text = soap::encode_response(op.name(), wire::reply_el(r, shards));
    let el = soap::decode_response(&text).unwrap();
    wire::reply_from(op.shape(), &el).unwrap_or_else(|e| panic!("{op:?}: {e}\n{text}"))
}

fn bin_call(c: &Call) -> Call {
    let body = frame::encode_request(7, &c.cred, c.scope, &c.request);
    let (tag, call) = frame::decode_request(&body);
    assert_eq!(tag, 7);
    call.unwrap_or_else(|f| panic!("{:?}: {f}", c.request.op()))
}

fn bin_reply(op: Op, r: &Reply) -> Reply {
    let body = frame::encode_reply(9, &Ok(r.clone()));
    let mut rd = Reader::new(&body);
    assert_eq!(rd.u32().unwrap(), 9);
    frame::decode_reply(op.shape(), &mut rd).unwrap().unwrap()
}

#[test]
fn calls_and_replies_roundtrip_on_both_codecs() {
    let seed = std::env::var("MCS_WIRE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0DEC);
    let mut g = Rng(seed | 1);
    for round in 0..50 {
        for &op in Op::ALL {
            let at = format!("seed {seed} round {round} {op:?}");
            let c = call(op, &mut g);
            assert_eq!(soap_call(&c), c, "{at}: SOAP request");
            assert_eq!(bin_call(&c), c, "{at}: binary request");
            for shards in [1, 4] {
                let r = reply(op, shards, &mut g);
                assert_eq!(soap_reply(op, &r, shards), r, "{at}: SOAP reply, {shards} shard(s)");
                assert_eq!(bin_reply(op, &r), r, "{at}: binary reply");
            }
        }
    }
}

#[test]
fn oversized_reply_becomes_a_fault_frame() {
    // One plan line larger than a frame: the encoder must answer with a
    // fault naming the limit instead of an unsendable frame.
    let huge_len = frame::MAX_FRAME as usize;
    let huge = "x".repeat(huge_len);
    let r = Reply { response: Response::Plan(vec![huge]), epoch: 0, shard: 0 };
    let body = frame::encode_reply(5, &Ok(r));
    assert!(body.len() < 1024, "fault frame, not the payload");
    let mut rd = Reader::new(&body);
    assert_eq!(rd.u32().unwrap(), 5);
    let fault = frame::decode_reply(Shape::Plan, &mut rd).unwrap().unwrap_err();
    assert_eq!(fault.code, "soap:Server.Internal");
    assert!(fault.message.contains(&frame::MAX_FRAME.to_string()), "{}", fault.message);
    // A fault whose message alone would not fit is cut short instead.
    let message = "é".repeat(huge_len);
    let fault = soap::Fault { code: "soap:Client.NotFound".into(), message };
    let body = frame::encode_reply(6, &Err(fault));
    assert!(body.len() <= frame::MAX_FRAME as usize, "{} bytes", body.len());
    let mut rd = Reader::new(&body);
    assert_eq!(rd.u32().unwrap(), 6);
    let fault = frame::decode_reply(Shape::Plan, &mut rd).unwrap().unwrap_err();
    assert_eq!(fault.code, "soap:Client.NotFound");
    assert!(fault.message.len() > huge_len / 2 && fault.message.chars().all(|c| c == 'é'));
    // and the frame writer refuses an oversized body outright
    let mut sink = Vec::new();
    let big = vec![0u8; frame::MAX_FRAME as usize + 1];
    assert!(frame::write_frame(&mut sink, &big).is_err());
    assert!(sink.is_empty(), "nothing written");
}
