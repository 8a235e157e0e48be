//! Golden wire-format test: pins the exact bytes of both protocols.
//!
//! A fixed script calls every catalog operation once successfully and
//! once so that it faults, through each typed client, against a fresh
//! durable catalog (manual clock, read cache on, so writes echo
//! epochs). Each client talks to its server through a recording proxy:
//! for SOAP an HTTP handler that logs the envelope text around the real
//! dispatcher, for the binary protocol a relay that logs every frame
//! body in hex. The transcript — one line per operation, holding for each
//! of its calls the request and response on both wires and each client's
//! decoded `{:?}` result — must equal `tests/golden/<n>shard.txt` byte
//! for byte. `twin.rs` compares the two protocols with each other; this
//! test fixes what each of them is.
//!
//! The script runs on a one-shard and a two-shard catalog: the SOAP
//! shard echo and per-shard epoch lists appear only on the latter. The
//! operations that cannot fail on a valid request (ping, catalogInfo,
//! syncNow, cacheStats) get their fault from the proxy, which marks the
//! request with an unknown per-request option on its way to the server.
//!
//! After an intended format change, rewrite the files with
//! `MCS_GOLDEN_BLESS=1 cargo test -p mcs-net --test wire_golden`.

use std::fmt::Debug;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, ExternalCatalog,
    FileSpec, FileUpdate, IndexProfile, ManualClock, ObjectRef, Permission, ShardedCatalog,
    StoreConfig, UserRecord,
};
use mcs_net::binproto::frame::{read_frame, read_preamble, write_frame, write_preamble};
use mcs_net::client::{DurabilityMode, Result};
use mcs_net::{register_methods, BinMcsClient, BinServer, McsClient, NetError};
use relstore::Value;
use soapstack::server::{Handler, HttpServer, SoapDispatcher};
use soapstack::{Request, Response, TransportOpts};

/// What a recording proxy saw, one (request, response) per call; while
/// `tamper` is set it marks requests with an unknown option.
#[derive(Default)]
struct Proxy {
    log: Mutex<Vec<(String, String)>>,
    tamper: AtomicBool,
}

/// The script's calls: label, whether it must succeed, decoded result.
type Calls = Vec<(String, bool, String)>;

fn record<T: Debug>(out: &mut Calls, label: &str, ok: bool, r: Result<T>) {
    match (&r, ok) {
        (Ok(_), true) | (Err(NetError::Fault { .. }), false) => {}
        _ => panic!("{label}: expected {}, got {r:?}", if ok { "success" } else { "a fault" }),
    }
    out.push((label.to_string(), ok, format!("{r:?}")));
}

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn catalog(tag: &str, shards: usize) -> Arc<ShardedCatalog> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{tag}-{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StoreConfig { shards, cache: Some(CacheConfig::default()), ..StoreConfig::default() };
    let clock = Arc::new(ManualClock::default());
    Arc::new(ShardedCatalog::open(&dir, &admin(), IndexProfile::Paper2003, clock, cfg).unwrap())
}

fn soap_proxy(cat: Arc<ShardedCatalog>, proxy: Arc<Proxy>) -> HttpServer {
    let mut d = SoapDispatcher::new();
    register_methods(&mut d, cat);
    let handler = move |req: &Request| -> Response {
        let text = String::from_utf8(req.body.clone()).unwrap();
        let mut sent = req.clone();
        if proxy.tamper.load(Ordering::SeqCst) {
            let mark = "xmlns:m=\"urn:mcs\" xmlns:mcs=\"urn:mcs\" mcs:cache=\"bogus\"";
            sent.body = text.replacen("xmlns:m=\"urn:mcs\"", mark, 1).into_bytes();
        }
        let resp = d.handle(&sent);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        proxy.log.lock().unwrap().push((text, body));
        resp
    };
    HttpServer::start("127.0.0.1:0", Arc::new(handler) as Arc<dyn Handler>, 2).unwrap()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// A frame relay in front of `upstream`, one thread per connection.
fn bin_proxy(upstream: String, proxy: Arc<Proxy>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut client in listener.incoming().map_while(std::result::Result::ok) {
            let (upstream, proxy) = (upstream.clone(), Arc::clone(&proxy));
            std::thread::spawn(move || {
                let mut server = TcpStream::connect(&upstream).unwrap();
                server.set_nodelay(true).unwrap();
                client.set_nodelay(true).unwrap();
                read_preamble(&mut client).unwrap();
                write_preamble(&mut server).unwrap();
                read_preamble(&mut server).unwrap();
                write_preamble(&mut client).unwrap();
                while let Ok(Some(req)) = read_frame(&mut client) {
                    let mut sent = req.clone();
                    if proxy.tamper.load(Ordering::SeqCst) {
                        sent[5] |= 0x80; // an unassigned request-flag bit
                    }
                    write_frame(&mut server, &sent).unwrap();
                    server.flush().unwrap();
                    let resp = read_frame(&mut server).unwrap().unwrap();
                    proxy.log.lock().unwrap().push((hex(&req), hex(&resp)));
                    write_frame(&mut client, &resp).unwrap();
                    client.flush().unwrap();
                }
            });
        }
    });
    addr
}

fn spec(name: &str, run: i64) -> FileSpec {
    FileSpec::named(name).attr("run", run).attr("site", "isi")
}

/// Every op once successfully and once faulting, as admin `$c` (or
/// the unprivileged `$s`). A macro, so one text drives both clients.
macro_rules! script {
    ($c:ident, $s:ident, $proxy:ident, $out:ident) => {{
        let out = &mut $out;
        let tamper = |on: bool| $proxy.tamper.store(on, Ordering::SeqCst);
        let (f1, f2) = (ObjectRef::File("f1".into()), ObjectRef::File("f2".into()));
        let nope = ObjectRef::File("nope".into());
        let preds = [
            AttrPredicate { name: "run".into(), op: AttrOp::Ge, value: Value::Int(1) },
            AttrPredicate { name: "site".into(), op: AttrOp::Eq, value: Value::from("isi") },
        ];
        let undefined = [AttrPredicate::eq("zzz", 1i64)];
        let [dn, description, institution, email, phone] =
            ["/O=Grid/CN=writer", "a writer", "ISI", "w@isi.edu", "555"].map(String::from);
        let user = UserRecord { dn, description, institution, email, phone };
        let [name, catalog_type, host, ip, description] =
            ["rls", "RepMec", "rls.isi.edu", "10.0.0.1", "replica locations"].map(String::from);
        let extcat = ExternalCatalog { name, catalog_type, host, ip, description };
        let mut first = spec("f1", 1).in_collection("c0");
        first.audit = true;
        first.data_type = Some("binary".into());
        first.master_copy = Some("gsiftp://h/f1".into());
        let upd = FileUpdate { data_type: Some("text".into()), valid: Some(true), ..Default::default() };
        let attr = Attribute { name: "run".into(), value: Value::Int(5) };
        let reader = "/O=Grid/CN=reader";

        record(out, "ping", true, $c.ping());
        tamper(true);
        record(out, "ping", false, $c.ping());
        tamper(false);
        record(out, "defineAttribute", true, $c.define_attribute("run", AttrType::Int, "run no"));
        record(out, "defineAttribute", true, $c.define_attribute("site", AttrType::Str, ""));
        record(out, "defineAttribute", false, $s.define_attribute("run", AttrType::Int, ""));
        record(out, "createCollection", true, $c.create_collection("c0", None, "top"));
        record(out, "createCollection", true, $c.create_collection("c1", Some("c0"), "nested"));
        record(out, "createCollection", false, $c.create_collection("c0", None, ""));
        record(out, "getCollection", true, $c.get_collection("c1"));
        record(out, "getCollection", false, $c.get_collection("nope"));
        record(out, "createFile", true, $c.create_file(&first));
        record(out, "createFile", false, $c.create_file(&spec("f1", 1)));
        record(out, "createFiles", true, $c.create_files(&[spec("f2", 2), spec("f3", 3)]));
        record(out, "createFiles", false, $c.create_files(&[spec("f4", 4), spec("f4", 4)]));
        record(out, "getFile", true, $c.get_file("f1"));
        record(out, "getFile", false, $c.get_file("nope"));
        record(out, "getFileVersion", true, $c.get_file_version("f1", 1));
        record(out, "getFileVersion", false, $c.get_file_version("f1", 9));
        record(out, "getFileVersions", true, $c.get_file_versions("f2"));
        record(out, "getFileVersions", false, $c.get_file_versions("nope"));
        record(out, "updateFile", true, $c.update_file("f2", &upd));
        record(out, "updateFile", false, $c.update_file("nope", &upd));
        record(out, "invalidateFile", true, $c.invalidate_file("f3"));
        record(out, "invalidateFile", false, $c.invalidate_file("nope"));
        record(out, "assignCollection", true, $c.assign_collection("f2", Some("c1")));
        record(out, "assignCollection", false, $c.assign_collection("nope", Some("c1")));
        record(out, "listCollection", true, $c.list_collection("c0"));
        record(out, "listCollection", false, $c.list_collection("nope"));
        record(out, "createView", true, $c.create_view("v0", "a view"));
        record(out, "createView", false, $c.create_view("v0", ""));
        record(out, "getView", true, $c.get_view("v0"));
        record(out, "getView", false, $c.get_view("nope"));
        record(out, "addToView", true, $c.add_to_view("v0", &f1));
        record(out, "addToView", true, $c.add_to_view("v0", &ObjectRef::Collection("c1".into())));
        record(out, "addToView", false, $c.add_to_view("nope", &f1));
        record(out, "listView", true, $c.list_view("v0"));
        record(out, "listView", false, $c.list_view("nope"));
        record(out, "removeFromView", true, $c.remove_from_view("v0", &f1));
        record(out, "removeFromView", false, $c.remove_from_view("nope", &f1));
        record(out, "setAttribute", true, $c.set_attribute(&f2, &attr));
        record(out, "setAttribute", false, $c.set_attribute(&nope, &attr));
        record(out, "getAttributes", true, $c.get_attributes(&f2));
        record(out, "getAttributes", false, $c.get_attributes(&nope));
        record(out, "queryByAttributes", true, $c.query_by_attributes(&preds));
        record(out, "queryByAttributes", false, $c.query_by_attributes(&undefined));
        record(out, "explainQuery", true, $c.explain_query(&preds));
        record(out, "explainQuery", false, $c.explain_query(&undefined));
        record(out, "removeAttribute", true, $c.remove_attribute(&f2, "site"));
        record(out, "removeAttribute", false, $c.remove_attribute(&nope, "run"));
        record(out, "annotate", true, $c.annotate(&f1, "checked"));
        record(out, "annotate", false, $c.annotate(&nope, "checked"));
        record(out, "getAnnotations", true, $c.get_annotations(&f1));
        record(out, "getAnnotations", false, $c.get_annotations(&nope));
        record(out, "setAudit", true, $c.set_audit(&f2, true));
        record(out, "setAudit", false, $c.set_audit(&nope, true));
        record(out, "getAuditTrail", true, $c.get_audit_trail(&f1));
        record(out, "getAuditTrail", false, $c.get_audit_trail(&nope));
        record(out, "addHistory", true, $c.add_history("f1", "derived from raw"));
        record(out, "addHistory", false, $c.add_history("nope", "x"));
        record(out, "getHistory", true, $c.get_history("f1"));
        record(out, "getHistory", false, $c.get_history("nope"));
        record(out, "grant", true, $c.grant(&f1, reader, Permission::Read));
        record(out, "grant", false, $c.grant(&nope, reader, Permission::Read));
        record(out, "revoke", true, $c.revoke(&f1, reader, Permission::Read));
        record(out, "revoke", false, $c.revoke(&nope, reader, Permission::Write));
        record(out, "registerUser", true, $c.register_user(&user));
        record(out, "registerUser", false, $s.register_user(&user));
        record(out, "getUser", true, $c.get_user("/O=Grid/CN=writer"));
        record(out, "getUser", false, $c.get_user("/O=Grid/CN=nobody"));
        record(out, "listUsers", true, $c.list_users());
        record(out, "listUsers", false, $s.list_users());
        record(out, "registerExternalCatalog", true, $c.register_external_catalog(&extcat));
        record(out, "registerExternalCatalog", false, $s.register_external_catalog(&extcat));
        record(out, "listExternalCatalogs", true, $c.list_external_catalogs());
        record(out, "listExternalCatalogs", false, $s.list_external_catalogs());
        // Per-request options: an async write echoes its epoch, a
        // bypassed read carries the cache flag.
        $c.set_durability(Some(DurabilityMode::Async));
        record(out, "createFile@async", true, $c.create_file(&spec("f5", 5)));
        $c.set_durability(None);
        let (epoch, shard) = ($c.last_epoch(), $c.last_shard());
        record(out, "syncNow", true, $c.sync_now());
        tamper(true);
        record(out, "syncNow", false, $c.sync_now());
        tamper(false);
        record(out, "waitForEpoch", true, $c.wait_for_epoch_on(shard, epoch));
        record(out, "waitForEpoch", false, $c.wait_for_epoch_on(99, epoch));
        $c.set_cache_bypass(true);
        record(out, "getFile@bypass", true, $c.get_file("f5"));
        $c.set_cache_bypass(false);
        record(out, "deleteView", true, $c.delete_view("v0"));
        record(out, "deleteView", false, $c.delete_view("nope"));
        record(out, "deleteFileVersion", true, $c.delete_file_version("f3", 1));
        record(out, "deleteFileVersion", false, $c.delete_file_version("nope", 1));
        record(out, "deleteFile", true, $c.delete_file("f2"));
        record(out, "deleteFile", false, $c.delete_file("nope"));
        record(out, "deleteCollection", true, $c.delete_collection("c1"));
        record(out, "deleteCollection", false, $c.delete_collection("c0"));
        record(out, "cacheStats", true, $c.cache_stats());
        tamper(true);
        record(out, "cacheStats", false, $c.cache_stats());
        tamper(false);
        record(out, "catalogInfo", true, $c.catalog_info());
        tamper(true);
        record(out, "catalogInfo", false, $c.catalog_info());
        tamper(false);
    }};
}

/// Run the script over both wires; one transcript line per operation.
fn transcript(shards: usize) -> String {
    let stranger = Credential::new("/O=Grid/CN=stranger");
    let (soap_log, bin_log) = (Arc::new(Proxy::default()), Arc::new(Proxy::default()));

    let server = soap_proxy(catalog("soap", shards), Arc::clone(&soap_log));
    let opts = TransportOpts { keep_alive: true, simulated_rtt: std::time::Duration::ZERO };
    let mut c = McsClient::with_opts(server.addr().to_string(), admin(), opts.clone());
    let mut s = McsClient::with_opts(server.addr().to_string(), stranger.clone(), opts);
    let mut soap = Calls::new();
    script!(c, s, soap_log, soap);

    let server = BinServer::start_sharded(catalog("bin", shards), "127.0.0.1:0", 2).unwrap();
    let addr = bin_proxy(server.addr().to_string(), Arc::clone(&bin_log));
    let mut c = BinMcsClient::connect(addr.clone(), admin());
    let mut s = BinMcsClient::connect(addr, stranger);
    let mut bin = Calls::new();
    script!(c, s, bin_log, bin);

    let (soap_log, bin_log) = (soap_log.log.lock().unwrap(), bin_log.log.lock().unwrap());
    assert_eq!((soap_log.len(), bin_log.len()), (soap.len(), bin.len()), "one exchange per call");
    let mut out = String::new();
    let mut last = "";
    for (((label, ok, sr), (_, _, br)), ((sq, sp), (bq, bp))) in
        soap.iter().zip(&bin).zip(soap_log.iter().zip(bin_log.iter()))
    {
        // The decoded results agree except where the proxy made the
        // fault: each names its own protocol's option encoding.
        if !sr.contains("bogus") {
            assert_eq!(sr, br, "{shards} shard(s), {label}: SOAP and binary results");
        }
        if label != last {
            out.push_str(if last.is_empty() { "" } else { "\n" });
            out.push_str(label);
            last = label;
        }
        let outcome = if *ok { "ok" } else { "fault" };
        out.push_str(&format!("\t{outcome}\t{sq}\t{sp}\t{bq}\t{bp}\t{sr}\t{br}"));
    }
    out + "\n"
}

fn check(shards: usize) {
    let got = transcript(shards);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/{shards}shard.txt"));
    if std::env::var_os("MCS_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with MCS_GOLDEN_BLESS=1)", path.display()));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        for (col, (w, g)) in w.split('\t').zip(g.split('\t')).enumerate() {
            assert_eq!(g, w, "{}:{} column {col}: wire format drifted", path.display(), i + 1);
        }
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{}: length", path.display());
}

#[test]
fn wire_format_is_pinned_single_shard() {
    check(1);
}

#[test]
fn wire_format_is_pinned_two_shards() {
    check(2);
}
