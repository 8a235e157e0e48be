//! Synchronous MCS client — the counterpart of the paper's Java client
//! API, one method per catalog operation.
//!
//! The typed methods are written once, on [`Client`], over a
//! [`Transport`] that carries one [`Request`] and brings back its
//! [`Reply`]. [`McsClient`] is that client over SOAP;
//! [`crate::BinMcsClient`] is the same client over the binary protocol.

use std::fmt;

use mcs::{
    Annotation, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, Permission, UserRecord, View, ViewContents,
};
use soapstack::xml::XmlError;
use soapstack::{Fault, SoapClient, SoapError, TransportOpts};

use crate::dispatch::CallScope;
use crate::ops::{Reply, Request, Response};

/// Error kind reconstructed from a structured server fault code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Object not found.
    NotFound,
    /// Name collision.
    AlreadyExists,
    /// Authorization failure.
    PermissionDenied,
    /// Name validation failure.
    InvalidName,
    /// Cycle would be created.
    CycleDetected,
    /// File already in a collection.
    AlreadyInCollection,
    /// Collection not empty.
    CollectionNotEmpty,
    /// Attribute definition/type problem.
    BadAttribute,
    /// Ambiguous or missing version.
    VersionConflict,
    /// An async-acknowledged write can no longer become durable (server
    /// log failure after the ack); surfaced by `wait_for_epoch`/`sync_now`.
    DurabilityLost,
    /// Server-side database error.
    Db,
    /// Anything else server-side.
    Internal,
    /// Request was malformed (client-side fault).
    BadArguments,
    /// Unrecognized fault code.
    Unknown,
}

impl FaultKind {
    /// The kind a fault code names: its last `.`-separated part is the
    /// kind's name, e.g. `soap:Server.NotFound`.
    pub(crate) fn from_code(code: &str) -> FaultKind {
        use FaultKind::*;
        let name = code.rsplit('.').next().unwrap_or("");
        [NotFound, AlreadyExists, PermissionDenied, InvalidName, CycleDetected]
            .into_iter()
            .chain([AlreadyInCollection, CollectionNotEmpty, BadAttribute, VersionConflict])
            .chain([DurabilityLost, Db, Internal, BadArguments])
            .find(|k| format!("{k:?}") == name)
            .unwrap_or(Unknown)
    }
}

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// The server reported a fault.
    Fault {
        /// Reconstructed error kind.
        kind: FaultKind,
        /// Server message.
        message: String,
    },
    /// Transport or envelope failure.
    Soap(SoapError),
    /// The response did not have the expected shape.
    Shape(XmlError),
    /// Binary-protocol transport or framing failure
    /// ([`crate::BinMcsClient`]).
    Frame(String),
    /// The request encodes to a binary frame body of this many bytes,
    /// over [`crate::binproto::frame::MAX_FRAME`]; nothing was sent and
    /// the connection is unchanged.
    TooLarge(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Fault { kind, message } => write!(f, "MCS fault ({kind:?}): {message}"),
            NetError::Soap(e) => write!(f, "{e}"),
            NetError::Shape(e) => write!(f, "bad response: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::TooLarge(n) => write!(
                f,
                "request of {n} bytes exceeds the {}-byte frame limit",
                crate::binproto::frame::MAX_FRAME
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<SoapError> for NetError {
    fn from(e: SoapError) -> Self {
        match e {
            SoapError::Fault(fl) => fl.into(),
            other => NetError::Soap(other),
        }
    }
}

impl From<Fault> for NetError {
    fn from(f: Fault) -> Self {
        NetError::Fault { kind: FaultKind::from_code(&f.code), message: f.message }
    }
}

impl From<XmlError> for NetError {
    fn from(e: XmlError) -> Self {
        NetError::Shape(e)
    }
}

impl NetError {
    /// Is this a fault of the given kind?
    pub fn is(&self, kind: FaultKind) -> bool {
        matches!(self, NetError::Fault { kind: k, .. } if *k == kind)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// Per-request commit durability a client can ask of the server (the
/// `mcs:durability` header; see DESIGN.md §7.2). `Async` trades bounded
/// durability lag for immediate acknowledgement — the server echoes a
/// commit epoch with each write, and [`Client::wait_for_epoch`] /
/// [`Client::sync_now`] turn the weak ack into a hard one. The
/// discriminant is the mode's byte on the binary protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// One fsync per commit before the response (the default).
    Always = 0,
    /// Commit parks until a group-commit leader has synced its batch.
    Group = 1,
    /// Commit is acknowledged as soon as its log position is fixed; the
    /// response carries the commit epoch.
    Async = 2,
}

/// Server-side read-cache counters as reported by the `cacheStats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsReport {
    /// Whether the server has a read cache at all.
    pub enabled: bool,
    /// Entries served without re-executing the read.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries discarded because a table version moved (counted in
    /// `misses` too).
    pub stale: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

/// Server topology and vitals as reported by the `catalogInfo` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogInfoReport {
    /// Number of hash-partitioned backends behind the endpoint (1 for an
    /// unsharded catalog).
    pub shards: usize,
    /// The server's index profile, e.g. `Paper2003`.
    pub profile: String,
    /// Total logical files across all shards.
    pub files: u64,
    /// Whether the server has a read cache.
    pub cache_enabled: bool,
}

/// Carries one call to the server and brings back its reply.
pub trait Transport {
    /// Send `req` as `cred` under `scope` and wait for the reply.
    fn call(&mut self, cred: &Credential, scope: CallScope, req: &Request) -> Result<Reply>;
}

/// A synchronous client bound to one MCS endpoint and one credential.
pub struct Client<T> {
    pub(crate) transport: T,
    pub(crate) cred: Credential,
    /// Options every request carries (`mcs:durability`, `mcs:cache` on
    /// SOAP; flag bits on the binary protocol).
    pub(crate) scope: CallScope,
    /// Commit epoch echoed by the last response (0 if that call logged
    /// nothing).
    last_epoch: u64,
    /// Shard the last echoed epoch belongs to (0 unless the server is
    /// sharded and said otherwise).
    last_shard: usize,
}

/// The SOAP transport: one method call per request over HTTP.
pub struct SoapTransport(SoapClient);

impl Transport for SoapTransport {
    fn call(&mut self, cred: &Credential, scope: CallScope, req: &Request) -> Result<Reply> {
        let op = req.op();
        let el = self.0.call(op.name(), crate::wire::call_el(cred, scope, req))?;
        Ok(crate::wire::reply_from(op.shape(), &el)?)
    }
}

/// The MCS client over SOAP.
pub type McsClient = Client<SoapTransport>;

impl Client<SoapTransport> {
    /// Connect to `addr` (e.g. `127.0.0.1:8080`) as `cred`, with default
    /// transport options (connection per call, no simulated latency).
    pub fn connect(addr: impl Into<String>, cred: Credential) -> McsClient {
        McsClient::with_opts(addr, cred, TransportOpts::default())
    }

    /// Connect with explicit transport options.
    pub fn with_opts(addr: impl Into<String>, cred: Credential, opts: TransportOpts) -> McsClient {
        Client::new(SoapTransport(SoapClient::with_opts(addr, "/mcs", opts)), cred)
    }
}

impl<T: Transport> Client<T> {
    pub(crate) fn new(transport: T, cred: Credential) -> Client<T> {
        Client { transport, cred, scope: CallScope::default(), last_epoch: 0, last_shard: 0 }
    }

    /// The credential this client acts as.
    pub fn credential(&self) -> &Credential {
        &self.cred
    }

    /// Ask the server for a per-request commit durability (`None` reverts
    /// to the server's store-wide policy). With
    /// [`DurabilityMode::Async`], writes return as soon as their log
    /// position is fixed; read the echoed epoch with
    /// [`Client::last_epoch`] and barrier with
    /// [`Client::wait_for_epoch`] or [`Client::sync_now`].
    pub fn set_durability(&mut self, mode: Option<DurabilityMode>) {
        self.scope.durability = mode;
    }

    /// Ask the server to skip its read cache for this client's requests
    /// (see DESIGN.md §7.3). The bypass is per-request — other clients
    /// and the cache itself are unaffected — which makes it the tool for
    /// A/B measurements and for forcing a read straight from the store.
    pub fn set_cache_bypass(&mut self, bypass: bool) {
        self.scope.cache_bypass = bypass;
    }

    /// The commit epoch the server echoed on the most recent response (0
    /// if that call logged nothing). Pass it to
    /// [`Client::wait_for_epoch`] to make the write durable.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The shard [`Client::last_epoch`] belongs to. Epochs are per shard
    /// on a partitioned server; always 0 against a single-shard catalog.
    pub fn last_shard(&self) -> usize {
        self.last_shard
    }

    /// Run one request and return its result; every typed method below
    /// is this plus the unwrapping of its response variant.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let reply = self.transport.call(&self.cred, self.scope, req)?;
        Ok(self.note(reply))
    }

    /// Record a reply's epoch/shard echo and hand back its result.
    pub(crate) fn note(&mut self, reply: Reply) -> Response {
        self.last_epoch = reply.epoch;
        self.last_shard = reply.shard;
        reply.response
    }

    // --- service topology and durability barriers (DESIGN.md §7.2) ---

    /// Server topology and vitals (the `catalogInfo` op).
    pub fn catalog_info(&mut self) -> Result<CatalogInfoReport> {
        match self.call(&Request::CatalogInfo)? {
            Response::CatalogInfo { report, .. } => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Park on the server until shard 0's durable-epoch watermark covers
    /// `epoch` (a value from [`Client::last_epoch`]); returns the
    /// watermark. Fails with [`FaultKind::DurabilityLost`] if the
    /// server's log writer broke while the epoch was pending.
    pub fn wait_for_epoch(&mut self, epoch: u64) -> Result<u64> {
        self.wait_for_epoch_on(0, epoch)
    }

    /// Make every acknowledged write durable now (the bulk-load final
    /// barrier); returns the epoch the barrier covered (shard 0's on a
    /// partitioned server).
    pub fn sync_now(&mut self) -> Result<u64> {
        match self.call(&Request::SyncNow)? {
            Response::Synced(epochs) => Ok(epochs.first().copied().unwrap_or(0)),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(r: Response) -> NetError {
    NetError::Shape(XmlError::Shape(format!("unexpected response {r:?}")))
}

/// The typed methods, one table row each: the method, the payload it
/// returns with the response variant carrying it (none for operations
/// that return nothing), and the request it sends. The decoders build
/// the variant the operation's shape names, so any other variant is a
/// decoder bug, reported as a shape error.
macro_rules! typed_methods {
    ($( $(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty, $variant:ident)?
        = $req:expr; )*) => {
        impl<T: Transport> Client<T> {
            $( $(#[$doc])*
            pub fn $name(&mut self, $($arg: $ty),*) -> Result<typed_methods!(@ret $($ret)?)> {
                let response = self.call(&$req)?;
                typed_methods!(@take response $($variant)?)
            } )*
        }
    };
    (@ret) => { () };
    (@ret $ret:ty) => { $ret };
    (@take $r:ident) => {
        match $r {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    };
    (@take $r:ident $variant:ident) => {
        match $r {
            Response::$variant(x) => Ok(x),
            other => Err(unexpected(other)),
        }
    };
}

typed_methods! {
    /// Liveness probe.
    fn ping() = Request::Ping;
    /// [`Client::wait_for_epoch`] against one shard of a partitioned
    /// server: epochs are per shard, so pair the epoch with the shard the
    /// write's response named ([`Client::last_shard`]).
    fn wait_for_epoch_on(shard: usize, epoch: u64) -> u64, DurableEpoch
        = Request::WaitForEpoch { epoch, shard };
    /// Fetch the server's read-cache counters (the `cacheStats` op).
    fn cache_stats() -> CacheStatsReport, CacheStats = Request::CacheStats;

    // --- files ---

    /// Create a logical file with creation-time attributes.
    fn create_file(spec: &FileSpec) -> LogicalFile, File
        = Request::CreateFile { spec: spec.clone() };
    /// Create a batch of logical files in one server-side transaction
    /// (the `createFiles` bulk op): all-or-nothing per shard, results in
    /// input order. One round-trip and one commit replace N of each.
    fn create_files(specs: &[FileSpec]) -> Vec<LogicalFile>, Files
        = Request::CreateFiles { specs: specs.to_vec() };
    /// Fetch a file's predefined metadata (the paper's "simple query").
    fn get_file(name: &str) -> LogicalFile, File = Request::GetFile { name: name.into() };
    /// Fetch one version of a file.
    fn get_file_version(name: &str, version: i64) -> LogicalFile, File
        = Request::GetFileVersion { name: name.into(), version };
    /// All versions of a logical name.
    fn get_file_versions(name: &str) -> Vec<LogicalFile>, Files
        = Request::GetFileVersions { name: name.into() };
    /// Update predefined attributes.
    fn update_file(name: &str, update: &FileUpdate) -> LogicalFile, File
        = Request::UpdateFile { name: name.into(), update: update.clone() };
    /// Mark a file invalid.
    fn invalidate_file(name: &str) = Request::InvalidateFile { name: name.into() };
    /// Delete a file and all its metadata.
    fn delete_file(name: &str) = Request::DeleteFile { name: name.into() };
    /// Delete one version of a file.
    fn delete_file_version(name: &str, version: i64)
        = Request::DeleteFileVersion { name: name.into(), version };

    // --- collections ---

    /// Create a collection (optionally nested).
    fn create_collection(name: &str, parent: Option<&str>, description: &str)
        -> Collection, Collection
        = Request::CreateCollection {
            name: name.into(),
            parent: parent.map(str::to_string),
            description: description.into(),
        };
    /// Fetch a collection record.
    fn get_collection(name: &str) -> Collection, Collection
        = Request::GetCollection { name: name.into() };
    /// Delete an empty collection.
    fn delete_collection(name: &str) = Request::DeleteCollection { name: name.into() };
    /// List a collection's direct contents.
    fn list_collection(name: &str) -> CollectionContents, CollectionContents
        = Request::ListCollection { name: name.into() };
    /// Move a file into (or out of) a collection.
    fn assign_collection(file: &str, collection: Option<&str>)
        = Request::AssignCollection { file: file.into(), collection: collection.map(str::to_string) };

    // --- views ---

    /// Create a logical view.
    fn create_view(name: &str, description: &str) -> View, View
        = Request::CreateView { name: name.into(), description: description.into() };
    /// Fetch a view record.
    fn get_view(name: &str) -> View, View = Request::GetView { name: name.into() };
    /// Delete a view.
    fn delete_view(name: &str) = Request::DeleteView { name: name.into() };
    /// Add a member to a view.
    fn add_to_view(view: &str, member: &ObjectRef)
        = Request::AddToView { view: view.into(), member: member.clone() };
    /// Remove a member from a view; true if it was present.
    fn remove_from_view(view: &str, member: &ObjectRef) -> bool, Removed
        = Request::RemoveFromView { view: view.into(), member: member.clone() };
    /// List a view's members.
    fn list_view(name: &str) -> ViewContents, ViewContents
        = Request::ListView { name: name.into() };

    // --- attributes & queries ---

    /// Register a user-defined attribute.
    fn define_attribute(name: &str, ty: AttrType, description: &str)
        = Request::DefineAttribute { name: name.into(), ty, description: description.into() };
    /// Set (upsert) an attribute on an object.
    fn set_attribute(object: &ObjectRef, attr: &Attribute)
        = Request::SetAttribute { object: object.clone(), attr: attr.clone() };
    /// Remove an attribute; true if it was present.
    fn remove_attribute(object: &ObjectRef, name: &str) -> bool, Removed
        = Request::RemoveAttribute { object: object.clone(), name: name.into() };
    /// Fetch an object's user-defined attributes.
    fn get_attributes(object: &ObjectRef) -> Vec<Attribute>, Attributes
        = Request::GetAttributes { object: object.clone() };
    /// Attribute-based discovery (the paper's "complex query"). Returns
    /// matching (logical name, version) pairs.
    fn query_by_attributes(preds: &[AttrPredicate]) -> Vec<(String, i64)>, Hits
        = Request::QueryByAttributes { preds: preds.to_vec() };
    /// EXPLAIN for [`Client::query_by_attributes`]: the evaluation plan
    /// the server's cost-based planner would choose for this
    /// conjunction, one human-readable line per step, without executing
    /// the query.
    fn explain_query(preds: &[AttrPredicate]) -> Vec<String>, Plan
        = Request::ExplainQuery { preds: preds.to_vec() };

    // --- annotations, audit, history ---

    /// Attach an annotation.
    fn annotate(object: &ObjectRef, text: &str)
        = Request::Annotate { object: object.clone(), text: text.into() };
    /// Fetch annotations, oldest first.
    fn get_annotations(object: &ObjectRef) -> Vec<Annotation>, Annotations
        = Request::GetAnnotations { object: object.clone() };
    /// Fetch the audit trail, oldest first.
    fn get_audit_trail(object: &ObjectRef) -> Vec<AuditRecord>, AuditTrail
        = Request::GetAuditTrail { object: object.clone() };
    /// Enable or disable per-access auditing.
    fn set_audit(object: &ObjectRef, enabled: bool)
        = Request::SetAudit { object: object.clone(), enabled };
    /// Append a transformation-history record.
    fn add_history(file: &str, description: &str)
        = Request::AddHistory { file: file.into(), description: description.into() };
    /// Fetch a file's transformation history.
    fn get_history(file: &str) -> Vec<HistoryRecord>, History
        = Request::GetHistory { file: file.into() };

    // --- policy & registries ---

    /// Grant a permission.
    fn grant(object: &ObjectRef, principal: &str, perm: Permission)
        = Request::Grant { object: object.clone(), principal: principal.into(), perm };
    /// Revoke a permission.
    fn revoke(object: &ObjectRef, principal: &str, perm: Permission)
        = Request::Revoke { object: object.clone(), principal: principal.into(), perm };
    /// Register a metadata writer.
    fn register_user(user: &UserRecord) = Request::RegisterUser { user: user.clone() };
    /// Fetch a metadata writer by DN.
    fn get_user(dn: &str) -> UserRecord, User = Request::GetUser { dn: dn.into() };
    /// List all metadata writers.
    fn list_users() -> Vec<UserRecord>, Users = Request::ListUsers;
    /// Register an external catalog pointer.
    fn register_external_catalog(catalog: &ExternalCatalog)
        = Request::RegisterExternalCatalog { catalog: catalog.clone() };
    /// List external catalogs.
    fn list_external_catalogs() -> Vec<ExternalCatalog>, ExternalCatalogs
        = Request::ListExternalCatalogs;
}
