//! The catalog's operations as data: one [`Request`] variant per
//! operation and one [`Response`] variant per result shape.
//!
//! This is the single definition both wire protocols encode
//! ([`crate::wire`] for SOAP, [`crate::binproto::frame`] for the binary
//! framing), the server executes ([`crate::dispatch::execute`]) and the
//! client sends ([`crate::client::Client`]). The table below names each
//! operation once: its variant and arguments, its binary opcode, its SOAP
//! method name and the shape of its successful result.

use mcs::{
    Annotation, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord, LogicalFile,
    ObjectRef, Permission, UserRecord, View, ViewContents,
};

use crate::client::{CacheStatsReport, CatalogInfoReport};

macro_rules! operations {
    ($( $(#[$doc:meta])* $op:ident $({ $($field:ident: $ty:ty),* $(,)? })?
        = $code:literal, $name:literal, $shape:ident; )*) => {
        /// One catalog operation and its arguments. The caller's
        /// credential and per-request options travel beside it
        /// ([`crate::dispatch::Call`]).
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)] // the fields are the operation's arguments
        pub enum Request {
            $( $(#[$doc])* $op $({ $($field: $ty),* })?, )*
        }

        /// Operation codes: the binary protocol's opcode byte, one per
        /// [`Request`] variant.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Op {
            $( $(#[$doc])* $op = $code, )*
        }

        impl Request {
            /// The operation this request invokes.
            pub fn op(&self) -> Op {
                match self {
                    $( Request::$op { .. } => Op::$op, )*
                }
            }
        }

        impl Op {
            /// Every operation, in opcode order.
            pub const ALL: &'static [Op] = &[$(Op::$op),*];

            /// Decode an opcode byte; `None` for anything unassigned.
            pub fn from_u8(b: u8) -> Option<Op> {
                match b {
                    $( $code => Some(Op::$op), )*
                    _ => None,
                }
            }

            /// The operation's SOAP method name (also used in fault
            /// messages, so errors read the same across protocols).
            pub fn name(self) -> &'static str {
                match self {
                    $( Op::$op => $name, )*
                }
            }

            /// The shape of the operation's successful [`Response`].
            pub fn shape(self) -> Shape {
                match self {
                    $( Op::$op => Shape::$shape, )*
                }
            }
        }
    };
}

operations! {
    /// Liveness probe.
    Ping = 0x01, "ping", Unit;
    /// Service topology and vitals.
    CatalogInfo = 0x02, "catalogInfo", CatalogInfo;
    /// Park until a shard's durable watermark covers an epoch.
    WaitForEpoch { epoch: u64, shard: usize } = 0x03, "waitForEpoch", DurableEpoch;
    /// Make every acknowledged write durable now.
    SyncNow = 0x04, "syncNow", Synced;
    /// Read-cache counters.
    CacheStats = 0x05, "cacheStats", CacheStats;
    /// Create one logical file.
    CreateFile { spec: FileSpec } = 0x10, "createFile", File;
    /// Create a batch of logical files in one transaction.
    CreateFiles { specs: Vec<FileSpec> } = 0x11, "createFiles", Files;
    /// Fetch a file (the paper's "simple query").
    GetFile { name: String } = 0x12, "getFile", File;
    /// Fetch one version of a file.
    GetFileVersion { name: String, version: i64 } = 0x13, "getFileVersion", File;
    /// All versions of a logical name.
    GetFileVersions { name: String } = 0x14, "getFileVersions", Files;
    /// Update predefined attributes.
    UpdateFile { name: String, update: FileUpdate } = 0x15, "updateFile", File;
    /// Mark a file invalid.
    InvalidateFile { name: String } = 0x16, "invalidateFile", Unit;
    /// Delete a file.
    DeleteFile { name: String } = 0x17, "deleteFile", Unit;
    /// Delete one version of a file.
    DeleteFileVersion { name: String, version: i64 } = 0x18, "deleteFileVersion", Unit;
    /// Create a collection.
    CreateCollection { name: String, parent: Option<String>, description: String }
        = 0x20, "createCollection", Collection;
    /// Fetch a collection record.
    GetCollection { name: String } = 0x21, "getCollection", Collection;
    /// Delete an empty collection.
    DeleteCollection { name: String } = 0x22, "deleteCollection", Unit;
    /// List a collection's direct contents.
    ListCollection { name: String } = 0x23, "listCollection", CollectionContents;
    /// Move a file into (or out of) a collection.
    AssignCollection { file: String, collection: Option<String> }
        = 0x24, "assignCollection", Unit;
    /// Create a logical view.
    CreateView { name: String, description: String } = 0x30, "createView", View;
    /// Fetch a view record.
    GetView { name: String } = 0x31, "getView", View;
    /// Delete a view.
    DeleteView { name: String } = 0x32, "deleteView", Unit;
    /// Add a member to a view.
    AddToView { view: String, member: ObjectRef } = 0x33, "addToView", Unit;
    /// Remove a member from a view.
    RemoveFromView { view: String, member: ObjectRef } = 0x34, "removeFromView", Removed;
    /// List a view's members.
    ListView { name: String } = 0x35, "listView", ViewContents;
    /// Register a user-defined attribute.
    DefineAttribute { name: String, ty: AttrType, description: String }
        = 0x40, "defineAttribute", Unit;
    /// Set (upsert) an attribute on an object.
    SetAttribute { object: ObjectRef, attr: Attribute } = 0x41, "setAttribute", Unit;
    /// Remove an attribute.
    RemoveAttribute { object: ObjectRef, name: String } = 0x42, "removeAttribute", Removed;
    /// Fetch an object's user-defined attributes.
    GetAttributes { object: ObjectRef } = 0x43, "getAttributes", Attributes;
    /// Attribute-based discovery (the paper's "complex query").
    QueryByAttributes { preds: Vec<AttrPredicate> } = 0x44, "queryByAttributes", Hits;
    /// EXPLAIN for queryByAttributes.
    ExplainQuery { preds: Vec<AttrPredicate> } = 0x45, "explainQuery", Plan;
    /// Attach an annotation.
    Annotate { object: ObjectRef, text: String } = 0x50, "annotate", Unit;
    /// Fetch annotations.
    GetAnnotations { object: ObjectRef } = 0x51, "getAnnotations", Annotations;
    /// Fetch the audit trail.
    GetAuditTrail { object: ObjectRef } = 0x52, "getAuditTrail", AuditTrail;
    /// Enable or disable per-access auditing.
    SetAudit { object: ObjectRef, enabled: bool } = 0x53, "setAudit", Unit;
    /// Append a transformation-history record.
    AddHistory { file: String, description: String } = 0x54, "addHistory", Unit;
    /// Fetch a file's transformation history.
    GetHistory { file: String } = 0x55, "getHistory", History;
    /// Grant a permission.
    Grant { object: ObjectRef, principal: String, perm: Permission } = 0x60, "grant", Unit;
    /// Revoke a permission.
    Revoke { object: ObjectRef, principal: String, perm: Permission } = 0x61, "revoke", Unit;
    /// Register a metadata writer.
    RegisterUser { user: UserRecord } = 0x70, "registerUser", Unit;
    /// Fetch a metadata writer by DN.
    GetUser { dn: String } = 0x71, "getUser", User;
    /// List all metadata writers.
    ListUsers = 0x72, "listUsers", Users;
    /// Register an external catalog pointer.
    RegisterExternalCatalog { catalog: ExternalCatalog }
        = 0x73, "registerExternalCatalog", Unit;
    /// List external catalogs.
    ListExternalCatalogs = 0x74, "listExternalCatalogs", ExternalCatalogs;
}

/// The successful result of an operation, one variant per shape.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // each variant carries the catalog type it names
pub enum Response {
    /// The operation returns nothing.
    Unit,
    /// Whether the removed member or attribute was present.
    Removed(bool),
    File(LogicalFile),
    Files(Vec<LogicalFile>),
    Collection(Collection),
    CollectionContents(CollectionContents),
    View(View),
    ViewContents(ViewContents),
    Attributes(Vec<Attribute>),
    /// Matching (logical name, version) pairs.
    Hits(Vec<(String, i64)>),
    /// One human-readable line per plan step.
    Plan(Vec<String>),
    Annotations(Vec<Annotation>),
    AuditTrail(Vec<AuditRecord>),
    History(Vec<HistoryRecord>),
    User(UserRecord),
    Users(Vec<UserRecord>),
    ExternalCatalogs(Vec<ExternalCatalog>),
    /// Topology and vitals, plus each shard's commit and durable epochs.
    CatalogInfo { report: CatalogInfoReport, commit_epochs: Vec<u64>, durable_epochs: Vec<u64> },
    /// The shard's durable watermark after the wait.
    DurableEpoch(u64),
    /// Every shard's durable epoch after the barrier, shard 0 first.
    Synced(Vec<u64>),
    CacheStats(CacheStatsReport),
}

/// The variant a [`Response`] decoder must produce for an operation —
/// neither wire says which shape a payload is, the request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // one per `Response` variant, same name
pub enum Shape {
    Unit,
    Removed,
    File,
    Files,
    Collection,
    CollectionContents,
    View,
    ViewContents,
    Attributes,
    Hits,
    Plan,
    Annotations,
    AuditTrail,
    History,
    User,
    Users,
    ExternalCatalogs,
    CatalogInfo,
    DurableEpoch,
    Synced,
    CacheStats,
}

/// A successful reply: the result plus the `(epoch, shard)` of whatever
/// the call committed — the handle an async-acknowledged client needs
/// for `waitForEpoch`. Epoch 0 (with shard 0) means the call logged
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The operation's result.
    pub response: Response,
    /// Commit epoch of the call's write, 0 if none.
    pub epoch: u64,
    /// Shard the epoch belongs to.
    pub shard: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_and_names_are_unique() {
        assert_eq!(Op::ALL.len(), 44);
        let names: std::collections::HashSet<_> = Op::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(names.len(), Op::ALL.len());
        for &op in Op::ALL {
            assert_eq!(Op::from_u8(op as u8), Some(op));
        }
        assert_eq!(Op::from_u8(0xEE), None);
    }
}
