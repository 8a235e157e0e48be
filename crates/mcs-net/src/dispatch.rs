//! Execution shared by both wire front ends: every catalog operation's
//! semantics live in [`execute`], and nowhere else.
//!
//! SOAP carries the per-request options as method-element attributes
//! (`mcs:durability`, `mcs:cache`); the binary protocol carries them as
//! request-flag bits (DESIGN.md §7.7). Both decode into the same
//! [`Call`] and run through [`execute`], so a durability override, a
//! cache bypass and the epoch/shard echo behave identically regardless
//! of which framing delivered the request.

use mcs::{Credential, McsError, ShardedCatalog};
use soapstack::xml::XmlError;
use soapstack::Fault;

use crate::client::{CacheStatsReport, CatalogInfoReport, DurabilityMode, FaultKind};
use crate::ops::{Reply, Request, Response};

/// Per-request options decoded from either wire framing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallScope {
    /// Override the store-wide commit policy for this call.
    pub durability: Option<DurabilityMode>,
    /// Run every read in this call on the uncached path.
    pub cache_bypass: bool,
}

/// One decoded request: who asks, under which options, for what.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// The caller's credential.
    pub cred: Credential,
    /// Per-request options.
    pub scope: CallScope,
    /// The operation and its arguments.
    pub request: Request,
}

/// The fault a catalog error is reported as; its code names the
/// [`FaultKind`] the client reconstructs.
pub fn fault_of(e: McsError) -> Fault {
    let kind = match e {
        McsError::NotFound(_) => FaultKind::NotFound,
        McsError::AlreadyExists(_) => FaultKind::AlreadyExists,
        McsError::PermissionDenied { .. } => FaultKind::PermissionDenied,
        McsError::InvalidName(_) => FaultKind::InvalidName,
        McsError::CycleDetected(_) => FaultKind::CycleDetected,
        McsError::AlreadyInCollection { .. } => FaultKind::AlreadyInCollection,
        McsError::CollectionNotEmpty(_) => FaultKind::CollectionNotEmpty,
        McsError::BadAttribute(_) => FaultKind::BadAttribute,
        McsError::VersionConflict(_) => FaultKind::VersionConflict,
        McsError::DurabilityLost(_) => FaultKind::DurabilityLost,
        McsError::Db(_) => FaultKind::Db,
        McsError::Internal(_) => FaultKind::Internal,
    };
    Fault { code: format!("soap:Server.{kind:?}"), message: e.to_string() }
}

/// The fault a malformed request is reported as, whichever wire it came
/// on: the client-side error kind is `BadArguments` either way.
pub fn bad_arguments(e: XmlError) -> Fault {
    Fault { code: "soap:Client.BadArguments".into(), message: e.to_string() }
}

/// The server-side commit policy a [`DurabilityMode`] header selects.
/// `Group`/`Async` use the server's default batching window; the window
/// is server policy, not something clients get to pick.
pub fn durability_of(mode: DurabilityMode) -> mcs::Durability {
    let window = std::time::Duration::from_millis(2);
    match mode {
        DurabilityMode::Always => mcs::Durability::Always,
        DurabilityMode::Group => mcs::Durability::Group { max_wait: window, max_batch: 64 },
        DurabilityMode::Async => mcs::Durability::Async { max_wait: window, max_batch: 64 },
    }
}

/// Run one request under its [`CallScope`] — the durability override
/// (if any) and the cache bypass apply to everything it does — and
/// report the `(epoch, shard)` of whatever it committed.
pub fn execute(
    catalog: &ShardedCatalog,
    cred: &Credential,
    scope: CallScope,
    request: Request,
) -> Result<Reply, Fault> {
    if let Request::WaitForEpoch { shard, .. } = request {
        if shard >= catalog.shards() {
            return Err(bad_arguments(XmlError::Shape(format!(
                "shard {shard} out of range (catalog has {})",
                catalog.shards()
            ))));
        }
    }
    let body = move |c: &ShardedCatalog| {
        if scope.cache_bypass {
            c.with_cache_bypass(|c| run(c, cred, request))
        } else {
            run(c, cred, request)
        }
    };
    let (result, epoch, shard) = match scope.durability {
        Some(mode) => catalog.with_durability(durability_of(mode), body),
        None => catalog.track_epoch(body),
    };
    let response = result.map_err(fault_of)?;
    // A call that logged nothing echoes (0, 0).
    Ok(Reply { response, epoch, shard: if epoch == 0 { 0 } else { shard } })
}

/// The one catalog call behind each operation.
fn run(mcs: &ShardedCatalog, cred: &Credential, request: Request) -> mcs::Result<Response> {
    use Request as Q;
    use Response as R;
    Ok(match request {
        Q::Ping => R::Unit,
        Q::CatalogInfo => R::CatalogInfo {
            report: CatalogInfoReport {
                shards: mcs.shards(),
                profile: format!("{:?}", mcs.index_profile()),
                files: mcs.file_count()? as u64,
                cache_enabled: mcs.cache_enabled(),
            },
            commit_epochs: mcs.commit_epochs(),
            durable_epochs: mcs.durable_epochs(),
        },
        Q::WaitForEpoch { epoch, shard } => {
            mcs.wait_for_epoch(shard, epoch)?;
            R::DurableEpoch(mcs.durable_epoch(shard)?)
        }
        Q::SyncNow => R::Synced(mcs.sync_now()?),
        Q::CacheStats => {
            let s = mcs.cache_stats().unwrap_or_default();
            R::CacheStats(CacheStatsReport {
                enabled: mcs.cache_enabled(),
                hits: s.hits,
                misses: s.misses,
                stale: s.stale,
                evictions: s.evictions,
            })
        }
        Q::CreateFile { spec } => R::File(mcs.create_file(cred, &spec)?),
        Q::CreateFiles { specs } => R::Files(mcs.create_files(cred, &specs)?),
        Q::GetFile { name } => R::File(mcs.get_file(cred, &name)?),
        Q::GetFileVersion { name, version } => R::File(mcs.get_file_version(cred, &name, version)?),
        Q::GetFileVersions { name } => R::Files(mcs.get_file_versions(cred, &name)?),
        Q::UpdateFile { name, update } => R::File(mcs.update_file(cred, &name, &update)?),
        Q::InvalidateFile { name } => unit(mcs.invalidate_file(cred, &name))?,
        Q::DeleteFile { name } => unit(mcs.delete_file(cred, &name))?,
        Q::DeleteFileVersion { name, version } => {
            unit(mcs.delete_file_version(cred, &name, version))?
        }
        Q::CreateCollection { name, parent, description } => R::Collection(
            mcs.create_collection(cred, &name, parent.as_deref(), &description)?,
        ),
        Q::GetCollection { name } => R::Collection(mcs.get_collection(cred, &name)?),
        Q::DeleteCollection { name } => unit(mcs.delete_collection(cred, &name))?,
        Q::ListCollection { name } => R::CollectionContents(mcs.list_collection(cred, &name)?),
        Q::AssignCollection { file, collection } => {
            unit(mcs.assign_collection(cred, &file, collection.as_deref()))?
        }
        Q::CreateView { name, description } => R::View(mcs.create_view(cred, &name, &description)?),
        Q::GetView { name } => R::View(mcs.get_view(cred, &name)?),
        Q::DeleteView { name } => unit(mcs.delete_view(cred, &name))?,
        Q::AddToView { view, member } => unit(mcs.add_to_view(cred, &view, &member))?,
        Q::RemoveFromView { view, member } => {
            R::Removed(mcs.remove_from_view(cred, &view, &member)?)
        }
        Q::ListView { name } => R::ViewContents(mcs.list_view(cred, &name)?),
        Q::DefineAttribute { name, ty, description } => {
            unit(mcs.define_attribute(cred, &name, ty, &description))?
        }
        Q::SetAttribute { object, attr } => unit(mcs.set_attribute(cred, &object, &attr))?,
        Q::RemoveAttribute { object, name } => {
            R::Removed(mcs.remove_attribute(cred, &object, &name)?)
        }
        Q::GetAttributes { object } => R::Attributes(mcs.get_attributes(cred, &object)?),
        Q::QueryByAttributes { preds } => R::Hits(mcs.query_by_attributes(cred, &preds)?),
        Q::ExplainQuery { preds } => R::Plan(mcs.explain_query(cred, &preds)?),
        Q::Annotate { object, text } => unit(mcs.annotate(cred, &object, &text))?,
        Q::GetAnnotations { object } => R::Annotations(mcs.get_annotations(cred, &object)?),
        Q::GetAuditTrail { object } => R::AuditTrail(mcs.get_audit_trail(cred, &object)?),
        Q::SetAudit { object, enabled } => unit(mcs.set_audit(cred, &object, enabled))?,
        Q::AddHistory { file, description } => unit(mcs.add_history(cred, &file, &description))?,
        Q::GetHistory { file } => R::History(mcs.get_history(cred, &file)?),
        Q::Grant { object, principal, perm } => unit(mcs.grant(cred, &object, &principal, perm))?,
        Q::Revoke { object, principal, perm } => unit(mcs.revoke(cred, &object, &principal, perm))?,
        Q::RegisterUser { user } => unit(mcs.register_user(cred, &user))?,
        Q::GetUser { dn } => R::User(mcs.get_user(cred, &dn)?),
        Q::ListUsers => R::Users(mcs.list_users(cred)?),
        Q::RegisterExternalCatalog { catalog } => {
            unit(mcs.register_external_catalog(cred, &catalog))?
        }
        Q::ListExternalCatalogs => R::ExternalCatalogs(mcs.list_external_catalogs(cred)?),
    })
}

fn unit<T>(r: mcs::Result<T>) -> mcs::Result<Response> {
    r.map(|_| Response::Unit)
}
