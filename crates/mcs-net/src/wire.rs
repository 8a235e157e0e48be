//! Wire encoding of MCS types to and from SOAP body elements.
//!
//! The encoding is doc/literal-ish: every record becomes an element whose
//! children are named fields; typed values carry a `type` attribute.
//! Both the server and the client use these functions, so a round-trip
//! through them is the identity (property-tested).

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use relstore::{Date, DateTime, Time, Value};
use soapstack::soap::MCS_NS;
use soapstack::xml::{Element, XmlError};
use soapstack::Fault;

use crate::client::{CacheStatsReport, CatalogInfoReport, DurabilityMode};
use crate::dispatch::{bad_arguments, Call, CallScope};
use crate::ops::{Op, Reply, Request, Response, Shape};

/// Wire-decoding error.
pub fn shape(msg: impl Into<String>) -> XmlError {
    XmlError::Shape(msg.into())
}

/// Result alias for wire decoding.
pub type Result<T> = std::result::Result<T, XmlError>;

// ---------- scalar helpers ----------

/// Encode a typed value as `<{name} type="...">text</{name}>`.
pub fn value_el(name: &str, v: &Value) -> Element {
    let (ty, text) = match v {
        Value::Null => ("null", String::new()),
        Value::Int(i) => ("int", i.to_string()),
        Value::Float(x) => ("float", format_float(*x)),
        Value::Str(s) => ("string", s.to_string()),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Date(d) => ("date", d.to_string()),
        Value::Time(t) => ("time", t.to_string()),
        Value::DateTime(dt) => ("datetime", dt.to_string()),
    };
    let e = Element::new(name).attr("type", ty);
    if text.is_empty() {
        e
    } else {
        e.text(text)
    }
}

fn format_float(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else if x.is_infinite() {
        if x > 0.0 { "inf".into() } else { "-inf".into() }
    } else {
        // Rust's shortest round-trip formatting
        format!("{x}")
    }
}

/// Decode a value element produced by [`value_el`].
pub fn value_from(e: &Element) -> Result<Value> {
    let ty = e.attr_value("type").ok_or_else(|| shape("value without type"))?;
    let text = e.text_content();
    Ok(match ty {
        "null" => Value::Null,
        "int" => Value::Int(text.parse().map_err(|_| shape(format!("bad int `{text}`")))?),
        "float" => Value::Float(match text.as_str() {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            t => t.parse().map_err(|_| shape(format!("bad float `{t}`")))?,
        }),
        "string" => Value::from(text),
        "bool" => Value::Bool(text == "true"),
        "date" => Value::Date(Date::parse(&text).map_err(|e| shape(e.to_string()))?),
        "time" => Value::Time(Time::parse(&text).map_err(|e| shape(e.to_string()))?),
        "datetime" => {
            Value::DateTime(DateTime::parse(&text).map_err(|e| shape(e.to_string()))?)
        }
        other => return Err(shape(format!("unknown value type `{other}`"))),
    })
}

/// `<{name}>text</{name}>`.
pub fn text_el(name: &str, text: impl Into<String>) -> Element {
    Element::new(name).text(text)
}

/// Required child element's text.
pub fn req_text(e: &Element, name: &str) -> Result<String> {
    Ok(e.expect(name)?.text_content())
}

/// Optional child element's text (absent element = None).
pub fn opt_text(e: &Element, name: &str) -> Option<String> {
    e.find(name).map(|c| c.text_content())
}

/// Required child parsed as i64.
pub fn req_i64(e: &Element, name: &str) -> Result<i64> {
    req_text(e, name)?.parse().map_err(|_| shape(format!("bad i64 in <{name}>")))
}

/// Required child parsed as bool.
pub fn req_bool(e: &Element, name: &str) -> Result<bool> {
    Ok(req_text(e, name)? == "true")
}

fn req_datetime(e: &Element, name: &str) -> Result<DateTime> {
    DateTime::parse(&req_text(e, name)?).map_err(|e| shape(e.to_string()))
}

fn opt_datetime(e: &Element, name: &str) -> Result<Option<DateTime>> {
    opt_text(e, name)
        .map(|t| DateTime::parse(&t).map_err(|e| shape(e.to_string())))
        .transpose()
}

// ---------- credential ----------

/// Encode a credential.
pub fn credential_el(c: &Credential) -> Element {
    let mut e = Element::new("credential").child(text_el("dn", &c.dn));
    for g in &c.groups {
        e = e.child(text_el("group", g));
    }
    e
}

/// Decode a credential from a method element.
pub fn credential_from(call: &Element) -> Result<Credential> {
    let e = call.expect("credential")?;
    Ok(Credential {
        dn: req_text(e, "dn")?,
        groups: e.find_all("group").map(|g| g.text_content()).collect(),
    })
}

// ---------- object references ----------

/// Encode an [`ObjectRef`].
pub fn objref_el(r: &ObjectRef) -> Element {
    match r {
        ObjectRef::File(n) => Element::new("object").attr("kind", "file").text(n),
        ObjectRef::FileVersion(n, v) => Element::new("object")
            .attr("kind", "fileVersion")
            .attr("version", v.to_string())
            .text(n),
        ObjectRef::Collection(n) => Element::new("object").attr("kind", "collection").text(n),
        ObjectRef::View(n) => Element::new("object").attr("kind", "view").text(n),
        ObjectRef::Service => Element::new("object").attr("kind", "service"),
    }
}

/// Decode an [`ObjectRef`] child of a method element.
pub fn objref_from(call: &Element) -> Result<ObjectRef> {
    let e = call.expect("object")?;
    let kind = e.attr_value("kind").ok_or_else(|| shape("object without kind"))?;
    let name = e.text_content();
    Ok(match kind {
        "file" => ObjectRef::File(name),
        "fileVersion" => {
            let v = e
                .attr_value("version")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| shape("fileVersion without version"))?;
            ObjectRef::FileVersion(name, v)
        }
        "collection" => ObjectRef::Collection(name),
        "view" => ObjectRef::View(name),
        "service" => ObjectRef::Service,
        other => return Err(shape(format!("unknown object kind `{other}`"))),
    })
}

// ---------- attributes & predicates ----------

/// Encode one attribute.
pub fn attribute_el(a: &Attribute) -> Element {
    Element::new("attribute").attr("name", a.name.as_str()).child(value_el("value", &a.value))
}

/// Decode one attribute element.
pub fn attribute_from(e: &Element) -> Result<Attribute> {
    Ok(Attribute {
        name: e.attr_value("name").ok_or_else(|| shape("attribute without name"))?.to_owned(),
        value: value_from(e.expect("value")?)?,
    })
}

fn op_code(op: AttrOp) -> &'static str {
    match op {
        AttrOp::Eq => "eq",
        AttrOp::Ne => "ne",
        AttrOp::Lt => "lt",
        AttrOp::Le => "le",
        AttrOp::Gt => "gt",
        AttrOp::Ge => "ge",
        AttrOp::Like => "like",
    }
}

fn op_from(s: &str) -> Result<AttrOp> {
    Ok(match s {
        "eq" => AttrOp::Eq,
        "ne" => AttrOp::Ne,
        "lt" => AttrOp::Lt,
        "le" => AttrOp::Le,
        "gt" => AttrOp::Gt,
        "ge" => AttrOp::Ge,
        "like" => AttrOp::Like,
        other => return Err(shape(format!("unknown op `{other}`"))),
    })
}

/// Encode a query predicate.
pub fn predicate_el(p: &AttrPredicate) -> Element {
    Element::new("predicate")
        .attr("name", p.name.as_str())
        .attr("op", op_code(p.op))
        .child(value_el("value", &p.value))
}

/// Decode a query predicate.
pub fn predicate_from(e: &Element) -> Result<AttrPredicate> {
    Ok(AttrPredicate {
        name: e.attr_value("name").ok_or_else(|| shape("predicate without name"))?.to_owned(),
        op: op_from(e.attr_value("op").ok_or_else(|| shape("predicate without op"))?)?,
        value: value_from(e.expect("value")?)?,
    })
}

/// Encode an [`AttrType`].
pub fn attr_type_code(t: AttrType) -> &'static str {
    match t {
        AttrType::Str => "string",
        AttrType::Int => "int",
        AttrType::Float => "float",
        AttrType::Date => "date",
        AttrType::Time => "time",
        AttrType::DateTime => "datetime",
    }
}

/// Decode an [`AttrType`].
pub fn attr_type_from(s: &str) -> Result<AttrType> {
    Ok(match s {
        "string" => AttrType::Str,
        "int" => AttrType::Int,
        "float" => AttrType::Float,
        "date" => AttrType::Date,
        "time" => AttrType::Time,
        "datetime" => AttrType::DateTime,
        other => return Err(shape(format!("unknown attr type `{other}`"))),
    })
}

/// Encode a [`Permission`].
pub fn permission_code(p: Permission) -> &'static str {
    match p {
        Permission::Read => "read",
        Permission::Write => "write",
        Permission::Delete => "delete",
        Permission::Admin => "admin",
    }
}

/// Decode a [`Permission`].
pub fn permission_from(s: &str) -> Result<Permission> {
    Ok(match s {
        "read" => Permission::Read,
        "write" => Permission::Write,
        "delete" => Permission::Delete,
        "admin" => Permission::Admin,
        other => return Err(shape(format!("unknown permission `{other}`"))),
    })
}

// ---------- records ----------

fn opt_child(mut e: Element, name: &str, v: &Option<String>) -> Element {
    if let Some(s) = v {
        e = e.child(text_el(name, s));
    }
    e
}

/// Encode a [`LogicalFile`].
pub fn file_el(f: &LogicalFile) -> Element {
    let mut e = Element::new("file")
        .child(text_el("id", f.id.to_string()))
        .child(text_el("name", &f.name))
        .child(text_el("version", f.version.to_string()))
        .child(text_el("valid", f.valid.to_string()))
        .child(text_el("creator", &f.creator))
        .child(text_el("created", f.created.to_string()))
        .child(text_el("auditEnabled", f.audit_enabled.to_string()));
    e = opt_child(e, "dataType", &f.data_type);
    if let Some(cid) = f.collection_id {
        e = e.child(text_el("collectionId", cid.to_string()));
    }
    e = opt_child(e, "containerId", &f.container_id);
    e = opt_child(e, "containerService", &f.container_service);
    e = opt_child(e, "lastModifier", &f.last_modifier);
    if let Some(lm) = f.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    opt_child(e, "masterCopy", &f.master_copy)
}

/// Decode a [`LogicalFile`].
pub fn file_from(e: &Element) -> Result<LogicalFile> {
    Ok(LogicalFile {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        version: req_i64(e, "version")?,
        data_type: opt_text(e, "dataType"),
        valid: req_bool(e, "valid")?,
        collection_id: opt_text(e, "collectionId")
            .map(|s| s.parse().map_err(|_| shape("bad collectionId")))
            .transpose()?,
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        master_copy: opt_text(e, "masterCopy"),
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`Collection`].
pub fn collection_el(c: &Collection) -> Element {
    let mut e = Element::new("collection")
        .child(text_el("id", c.id.to_string()))
        .child(text_el("name", &c.name))
        .child(text_el("description", &c.description))
        .child(text_el("creator", &c.creator))
        .child(text_el("created", c.created.to_string()))
        .child(text_el("auditEnabled", c.audit_enabled.to_string()));
    if let Some(p) = c.parent_id {
        e = e.child(text_el("parentId", p.to_string()));
    }
    e = opt_child(e, "lastModifier", &c.last_modifier);
    if let Some(lm) = c.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    e
}

/// Decode a [`Collection`].
pub fn collection_from(e: &Element) -> Result<Collection> {
    Ok(Collection {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        description: req_text(e, "description")?,
        parent_id: opt_text(e, "parentId")
            .map(|s| s.parse().map_err(|_| shape("bad parentId")))
            .transpose()?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`View`].
pub fn view_el(v: &View) -> Element {
    let mut e = Element::new("view")
        .child(text_el("id", v.id.to_string()))
        .child(text_el("name", &v.name))
        .child(text_el("description", &v.description))
        .child(text_el("creator", &v.creator))
        .child(text_el("created", v.created.to_string()))
        .child(text_el("auditEnabled", v.audit_enabled.to_string()));
    e = opt_child(e, "lastModifier", &v.last_modifier);
    if let Some(lm) = v.last_modified {
        e = e.child(text_el("lastModified", lm.to_string()));
    }
    e
}

/// Decode a [`View`].
pub fn view_from(e: &Element) -> Result<View> {
    Ok(View {
        id: req_i64(e, "id")?,
        name: req_text(e, "name")?,
        description: req_text(e, "description")?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
        last_modifier: opt_text(e, "lastModifier"),
        last_modified: opt_datetime(e, "lastModified")?,
        audit_enabled: req_bool(e, "auditEnabled")?,
    })
}

/// Encode a [`FileSpec`].
pub fn filespec_el(s: &FileSpec) -> Element {
    let mut e = Element::new("fileSpec").child(text_el("name", &s.name));
    if let Some(v) = s.version {
        e = e.child(text_el("version", v.to_string()));
    }
    e = opt_child(e, "dataType", &s.data_type);
    e = opt_child(e, "collection", &s.collection);
    e = opt_child(e, "containerId", &s.container_id);
    e = opt_child(e, "containerService", &s.container_service);
    e = opt_child(e, "masterCopy", &s.master_copy);
    e = e.child(text_el("audit", s.audit.to_string()));
    for a in &s.attributes {
        e = e.child(attribute_el(a));
    }
    e
}

/// Decode a [`FileSpec`].
pub fn filespec_from(e: &Element) -> Result<FileSpec> {
    Ok(FileSpec {
        name: req_text(e, "name")?,
        version: opt_text(e, "version")
            .map(|s| s.parse().map_err(|_| shape("bad version")))
            .transpose()?,
        data_type: opt_text(e, "dataType"),
        collection: opt_text(e, "collection"),
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
        master_copy: opt_text(e, "masterCopy"),
        audit: req_bool(e, "audit")?,
        attributes: e.find_all("attribute").map(attribute_from).collect::<Result<_>>()?,
    })
}

/// Encode a [`FileUpdate`].
pub fn fileupdate_el(u: &FileUpdate) -> Element {
    let mut e = Element::new("fileUpdate");
    e = opt_child(e, "dataType", &u.data_type);
    if let Some(v) = u.valid {
        e = e.child(text_el("valid", v.to_string()));
    }
    e = opt_child(e, "masterCopy", &u.master_copy);
    e = opt_child(e, "containerId", &u.container_id);
    opt_child(e, "containerService", &u.container_service)
}

/// Decode a [`FileUpdate`].
pub fn fileupdate_from(e: &Element) -> Result<FileUpdate> {
    Ok(FileUpdate {
        data_type: opt_text(e, "dataType"),
        valid: opt_text(e, "valid").map(|s| s == "true"),
        master_copy: opt_text(e, "masterCopy"),
        container_id: opt_text(e, "containerId"),
        container_service: opt_text(e, "containerService"),
    })
}

/// Encode collection contents.
pub fn collection_contents_el(c: &CollectionContents) -> Element {
    let mut e = Element::new("contents");
    for (n, v) in &c.files {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    for n in &c.subcollections {
        e = e.child(text_el("subcollection", n));
    }
    e
}

/// Decode collection contents.
pub fn collection_contents_from(e: &Element) -> Result<CollectionContents> {
    let mut out = CollectionContents::default();
    for f in e.find_all("file") {
        let v = f
            .attr_value("version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("file without version"))?;
        out.files.push((f.text_content(), v));
    }
    out.subcollections = e.find_all("subcollection").map(|c| c.text_content()).collect();
    Ok(out)
}

/// Encode view contents.
pub fn view_contents_el(c: &ViewContents) -> Element {
    let mut e = Element::new("contents");
    for (n, v) in &c.files {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    for n in &c.collections {
        e = e.child(text_el("collection", n));
    }
    for n in &c.views {
        e = e.child(text_el("view", n));
    }
    e
}

/// Decode view contents.
pub fn view_contents_from(e: &Element) -> Result<ViewContents> {
    let mut out = ViewContents::default();
    for f in e.find_all("file") {
        let v = f
            .attr_value("version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("file without version"))?;
        out.files.push((f.text_content(), v));
    }
    out.collections = e.find_all("collection").map(|c| c.text_content()).collect();
    out.views = e.find_all("view").map(|c| c.text_content()).collect();
    Ok(out)
}

/// Encode an annotation.
pub fn annotation_el(a: &Annotation) -> Element {
    Element::new("annotation")
        .attr("objectType", object_type_code(a.object_type))
        .attr("objectId", a.object_id.to_string())
        .child(text_el("text", &a.text))
        .child(text_el("creator", &a.creator))
        .child(text_el("created", a.created.to_string()))
}

/// Decode an annotation.
pub fn annotation_from(e: &Element) -> Result<Annotation> {
    Ok(Annotation {
        object_type: object_type_from(
            e.attr_value("objectType").ok_or_else(|| shape("no objectType"))?,
        )?,
        object_id: e
            .attr_value("objectId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad objectId"))?,
        text: req_text(e, "text")?,
        creator: req_text(e, "creator")?,
        created: req_datetime(e, "created")?,
    })
}

/// Encode an audit record.
pub fn audit_el(r: &AuditRecord) -> Element {
    Element::new("audit")
        .attr("objectType", object_type_code(r.object_type))
        .attr("objectId", r.object_id.to_string())
        .child(text_el("action", &r.action))
        .child(text_el("actor", &r.actor))
        .child(text_el("at", r.at.to_string()))
        .child(text_el("details", &r.details))
}

/// Decode an audit record.
pub fn audit_from(e: &Element) -> Result<AuditRecord> {
    Ok(AuditRecord {
        object_type: object_type_from(
            e.attr_value("objectType").ok_or_else(|| shape("no objectType"))?,
        )?,
        object_id: e
            .attr_value("objectId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad objectId"))?,
        action: req_text(e, "action")?,
        actor: req_text(e, "actor")?,
        at: req_datetime(e, "at")?,
        details: req_text(e, "details")?,
    })
}

/// Encode a history record.
pub fn history_el(r: &HistoryRecord) -> Element {
    Element::new("history")
        .attr("fileId", r.file_id.to_string())
        .child(text_el("description", &r.description))
        .child(text_el("actor", &r.actor))
        .child(text_el("at", r.at.to_string()))
}

/// Decode a history record.
pub fn history_from(e: &Element) -> Result<HistoryRecord> {
    Ok(HistoryRecord {
        file_id: e
            .attr_value("fileId")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| shape("bad fileId"))?,
        description: req_text(e, "description")?,
        actor: req_text(e, "actor")?,
        at: req_datetime(e, "at")?,
    })
}

/// Encode a user record.
pub fn user_el(u: &UserRecord) -> Element {
    Element::new("user")
        .child(text_el("dn", &u.dn))
        .child(text_el("description", &u.description))
        .child(text_el("institution", &u.institution))
        .child(text_el("email", &u.email))
        .child(text_el("phone", &u.phone))
}

/// Decode a user record.
pub fn user_from(e: &Element) -> Result<UserRecord> {
    Ok(UserRecord {
        dn: req_text(e, "dn")?,
        description: req_text(e, "description")?,
        institution: req_text(e, "institution")?,
        email: req_text(e, "email")?,
        phone: req_text(e, "phone")?,
    })
}

/// Encode an external catalog record.
pub fn extcat_el(c: &ExternalCatalog) -> Element {
    Element::new("externalCatalog")
        .child(text_el("name", &c.name))
        .child(text_el("catalogType", &c.catalog_type))
        .child(text_el("host", &c.host))
        .child(text_el("ip", &c.ip))
        .child(text_el("description", &c.description))
}

/// Decode an external catalog record.
pub fn extcat_from(e: &Element) -> Result<ExternalCatalog> {
    Ok(ExternalCatalog {
        name: req_text(e, "name")?,
        catalog_type: req_text(e, "catalogType")?,
        host: req_text(e, "host")?,
        ip: req_text(e, "ip")?,
        description: req_text(e, "description")?,
    })
}

/// Encode an object-type tag.
pub fn object_type_code(t: ObjectType) -> &'static str {
    match t {
        ObjectType::File => "file",
        ObjectType::Collection => "collection",
        ObjectType::View => "view",
        ObjectType::Service => "service",
    }
}

/// Decode an object-type tag.
pub fn object_type_from(s: &str) -> Result<ObjectType> {
    Ok(match s {
        "file" => ObjectType::File,
        "collection" => ObjectType::Collection,
        "view" => ObjectType::View,
        "service" => ObjectType::Service,
        other => return Err(shape(format!("unknown object type `{other}`"))),
    })
}

/// Encode a list of (name, version) hits.
pub fn hits_el(hits: &[(String, i64)]) -> Element {
    let mut e = Element::new("hits");
    for (n, v) in hits {
        e = e.child(Element::new("file").attr("version", v.to_string()).text(n));
    }
    e
}

/// Decode a list of (name, version) hits.
pub fn hits_from(e: &Element) -> Result<Vec<(String, i64)>> {
    e.find_all("file")
        .map(|f| {
            let v = f
                .attr_value("version")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| shape("file without version"))?;
            Ok((f.text_content(), v))
        })
        .collect()
}

// ---------- requests and replies ----------

fn durability_code(mode: DurabilityMode) -> &'static str {
    match mode {
        DurabilityMode::Always => "always",
        DurabilityMode::Group => "group",
        DurabilityMode::Async => "async",
    }
}

fn epoch_list(epochs: &[u64]) -> String {
    epochs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

fn req_num<T: std::str::FromStr>(e: &Element, name: &str) -> Result<T> {
    req_text(e, name)?.parse().map_err(|_| shape(format!("bad number in <{name}>")))
}

fn req_epochs(e: &Element, name: &str) -> Result<Vec<u64>> {
    req_text(e, name)?
        .split_whitespace()
        .map(|s| s.parse().map_err(|_| shape(format!("bad epoch in <{name}>"))))
        .collect()
}

fn predicates_from(call: &Element) -> Result<Vec<AttrPredicate>> {
    call.find_all("predicate").map(predicate_from).collect()
}

/// Encode a call as the method element's argument tree: the credential
/// first, the operation's arguments after it, and the per-request
/// options as attributes (`mcs:durability`, `mcs:cache`).
pub fn call_el(cred: &Credential, scope: CallScope, req: &Request) -> Element {
    use Request as Q;
    let mut a = Element::new("a").child(credential_el(cred));
    if scope.durability.is_some() || scope.cache_bypass {
        a = a.attr("xmlns:mcs", MCS_NS);
    }
    if let Some(mode) = scope.durability {
        a = a.attr("mcs:durability", durability_code(mode));
    }
    if scope.cache_bypass {
        a = a.attr("mcs:cache", "bypass");
    }
    let text = |a: Element, name: &str, v: &str| a.child(text_el(name, v));
    match req {
        Q::Ping | Q::CatalogInfo | Q::SyncNow | Q::CacheStats | Q::ListUsers => a,
        Q::ListExternalCatalogs => a,
        Q::WaitForEpoch { epoch, shard } => {
            let a = text(a, "epoch", &epoch.to_string());
            // shard 0 is the default, left out
            if *shard > 0 {
                text(a, "shard", &shard.to_string())
            } else {
                a
            }
        }
        Q::CreateFile { spec } => a.child(filespec_el(spec)),
        Q::CreateFiles { specs } => specs.iter().map(filespec_el).fold(a, Element::child),
        Q::GetFile { name }
        | Q::GetFileVersions { name }
        | Q::InvalidateFile { name }
        | Q::DeleteFile { name }
        | Q::GetCollection { name }
        | Q::DeleteCollection { name }
        | Q::ListCollection { name }
        | Q::GetView { name }
        | Q::DeleteView { name }
        | Q::ListView { name } => text(a, "name", name),
        Q::GetFileVersion { name, version } | Q::DeleteFileVersion { name, version } => {
            text(text(a, "name", name), "version", &version.to_string())
        }
        Q::UpdateFile { name, update } => text(a, "name", name).child(fileupdate_el(update)),
        Q::CreateCollection { name, parent, description } => {
            text(opt_child(text(a, "name", name), "parent", parent), "description", description)
        }
        Q::AssignCollection { file, collection } => {
            opt_child(text(a, "file", file), "collection", collection)
        }
        Q::CreateView { name, description } => {
            text(text(a, "name", name), "description", description)
        }
        Q::AddToView { view, member } | Q::RemoveFromView { view, member } => {
            text(a, "view", view).child(objref_el(member))
        }
        Q::DefineAttribute { name, ty, description } => {
            let a = text(text(a, "name", name), "attrType", attr_type_code(*ty));
            text(a, "description", description)
        }
        Q::SetAttribute { object, attr } => a.child(objref_el(object)).child(attribute_el(attr)),
        Q::RemoveAttribute { object, name } => text(a.child(objref_el(object)), "name", name),
        Q::GetAttributes { object }
        | Q::GetAnnotations { object }
        | Q::GetAuditTrail { object } => a.child(objref_el(object)),
        Q::QueryByAttributes { preds } | Q::ExplainQuery { preds } => {
            preds.iter().map(predicate_el).fold(a, Element::child)
        }
        Q::Annotate { object, text: t } => text(a.child(objref_el(object)), "text", t),
        Q::SetAudit { object, enabled } => {
            text(a.child(objref_el(object)), "enabled", &enabled.to_string())
        }
        Q::AddHistory { file, description } => {
            text(text(a, "file", file), "description", description)
        }
        Q::GetHistory { file } => text(a, "file", file),
        Q::Grant { object, principal, perm } | Q::Revoke { object, principal, perm } => {
            let a = text(a.child(objref_el(object)), "principal", principal);
            text(a, "permission", permission_code(*perm))
        }
        Q::RegisterUser { user } => a.child(user_el(user)),
        Q::GetUser { dn } => text(a, "dn", dn),
        Q::RegisterExternalCatalog { catalog } => a.child(extcat_el(catalog)),
    }
}

/// Decode the per-request options on a method element. Unknown modes
/// are rejected rather than ignored.
fn scope_from(call: &Element) -> std::result::Result<CallScope, Fault> {
    let bad = |message: String| Fault { code: "soap:Client.BadArguments".into(), message };
    let durability = match call.attr_value("mcs:durability") {
        None => None,
        Some("always") => Some(DurabilityMode::Always),
        Some("group") => Some(DurabilityMode::Group),
        Some("async") => Some(DurabilityMode::Async),
        Some(other) => {
            return Err(bad(format!(
                "unknown mcs:durability mode `{other}` (expected always|group|async)"
            )))
        }
    };
    let cache_bypass = match call.attr_value("mcs:cache") {
        None => false,
        Some("bypass") => true,
        Some(other) => {
            return Err(bad(format!("unknown mcs:cache mode `{other}` (expected bypass)")))
        }
    };
    Ok(CallScope { durability, cache_bypass })
}

/// Decode a method element of operation `op` into a [`Call`].
pub fn call_from(op: Op, call: &Element) -> std::result::Result<Call, Fault> {
    let scope = scope_from(call)?;
    let cred = match credential_from(call) {
        // ping is the one operation that never looked at the caller
        Err(_) if op == Op::Ping => Credential::new(""),
        r => r.map_err(bad_arguments)?,
    };
    let request = request_from(op, call).map_err(bad_arguments)?;
    Ok(Call { cred, scope, request })
}

fn request_from(op: Op, call: &Element) -> Result<Request> {
    use Request as Q;
    let name = || req_text(call, "name");
    let object = || objref_from(call);
    Ok(match op {
        Op::Ping => Q::Ping,
        Op::CatalogInfo => Q::CatalogInfo,
        Op::WaitForEpoch => {
            let epoch = req_i64(call, "epoch")?;
            if epoch < 0 {
                return Err(shape("epoch must be >= 0"));
            }
            // Epochs are per shard; absent means shard 0.
            let shard = match opt_text(call, "shard") {
                None => 0,
                Some(s) => s
                    .parse()
                    .map_err(|_| shape("shard must be a non-negative integer"))?,
            };
            Q::WaitForEpoch { epoch: epoch as u64, shard }
        }
        Op::SyncNow => Q::SyncNow,
        Op::CacheStats => Q::CacheStats,
        Op::CreateFile => Q::CreateFile { spec: filespec_from(call.expect("fileSpec")?)? },
        Op::CreateFiles => Q::CreateFiles {
            specs: call.find_all("fileSpec").map(filespec_from).collect::<Result<_>>()?,
        },
        Op::GetFile => Q::GetFile { name: name()? },
        Op::GetFileVersion => {
            Q::GetFileVersion { name: name()?, version: req_i64(call, "version")? }
        }
        Op::GetFileVersions => Q::GetFileVersions { name: name()? },
        Op::UpdateFile => Q::UpdateFile {
            name: name()?,
            update: fileupdate_from(call.expect("fileUpdate")?)?,
        },
        Op::InvalidateFile => Q::InvalidateFile { name: name()? },
        Op::DeleteFile => Q::DeleteFile { name: name()? },
        Op::DeleteFileVersion => {
            Q::DeleteFileVersion { name: name()?, version: req_i64(call, "version")? }
        }
        Op::CreateCollection => Q::CreateCollection {
            name: name()?,
            parent: opt_text(call, "parent"),
            description: opt_text(call, "description").unwrap_or_default(),
        },
        Op::GetCollection => Q::GetCollection { name: name()? },
        Op::DeleteCollection => Q::DeleteCollection { name: name()? },
        Op::ListCollection => Q::ListCollection { name: name()? },
        Op::AssignCollection => Q::AssignCollection {
            file: req_text(call, "file")?,
            collection: opt_text(call, "collection"),
        },
        Op::CreateView => Q::CreateView {
            name: name()?,
            description: opt_text(call, "description").unwrap_or_default(),
        },
        Op::GetView => Q::GetView { name: name()? },
        Op::DeleteView => Q::DeleteView { name: name()? },
        Op::AddToView => Q::AddToView { view: req_text(call, "view")?, member: object()? },
        Op::RemoveFromView => {
            Q::RemoveFromView { view: req_text(call, "view")?, member: object()? }
        }
        Op::ListView => Q::ListView { name: name()? },
        Op::DefineAttribute => Q::DefineAttribute {
            name: name()?,
            ty: attr_type_from(&req_text(call, "attrType")?)?,
            description: opt_text(call, "description").unwrap_or_default(),
        },
        Op::SetAttribute => Q::SetAttribute {
            object: object()?,
            attr: attribute_from(call.expect("attribute")?)?,
        },
        Op::RemoveAttribute => Q::RemoveAttribute { object: object()?, name: name()? },
        Op::GetAttributes => Q::GetAttributes { object: object()? },
        Op::QueryByAttributes => Q::QueryByAttributes { preds: predicates_from(call)? },
        Op::ExplainQuery => Q::ExplainQuery { preds: predicates_from(call)? },
        Op::Annotate => Q::Annotate { object: object()?, text: req_text(call, "text")? },
        Op::GetAnnotations => Q::GetAnnotations { object: object()? },
        Op::GetAuditTrail => Q::GetAuditTrail { object: object()? },
        Op::SetAudit => Q::SetAudit { object: object()?, enabled: req_bool(call, "enabled")? },
        Op::AddHistory => Q::AddHistory {
            file: req_text(call, "file")?,
            description: req_text(call, "description")?,
        },
        Op::GetHistory => Q::GetHistory { file: req_text(call, "file")? },
        Op::Grant | Op::Revoke => {
            let object = object()?;
            let principal = req_text(call, "principal")?;
            let perm = permission_from(&req_text(call, "permission")?)?;
            if op == Op::Grant {
                Q::Grant { object, principal, perm }
            } else {
                Q::Revoke { object, principal, perm }
            }
        }
        Op::RegisterUser => Q::RegisterUser { user: user_from(call.expect("user")?)? },
        Op::GetUser => Q::GetUser { dn: req_text(call, "dn")? },
        Op::ListUsers => Q::ListUsers,
        Op::RegisterExternalCatalog => Q::RegisterExternalCatalog {
            catalog: extcat_from(call.expect("externalCatalog")?)?,
        },
        Op::ListExternalCatalogs => Q::ListExternalCatalogs,
    })
}

/// Encode a successful reply as the response element's content. The
/// commit epoch rides as attributes, with the shard named only when the
/// serving catalog has more than one (`shards`).
pub fn reply_el(reply: &Reply, shards: usize) -> Element {
    use Response as R;
    let mut r = Element::new("r");
    if reply.epoch > 0 {
        r = r.attr("xmlns:mcs", MCS_NS).attr("mcs:epoch", reply.epoch.to_string());
        if shards > 1 {
            r = r.attr("mcs:shard", reply.shard.to_string());
        }
    }
    let text = |r: Element, name: &str, v: String| r.child(text_el(name, v));
    let fields = |r, kv: Vec<(&str, String)>| kv.into_iter().fold(r, |r, (k, v)| text(r, k, v));
    match &reply.response {
        R::Unit => r.child(Element::new("ok")),
        R::Removed(b) => text(r, "removed", b.to_string()),
        R::File(f) => r.child(file_el(f)),
        R::Files(fs) => fs.iter().map(file_el).fold(r, Element::child),
        R::Collection(c) => r.child(collection_el(c)),
        R::CollectionContents(c) => r.child(collection_contents_el(c)),
        R::View(v) => r.child(view_el(v)),
        R::ViewContents(c) => r.child(view_contents_el(c)),
        R::Attributes(a) => a.iter().map(attribute_el).fold(r, Element::child),
        R::Hits(h) => r.child(hits_el(h)),
        R::Plan(steps) => {
            r.child(steps.iter().fold(Element::new("plan"), |p, s| text(p, "step", s.clone())))
        }
        R::Annotations(a) => a.iter().map(annotation_el).fold(r, Element::child),
        R::AuditTrail(a) => a.iter().map(audit_el).fold(r, Element::child),
        R::History(h) => h.iter().map(history_el).fold(r, Element::child),
        R::User(u) => r.child(user_el(u)),
        R::Users(us) => us.iter().map(user_el).fold(r, Element::child),
        R::ExternalCatalogs(cs) => cs.iter().map(extcat_el).fold(r, Element::child),
        R::CatalogInfo { report, commit_epochs, durable_epochs } => fields(r, vec![
            ("shards", report.shards.to_string()),
            ("profile", report.profile.clone()),
            ("files", report.files.to_string()),
            ("cacheEnabled", report.cache_enabled.to_string()),
            ("commitEpochs", epoch_list(commit_epochs)),
            ("durableEpochs", epoch_list(durable_epochs)),
        ]),
        R::DurableEpoch(e) => text(r, "durableEpoch", e.to_string()),
        R::Synced(epochs) => {
            let mut kv = vec![("durableEpoch", epochs[0].to_string())];
            if epochs.len() > 1 {
                kv.push(("shards", epochs.len().to_string()));
                kv.push(("shardEpochs", epoch_list(epochs)));
            }
            fields(r, kv)
        }
        R::CacheStats(s) => {
            let mut kv = vec![
                ("enabled", s.enabled.to_string()),
                ("hits", s.hits.to_string()),
                ("misses", s.misses.to_string()),
                ("stale", s.stale.to_string()),
                ("evictions", s.evictions.to_string()),
            ];
            if shards > 1 {
                kv.push(("shards", shards.to_string()));
            }
            fields(r, kv)
        }
    }
}

/// Decode a response element into a reply of the given shape.
pub fn reply_from(shape_of: Shape, r: &Element) -> Result<Reply> {
    use Response as R;
    fn each<T>(r: &Element, name: &str, f: fn(&Element) -> Result<T>) -> Result<Vec<T>> {
        r.find_all(name).map(f).collect()
    }
    let response = match shape_of {
        Shape::Unit => R::Unit,
        Shape::Removed => R::Removed(req_bool(r, "removed")?),
        Shape::File => R::File(file_from(r.expect("file")?)?),
        Shape::Files => R::Files(each(r, "file", file_from)?),
        Shape::Collection => R::Collection(collection_from(r.expect("collection")?)?),
        Shape::CollectionContents => {
            R::CollectionContents(collection_contents_from(r.expect("contents")?)?)
        }
        Shape::View => R::View(view_from(r.expect("view")?)?),
        Shape::ViewContents => R::ViewContents(view_contents_from(r.expect("contents")?)?),
        Shape::Attributes => R::Attributes(each(r, "attribute", attribute_from)?),
        Shape::Hits => R::Hits(hits_from(r.expect("hits")?)?),
        Shape::Plan => R::Plan(r.expect("plan")?.find_all("step").map(|s| s.text_content()).collect()),
        Shape::Annotations => R::Annotations(each(r, "annotation", annotation_from)?),
        Shape::AuditTrail => R::AuditTrail(each(r, "audit", audit_from)?),
        Shape::History => R::History(each(r, "history", history_from)?),
        Shape::User => R::User(user_from(r.expect("user")?)?),
        Shape::Users => R::Users(each(r, "user", user_from)?),
        Shape::ExternalCatalogs => R::ExternalCatalogs(each(r, "externalCatalog", extcat_from)?),
        Shape::CatalogInfo => R::CatalogInfo {
            report: CatalogInfoReport {
                shards: req_num(r, "shards")?,
                profile: req_text(r, "profile")?,
                files: req_num(r, "files")?,
                cache_enabled: req_bool(r, "cacheEnabled")?,
            },
            commit_epochs: req_epochs(r, "commitEpochs")?,
            durable_epochs: req_epochs(r, "durableEpochs")?,
        },
        Shape::DurableEpoch => R::DurableEpoch(req_num(r, "durableEpoch")?),
        Shape::Synced => match r.find("shardEpochs") {
            Some(_) => R::Synced(req_epochs(r, "shardEpochs")?),
            None => R::Synced(vec![req_num(r, "durableEpoch")?]),
        },
        Shape::CacheStats => R::CacheStats(CacheStatsReport {
            enabled: req_bool(r, "enabled")?,
            hits: req_num(r, "hits")?,
            misses: req_num(r, "misses")?,
            stale: req_num(r, "stale")?,
            evictions: req_num(r, "evictions")?,
        }),
    };
    // Writes echo the commit epoch of whatever they logged, and the
    // shard it landed on when the server is partitioned.
    let epoch = r.attr_value("mcs:epoch").map(str::parse).transpose();
    let shard = r.attr_value("mcs:shard").map(str::parse).transpose();
    Ok(Reply {
        response,
        epoch: epoch.map_err(|_| shape("bad mcs:epoch"))?.unwrap_or(0),
        shard: shard.map_err(|_| shape("bad mcs:shard"))?.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::ManualClock;
    use mcs::Clock;

    fn dt() -> DateTime {
        ManualClock::default().now()
    }

    #[test]
    fn value_roundtrip_all_types() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::from("hi <&> there"),
            Value::Bool(true),
            Value::Date(Date::new(2003, 11, 15).unwrap()),
            Value::Time(Time::new(8, 30, 0).unwrap()),
            Value::DateTime(dt()),
        ] {
            let e = value_el("value", &v);
            let wire = e.to_xml();
            let back = value_from(&soapstack::xml::parse(&wire).unwrap()).unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(back, v),
            }
        }
    }

    #[test]
    fn float_shortest_roundtrip() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.2250738585072014e-308] {
            let e = value_el("v", &Value::Float(x));
            let back = value_from(&soapstack::xml::parse(&e.to_xml()).unwrap()).unwrap();
            assert_eq!(back, Value::Float(x));
        }
    }

    #[test]
    fn file_roundtrip_full_and_minimal() {
        let full = LogicalFile {
            id: 7,
            name: "f <1>".into(),
            version: 3,
            data_type: Some("binary".into()),
            valid: false,
            collection_id: Some(12),
            container_id: Some("c".into()),
            container_service: Some("http://x".into()),
            creator: "/CN=a&b".into(),
            created: dt(),
            last_modifier: Some("/CN=m".into()),
            last_modified: Some(dt()),
            master_copy: Some("gsiftp://h/f".into()),
            audit_enabled: true,
        };
        let back = file_from(&soapstack::xml::parse(&file_el(&full).to_xml()).unwrap()).unwrap();
        assert_eq!(back, full);
        let minimal = LogicalFile {
            id: 1,
            name: "f".into(),
            version: 1,
            data_type: None,
            valid: true,
            collection_id: None,
            container_id: None,
            container_service: None,
            creator: "/CN=a".into(),
            created: dt(),
            last_modifier: None,
            last_modified: None,
            master_copy: None,
            audit_enabled: false,
        };
        let back =
            file_from(&soapstack::xml::parse(&file_el(&minimal).to_xml()).unwrap()).unwrap();
        assert_eq!(back, minimal);
    }

    #[test]
    fn filespec_roundtrip() {
        let s = FileSpec::named("f").attr("a", 1i64).attr("b", "x").in_collection("c");
        let back =
            filespec_from(&soapstack::xml::parse(&filespec_el(&s).to_xml()).unwrap()).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.collection, s.collection);
        assert_eq!(back.attributes, s.attributes);
    }

    #[test]
    fn predicate_and_objref_roundtrip() {
        for p in [
            AttrPredicate::eq("a", 1i64),
            AttrPredicate { name: "b".into(), op: AttrOp::Like, value: "x%".into() },
            AttrPredicate { name: "c".into(), op: AttrOp::Ge, value: 2.5f64.into() },
        ] {
            let back =
                predicate_from(&soapstack::xml::parse(&predicate_el(&p).to_xml()).unwrap())
                    .unwrap();
            assert_eq!(back, p);
        }
        for r in [
            ObjectRef::File("f".into()),
            ObjectRef::FileVersion("f".into(), 2),
            ObjectRef::Collection("c".into()),
            ObjectRef::View("v".into()),
            ObjectRef::Service,
        ] {
            let call = Element::new("call").child(objref_el(&r));
            let back =
                objref_from(&soapstack::xml::parse(&call.to_xml()).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn credential_roundtrip() {
        let c = Credential::with_groups("/CN=a", ["g1", "g2"]);
        let call = Element::new("call").child(credential_el(&c));
        let back = credential_from(&soapstack::xml::parse(&call.to_xml()).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn contents_and_hits_roundtrip() {
        let cc = CollectionContents {
            files: vec![("a".into(), 1), ("b".into(), 2)],
            subcollections: vec!["sub".into()],
        };
        let back = collection_contents_from(
            &soapstack::xml::parse(&collection_contents_el(&cc).to_xml()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, cc);
        let hits = vec![("x".to_string(), 1i64), ("y".to_string(), 9)];
        let back =
            hits_from(&soapstack::xml::parse(&hits_el(&hits).to_xml()).unwrap()).unwrap();
        assert_eq!(back, hits);
    }
}
