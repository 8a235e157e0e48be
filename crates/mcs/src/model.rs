//! Catalog data model: the logical objects of the paper's Figure 3
//! (logical files, logical collections, logical views) and the records the
//! MCS schema associates with them.

use std::fmt;

use relstore::{DateTime, Value, ValueType};

/// Kinds of catalogued objects. Numeric codes are what the database
/// stores in `object_type` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectType {
    /// A logical file.
    File = 0,
    /// A logical collection.
    Collection = 1,
    /// A logical view.
    View = 2,
    /// The service itself (for service-level permissions).
    Service = 3,
}

impl ObjectType {
    /// Database code.
    pub fn code(self) -> i64 {
        self as i64
    }

    /// Decode a database code.
    pub fn from_code(c: i64) -> Option<ObjectType> {
        match c {
            0 => Some(ObjectType::File),
            1 => Some(ObjectType::Collection),
            2 => Some(ObjectType::View),
            3 => Some(ObjectType::Service),
            _ => None,
        }
    }
}

impl fmt::Display for ObjectType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObjectType::File => "logical file",
            ObjectType::Collection => "logical collection",
            ObjectType::View => "logical view",
            ObjectType::Service => "service",
        })
    }
}

/// Reference to an object by name, used in errors and the public API.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectRef {
    /// A logical file by name (version 1 implied unless multi-versioned).
    File(String),
    /// A specific version of a logical file.
    FileVersion(String, i64),
    /// A logical collection by name.
    Collection(String),
    /// A logical view by name.
    View(String),
    /// The service itself.
    Service,
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectRef::File(n) => write!(f, "logical file `{n}`"),
            ObjectRef::FileVersion(n, v) => write!(f, "logical file `{n}` version {v}"),
            ObjectRef::Collection(n) => write!(f, "logical collection `{n}`"),
            ObjectRef::View(n) => write!(f, "logical view `{n}`"),
            ObjectRef::Service => write!(f, "the metadata catalog service"),
        }
    }
}

/// Permissions on catalog objects (paper §3: add, modify, query, delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Query metadata / list contents.
    Read = 0,
    /// Add mappings or modify attributes. On the service object this is
    /// the right to create new top-level objects.
    Write = 1,
    /// Delete the object.
    Delete = 2,
    /// Change the object's ACL.
    Admin = 3,
}

impl Permission {
    /// Database code.
    pub fn code(self) -> i64 {
        self as i64
    }

    /// Decode a database code.
    pub fn from_code(c: i64) -> Option<Permission> {
        match c {
            0 => Some(Permission::Read),
            1 => Some(Permission::Write),
            2 => Some(Permission::Delete),
            3 => Some(Permission::Admin),
            _ => None,
        }
    }
}

/// Principal wildcard granting a permission to everyone.
pub const ANYONE: &str = "*";

/// A caller identity: a Grid Security Infrastructure distinguished name
/// plus community (CAS-style) group memberships. Wire-level X.509 is
/// deliberately out of scope (see DESIGN.md substitutions); the trust
/// decisions are the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    /// Distinguished name, e.g. `/O=Grid/OU=ISI/CN=Ewa Deelman`.
    pub dn: String,
    /// Group principals this identity holds (from a community
    /// authorization service).
    pub groups: Vec<String>,
}

impl Credential {
    /// Credential with no group memberships.
    pub fn new(dn: impl Into<String>) -> Credential {
        Credential { dn: dn.into(), groups: Vec::new() }
    }

    /// Credential with groups.
    pub fn with_groups(
        dn: impl Into<String>,
        groups: impl IntoIterator<Item = impl Into<String>>,
    ) -> Credential {
        Credential { dn: dn.into(), groups: groups.into_iter().map(Into::into).collect() }
    }

    /// All principals this credential can act as (DN first, then groups).
    pub fn principals(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.dn.as_str()).chain(self.groups.iter().map(String::as_str))
    }
}

/// Types a user-defined attribute may have (paper §5: "string, float,
/// date, time and date/time"; §7's workload adds integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// String.
    Str = 0,
    /// Integer.
    Int = 1,
    /// Float.
    Float = 2,
    /// Date.
    Date = 3,
    /// Time of day.
    Time = 4,
    /// Date and time.
    DateTime = 5,
}

impl AttrType {
    /// Database code.
    pub fn code(self) -> i64 {
        self as i64
    }

    /// Decode a database code.
    pub fn from_code(c: i64) -> Option<AttrType> {
        match c {
            0 => Some(AttrType::Str),
            1 => Some(AttrType::Int),
            2 => Some(AttrType::Float),
            3 => Some(AttrType::Date),
            4 => Some(AttrType::Time),
            5 => Some(AttrType::DateTime),
            _ => None,
        }
    }

    /// The storage type backing this attribute type.
    pub fn value_type(self) -> ValueType {
        match self {
            AttrType::Str => ValueType::Str,
            AttrType::Int => ValueType::Int,
            AttrType::Float => ValueType::Float,
            AttrType::Date => ValueType::Date,
            AttrType::Time => ValueType::Time,
            AttrType::DateTime => ValueType::DateTime,
        }
    }

    /// Classify a value.
    pub fn of_value(v: &Value) -> Option<AttrType> {
        match v {
            Value::Str(_) => Some(AttrType::Str),
            Value::Int(_) => Some(AttrType::Int),
            Value::Float(_) => Some(AttrType::Float),
            Value::Date(_) => Some(AttrType::Date),
            Value::Time(_) => Some(AttrType::Time),
            Value::DateTime(_) => Some(AttrType::DateTime),
            Value::Null | Value::Bool(_) => None,
        }
    }
}

/// Definition of a user-defined attribute (name + type, registered once
/// per catalog so an application ontology is shared and type-checked).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDefinition {
    /// Attribute name, unique within the catalog.
    pub name: String,
    /// Value type.
    pub attr_type: AttrType,
    /// Free-text description.
    pub description: String,
}

/// One attribute value attached to an object.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Typed value.
    pub value: Value,
}

/// A logical file record (the predefined schema of paper §5).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalFile {
    /// Catalog id.
    pub id: i64,
    /// Logical file name, unique together with `version`.
    pub name: String,
    /// Version number (1 unless versioned).
    pub version: i64,
    /// Data format, e.g. `binary`, `XML`, `html`.
    pub data_type: Option<String>,
    /// Validity flag (a virtual organization may invalidate bad data).
    pub valid: bool,
    /// Owning collection id, if any (at most one, enforced).
    pub collection_id: Option<i64>,
    /// External container identifier.
    pub container_id: Option<String>,
    /// External container service locator.
    pub container_service: Option<String>,
    /// DN of the creator.
    pub creator: String,
    /// Creation time.
    pub created: DateTime,
    /// DN of the last modifier.
    pub last_modifier: Option<String>,
    /// Last modification time.
    pub last_modified: Option<DateTime>,
    /// Physical location of the master copy (for consistency services).
    pub master_copy: Option<String>,
    /// Whether accesses to this file's metadata are audited.
    pub audit_enabled: bool,
}

/// A logical collection record.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// Catalog id.
    pub id: i64,
    /// Collection name, unique.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Parent collection (collections form an acyclic tree).
    pub parent_id: Option<i64>,
    /// DN of the creator.
    pub creator: String,
    /// Creation time.
    pub created: DateTime,
    /// DN of the last modifier.
    pub last_modifier: Option<String>,
    /// Last modification time.
    pub last_modified: Option<DateTime>,
    /// Whether accesses are audited.
    pub audit_enabled: bool,
}

/// A logical view record.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// Catalog id.
    pub id: i64,
    /// View name, unique.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// DN of the creator.
    pub creator: String,
    /// Creation time.
    pub created: DateTime,
    /// DN of the last modifier.
    pub last_modifier: Option<String>,
    /// Last modification time.
    pub last_modified: Option<DateTime>,
    /// Whether accesses are audited.
    pub audit_enabled: bool,
}

/// A member of a logical view (files, collections or other views — the
/// paper's "symbolic link" analogy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewMember {
    /// Member kind.
    pub member_type: ObjectType,
    /// Member id.
    pub member_id: i64,
}

/// An annotation attached to an object.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Annotated object kind.
    pub object_type: ObjectType,
    /// Annotated object id.
    pub object_id: i64,
    /// Annotation text.
    pub text: String,
    /// DN of the annotator.
    pub creator: String,
    /// When the annotation was made.
    pub created: DateTime,
}

/// One audit-trail record.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Object kind.
    pub object_type: ObjectType,
    /// Object id.
    pub object_id: i64,
    /// Action performed (`create`, `query`, `modify`, `delete`...).
    pub action: String,
    /// DN of the actor.
    pub actor: String,
    /// When.
    pub at: DateTime,
    /// Extra detail.
    pub details: String,
}

/// One creation/transformation-history record for a logical file.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// The file.
    pub file_id: i64,
    /// Textual description of the transformation (paper §5: "the history
    /// is a textual description of these operations").
    pub description: String,
    /// DN of the actor.
    pub actor: String,
    /// When.
    pub at: DateTime,
}

/// A registered metadata writer (paper §5 "User metadata").
#[derive(Debug, Clone, PartialEq)]
pub struct UserRecord {
    /// Distinguished name.
    pub dn: String,
    /// Free-text description.
    pub description: String,
    /// Institution.
    pub institution: String,
    /// Contact e-mail.
    pub email: String,
    /// Contact phone.
    pub phone: String,
}

/// A pointer to an external metadata catalog (paper §5 "External catalog
/// metadata").
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalCatalog {
    /// Catalog name, unique.
    pub name: String,
    /// Catalog type, e.g. `relational database`, `MCAT`, `RepMec`.
    pub catalog_type: String,
    /// Host name where it can be reached.
    pub host: String,
    /// IP address.
    pub ip: String,
    /// Free-text description.
    pub description: String,
}

/// Request to create a logical file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSpec {
    /// Logical name (required).
    pub name: String,
    /// Version (defaults to 1).
    pub version: Option<i64>,
    /// Data format.
    pub data_type: Option<String>,
    /// Collection to add the file to.
    pub collection: Option<String>,
    /// Container identifier.
    pub container_id: Option<String>,
    /// Container service locator.
    pub container_service: Option<String>,
    /// Master-copy physical location.
    pub master_copy: Option<String>,
    /// Enable per-access auditing for this file.
    pub audit: bool,
    /// User-defined attributes to attach at creation.
    pub attributes: Vec<Attribute>,
}

impl FileSpec {
    /// Spec with just a name.
    pub fn named(name: impl Into<String>) -> FileSpec {
        FileSpec { name: name.into(), ..FileSpec::default() }
    }

    /// Builder: attach an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> FileSpec {
        self.attributes.push(Attribute { name: name.into(), value: value.into() });
        self
    }

    /// Builder: put the file in a collection.
    pub fn in_collection(mut self, c: impl Into<String>) -> FileSpec {
        self.collection = Some(c.into());
        self
    }
}

/// Comparison operator in an attribute query predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// SQL LIKE pattern match (string attributes only).
    Like,
}

/// One predicate of an attribute-based (complex) query.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrPredicate {
    /// Attribute name.
    pub name: String,
    /// Comparison operator.
    pub op: AttrOp,
    /// Comparison value.
    pub value: Value,
}

impl AttrPredicate {
    /// Equality predicate.
    pub fn eq(name: impl Into<String>, value: impl Into<Value>) -> AttrPredicate {
        AttrPredicate { name: name.into(), op: AttrOp::Eq, value: value.into() }
    }
}

/// Validate an object name: non-empty, ≤255 bytes, no control characters.
pub fn validate_name(name: &str) -> crate::error::Result<()> {
    if name.is_empty() || name.len() > 255 || name.chars().any(char::is_control) {
        return Err(crate::error::McsError::InvalidName(name.to_owned()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for ot in [ObjectType::File, ObjectType::Collection, ObjectType::View, ObjectType::Service]
        {
            assert_eq!(ObjectType::from_code(ot.code()), Some(ot));
        }
        for p in [Permission::Read, Permission::Write, Permission::Delete, Permission::Admin] {
            assert_eq!(Permission::from_code(p.code()), Some(p));
        }
        for t in [
            AttrType::Str,
            AttrType::Int,
            AttrType::Float,
            AttrType::Date,
            AttrType::Time,
            AttrType::DateTime,
        ] {
            assert_eq!(AttrType::from_code(t.code()), Some(t));
        }
        assert_eq!(ObjectType::from_code(99), None);
    }

    #[test]
    fn attr_type_of_value() {
        assert_eq!(AttrType::of_value(&Value::Int(1)), Some(AttrType::Int));
        assert_eq!(AttrType::of_value(&Value::from("x")), Some(AttrType::Str));
        assert_eq!(AttrType::of_value(&Value::Null), None);
        assert_eq!(AttrType::of_value(&Value::Bool(true)), None);
    }

    #[test]
    fn credential_principals() {
        let c = Credential::with_groups("/CN=a", ["g1", "g2"]);
        let ps: Vec<&str> = c.principals().collect();
        assert_eq!(ps, vec!["/CN=a", "g1", "g2"]);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("ok_name.dat").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("a\nb").is_err());
        assert!(validate_name(&"x".repeat(256)).is_err());
        assert!(validate_name(&"x".repeat(255)).is_ok());
    }

    #[test]
    fn file_spec_builder() {
        let s = FileSpec::named("f").attr("band", 42i64).in_collection("c");
        assert_eq!(s.name, "f");
        assert_eq!(s.attributes.len(), 1);
        assert_eq!(s.collection.as_deref(), Some("c"));
    }
}
