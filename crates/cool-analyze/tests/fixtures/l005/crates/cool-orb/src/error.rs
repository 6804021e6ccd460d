// Fixture for L005: an OrbError-shaped enum declaration. The companion
// uses-fixture (../tests/uses.rs) constructs `Covered` but never `Orphan`.

/// Fixture error enum.
pub enum OrbError {
    /// Constructed and asserted by the uses fixture.
    Covered,
    /// Never referenced anywhere: must be flagged.
    Orphan(String),
    /// Carries fields; referenced by the uses fixture.
    WithFields {
        /// A detail string.
        detail: String,
    },
    /// Never referenced either, but the annotation says why.
    // lint: allow(L005, fixture: reserved for a wire code no peer sends yet)
    Reserved,
}

/// Library code naming a variant is not a test of it: `Orphan` stays
/// flagged.
pub fn orphan() -> OrbError {
    OrbError::Orphan(String::new())
}
