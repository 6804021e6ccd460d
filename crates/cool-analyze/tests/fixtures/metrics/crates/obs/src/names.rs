//! A004 fixture: the metric-name catalogue.

pub const USED_TOTAL: &str = "used_total";
pub const ORPHAN_TOTAL: &str = "orphan_total";
pub const UNDOCUMENTED_TOTAL: &str = "undocumented_total";
// lint: allow(A004, fixture: reserved for an emitter that lands with the next layer)
pub const RESERVED_TOTAL: &str = "reserved_total";
