//! The whole-workspace fact base: parsed files plus the integer constants
//! A005 resolves capacities against.

use crate::parse::ParsedFile;
use std::collections::HashMap;

/// All parsed files plus derived lookup tables.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    /// (crate, NAME) -> integer-constant value, for A005 capacity
    /// resolution. Conflicting re-definitions within a crate are dropped.
    int_consts: HashMap<(String, String), u64>,
}

impl Workspace {
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut int_consts: HashMap<(String, String), u64> = HashMap::new();
        let mut conflicting: Vec<(String, String)> = Vec::new();
        for f in &files {
            for (name, value, _) in &f.int_consts {
                let key = (f.krate.clone(), name.clone());
                match int_consts.get(&key) {
                    Some(v) if v != value => conflicting.push(key),
                    Some(_) => {}
                    None => {
                        int_consts.insert(key, *value);
                    }
                }
            }
        }
        for key in conflicting {
            int_consts.remove(&key);
        }
        Workspace { files, int_consts }
    }

    /// Resolves a SCREAMING_CASE capacity constant within a crate. `None`
    /// when the name is undefined there or defined with conflicting values.
    pub fn resolve_int_const(&self, krate: &str, name: &str) -> Option<u64> {
        self.int_consts
            .get(&(krate.to_owned(), name.to_owned()))
            .copied()
    }
}
