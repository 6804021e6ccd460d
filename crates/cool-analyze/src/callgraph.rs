//! The intra-crate call graph, which the shutdown-path rules (A007, A008)
//! walk from the shutdown roots.
//!
//! Call edges resolve conservatively: a free call by unique name within
//! the crate, `Type::name` against that type's methods, `self.name()`
//! against the enclosing impl type. Plain method calls on other receivers
//! (`conn.close()`) never resolve — receiver types are unknown at the
//! token level — which is a documented under-approximation: cross-object
//! calls are invisible, cross-crate edges do not exist.

use crate::facts::Workspace;
use crate::parse::{Call, CallKind};
use std::collections::HashMap;

/// A function key: (file index in `Workspace::files`, fn index in that file).
pub type FnKey = (usize, usize);

pub struct Graph {
    /// Resolved callees per function.
    pub edges: HashMap<FnKey, Vec<FnKey>>,
}

impl Graph {
    pub fn build(ws: &Workspace) -> Self {
        // Crate-level name indexes.
        // (crate, fn name) -> keys; free calls need the name to be unique.
        let mut by_name: HashMap<(String, String), Vec<FnKey>> = HashMap::new();
        // (crate, type, fn name) -> keys; for self/qualified calls.
        let mut by_type: HashMap<(String, String, String), Vec<FnKey>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let key = (fi, gi);
                by_name
                    .entry((file.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(key);
                if let Some(ty) = &f.self_ty {
                    by_type
                        .entry((file.krate.clone(), ty.clone(), f.name.clone()))
                        .or_default()
                        .push(key);
                }
            }
        }

        let mut edges: HashMap<FnKey, Vec<FnKey>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut out = Vec::new();
                for Call {
                    name, qual, kind, ..
                } in &f.calls
                {
                    let target = match kind {
                        CallKind::Free => {
                            let hits = by_name.get(&(file.krate.clone(), name.clone()));
                            match hits {
                                Some(keys) if keys.len() == 1 => Some(keys[0]),
                                _ => None,
                            }
                        }
                        CallKind::Qualified => qual.as_ref().and_then(|q| {
                            let hits =
                                by_type.get(&(file.krate.clone(), q.clone(), name.clone()));
                            match hits {
                                Some(keys) if keys.len() == 1 => Some(keys[0]),
                                _ => None,
                            }
                        }),
                        CallKind::SelfMethod => f.self_ty.as_ref().and_then(|ty| {
                            let hits =
                                by_type.get(&(file.krate.clone(), ty.clone(), name.clone()));
                            match hits {
                                Some(keys) if keys.len() == 1 => Some(keys[0]),
                                _ => None,
                            }
                        }),
                        CallKind::Method => None,
                    };
                    if let Some(t) = target.filter(|&t| t != (fi, gi)) {
                        out.push(t);
                    }
                }
                edges.insert((fi, gi), out);
            }
        }

        Graph { edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::lexer::scan;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| parse_file(rel, &scan(src)))
                .collect(),
        )
    }

    fn key(w: &Workspace, file: usize, name: &str) -> FnKey {
        let fns = &w.files[file].fns;
        (file, fns.iter().position(|f| f.name == name).expect("fn exists"))
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "struct S;\n\
             impl S {\n\
               fn leaf(&self) {}\n\
               fn mid(&self) { self.leaf(); other.leaf(); }\n\
             }",
        )]);
        let g = Graph::build(&w);
        assert_eq!(g.edges[&key(&w, 0, "mid")], [key(&w, 0, "leaf")]);
    }

    #[test]
    fn ambiguous_free_names_do_not_resolve() {
        let w = ws(&[
            ("crates/app/src/a.rs", "fn helper() {}\nfn caller() { helper(); }"),
            ("crates/app/src/b.rs", "fn helper() {}"),
        ]);
        let g = Graph::build(&w);
        assert!(
            g.edges[&key(&w, 0, "caller")].is_empty(),
            "two `helper` fns in the crate: the free call must not resolve"
        );
    }
}
