//! Intra-crate call-graph construction and transitive effect summaries.
//!
//! Call edges resolve conservatively: a free call by unique name within
//! the crate, `Type::name` against that type's methods, `self.name()`
//! against the enclosing impl type. Plain method calls on other receivers
//! (`conn.close()`) never resolve — receiver types are unknown at the
//! token level — which is a documented under-approximation: cross-object
//! effects are invisible, cross-crate edges do not exist.

use crate::facts::Workspace;
use crate::parse::{CallKind, EventKind};
use std::collections::HashMap;

/// A function key: (file index in `Workspace::files`, fn index in that file).
pub type FnKey = (usize, usize);

/// Where a transitive effect bottoms out, for finding messages.
#[derive(Debug, Clone)]
pub struct Origin {
    pub file: String,
    pub line: u32,
    /// Call chain from the summarised function down to the effect site,
    /// e.g. `close_all -> drain_one`; empty for direct effects.
    pub chain: Vec<String>,
}

impl Origin {
    /// `via close_all -> drain_one, crates/x/src/a.rs:12` (or just the
    /// location for direct effects).
    pub fn describe(&self) -> String {
        if self.chain.is_empty() {
            format!("{}:{}", self.file, self.line)
        } else {
            format!("via {}, {}:{}", self.chain.join(" -> "), self.file, self.line)
        }
    }
}

/// Transitive effects of calling a function: the blocking operations it
/// may perform, anywhere in its intra-crate call closure.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub blocks: HashMap<String, Origin>,
}

pub struct Graph {
    /// Resolved callees per function, keyed by the call's token index.
    pub edges: HashMap<FnKey, Vec<(usize, FnKey)>>,
    pub summaries: HashMap<FnKey, Summary>,
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

        let mut edges: HashMap<FnKey, Vec<(usize, FnKey)>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut out = Vec::new();
                for e in &f.events {
                    let EventKind::Call { name, qual, kind } = &e.kind else {
                        continue;
                    };
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
                    if let Some(t) = target {
                        if t != (fi, gi) {
                            out.push((e.tok, t));
                        }
                    }
                }
                edges.insert((fi, gi), out);
            }
        }

        // Fixpoint over effect summaries. Keys only ever gain entries and
        // the key space is finite, so this terminates; first-writer-wins
        // keeps each origin stable across iterations.
        let mut summaries: HashMap<FnKey, Summary> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut s = Summary::default();
                for e in &f.events {
                    if let EventKind::Block { what } = &e.kind {
                        s.blocks.entry(what.clone()).or_insert(Origin {
                            file: file.rel.clone(),
                            line: e.line,
                            chain: Vec::new(),
                        });
                    }
                }
                summaries.insert((fi, gi), s);
            }
        }
        loop {
            let mut changed = false;
            let keys: Vec<FnKey> = summaries.keys().copied().collect();
            for key in keys {
                let callees = edges.get(&key).cloned().unwrap_or_default();
                for (_, callee) in callees {
                    let callee_name = ws.files[callee.0].fns[callee.1].name.clone();
                    let callee_sum = match summaries.get(&callee) {
                        Some(s) => s.clone(),
                        None => continue,
                    };
                    let mine = summaries.entry(key).or_default();
                    for (what, origin) in callee_sum.blocks {
                        mine.blocks.entry(what.clone()).or_insert_with(|| {
                            changed = true;
                            prefix(&callee_name, origin.clone())
                        });
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Graph { edges, summaries }
    }

    /// The resolved target of the call event at `call_tok`, if any.
    pub fn resolve_call(&self, caller: FnKey, call_tok: usize) -> Option<FnKey> {
        self.edges
            .get(&caller)?
            .iter()
            .find(|(tok, _)| *tok == call_tok)
            .map(|&(_, t)| t)
    }
}

fn prefix(callee: &str, mut origin: Origin) -> Origin {
    origin.chain.insert(0, callee.to_owned());
    origin
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

    #[test]
    fn summaries_propagate_transitively() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "struct S;\n\
             impl S {\n\
               fn leaf(&self) { rx.recv(); }\n\
               fn mid(&self) { self.leaf(); }\n\
               fn top(&self) { self.mid(); }\n\
             }",
        )]);
        let g = Graph::build(&w);
        let top = w.files[0]
            .fns
            .iter()
            .position(|f| f.name == "top")
            .expect("top exists");
        let s = &g.summaries[&(0, top)];
        let blk = s.blocks.get("recv").expect("recv reachable from top");
        assert_eq!(blk.chain, vec!["mid".to_owned(), "leaf".to_owned()]);
    }

    #[test]
    fn ambiguous_free_names_do_not_resolve() {
        let w = ws(&[
            (
                "crates/app/src/a.rs",
                "fn helper() { rx.recv(); }\nfn caller() { helper(); }",
            ),
            ("crates/app/src/b.rs", "fn helper() {}"),
        ]);
        let g = Graph::build(&w);
        let caller = w.files[0]
            .fns
            .iter()
            .position(|f| f.name == "caller")
            .expect("caller exists");
        assert!(
            g.summaries[&(0, caller)].blocks.is_empty(),
            "two `helper` fns in the crate: the free call must not resolve"
        );
    }
}
