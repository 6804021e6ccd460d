//! The whole-workspace fact base: the parsed files.

use crate::parse::ParsedFile;

/// Every parsed file of the workspace.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    pub fn build(files: Vec<ParsedFile>) -> Self {
        Workspace { files }
    }
}
