//! Findings and the two report renderings: `file:line RULE message` text
//! for people, SARIF 2.1.0 for the CI workflow's PR annotations. Both are
//! hand-rolled — the crate is dependency-free by design, so no serde.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, one of [`crate::rules::RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, rule: &'static str, message: &str) -> Self {
        Finding {
            file: file.to_owned(),
            line,
            rule,
            message: message.to_owned(),
        }
    }

    /// The canonical one-line text form.
    pub fn render(&self) -> String {
        format!("{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// The full analysis result for a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived the inline annotations, sorted by
    /// (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the canonical order. Call once after collection.
    pub fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "cool-analyze: {} finding(s), {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// Renders the report as the minimal SARIF 2.1.0 subset GitHub code
    /// scanning consumes (PR annotations at `file:line`). Stable key order,
    /// one result per finding, every distinct rule id declared on the
    /// driver.
    pub fn render_sarif(&self) -> String {
        let mut rules: Vec<&str> = self.findings.iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"cool-analyze\",\n          \"rules\": [",
        );
        for (i, r) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n            {{\"id\": {}}}", json_str(r)));
        }
        if !rules.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n      \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": \
                 {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_str(f.rule),
                json_str(&f.message),
                json_str(&f.file),
                f.line.max(1)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_sorted_one_line_per_finding_plus_a_summary() {
        let mut r = Report::default();
        r.findings.push(Finding::new("b.rs", 2, "L002", "two"));
        r.findings.push(Finding::new("a.rs", 9, "L001", "one \"quoted\""));
        r.files_scanned = 2;
        r.finish();
        assert_eq!(r.findings[0].file, "a.rs", "sorted by file");
        let text = r.render_text();
        assert!(text.contains("a.rs:9 L001 one \"quoted\""));
        assert!(text.contains("2 finding(s), 2 file(s) scanned"));
        assert!(!r.is_clean());
        assert!(Report::default().is_clean());
    }

    #[test]
    fn sarif_has_the_subset_github_ingests() {
        let mut r = Report::default();
        r.findings.push(Finding::new("a.rs", 3, "A008", "a \"quoted\" message"));
        let s = r.render_sarif();
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"cool-analyze\"",
            "{\"id\": \"A008\"}",
            "\"ruleId\": \"A008\"",
            "\"uri\": \"a.rs\"",
            "\"startLine\": 3",
            "\"level\": \"error\"",
            "a \\\"quoted\\\" message",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
        assert!(Report::default().render_sarif().contains("\"results\": []"));
    }
}
