// Fixture for L002: unwrap/expect in library code.

fn unwraps(v: Option<u32>) -> u32 {
    v.unwrap() // line 4: flagged
}

fn expects(v: Option<u32>) -> u32 {
    v.expect("fixture") // line 8: flagged
}

fn annotated(v: Option<u32>) -> u32 {
    // lint: allow(L002, fixture: provably Some by construction)
    v.unwrap()
}

fn propagates(v: Option<u32>) -> Result<u32, String> {
    v.ok_or_else(|| "missing".to_string())
}

fn unwrap_or_variants_are_fine(v: Option<u32>) -> u32 {
    v.unwrap_or_default().max(v.unwrap_or(0))
}

fn string_mentioning_unwrap() -> &'static str {
    "call .unwrap() at your peril"
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_exempt() {
        assert_eq!(Some(3).unwrap(), 3);
    }
}
