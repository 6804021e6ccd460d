// Fixture: test-context references for the L005 fixture enum.

#[test]
fn covered_variant_roundtrips() {
    let e = OrbError::Covered;
    assert!(matches!(e, OrbError::Covered));
    let f = OrbError::WithFields {
        detail: "x".to_string(),
    };
    drop(f);
}
