//! Nested-comment fixture: block comments nest in Rust; the lexer must
//! track depth and keep line numbers for the code that follows.

/* outer /* inner mentions fn bait(m: &mut M) { m.pin_run(0, 1); early()?; } */
   still inside the outer comment across
   multiple lines */
/// Pin primitive, so the calls below resolve.
pub fn pin_run(start: u64, len: u64) {}

/// The trailing allow suppresses the early-exit diagnostic.
pub fn first(m: &mut M) -> Result<(), E> {
    m.pin_run(0, 1);
    early()?; // cdna-check: allow(must-pair): fixture
    Ok(())
}

/// Fires at a known line after the nested comment.
pub fn second(m: &mut M) -> Result<(), E> {
    m.pin_run(0, 1);
    early()?;
    Ok(())
}
