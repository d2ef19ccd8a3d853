//! Nested-comment fixture: block comments nest in Rust; the lexer must
//! track depth and keep line numbers for the code that follows.

/* outer /* inner mentions match k { _ => 0 } on FaultKind */
   still inside the outer comment across
   multiple lines */
/// The trailing allow suppresses the wildcard diagnostic.
pub fn first(k: FaultKind) -> u32 {
    match k {
        FaultKind::EmptySlot { index } => index,
        _ => 0, // cdna-check: allow(exhaustive-fault): fixture
    }
}

/// Fires at a known line after the nested comment.
pub fn second(k: FaultKind) -> u32 {
    match k {
        FaultKind::EmptySlot { index } => index,
        _ => 0,
    }
}
