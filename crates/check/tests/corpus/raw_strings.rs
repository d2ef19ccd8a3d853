//! Raw-string fixture: text inside raw strings is data, not code, and
//! spans after a multi-line raw string with `#` delimiters stay exact.

/// Returns a blob full of rule-bait.
pub fn blob() -> &'static str {
    r##"
        match k { FaultKind::EmptySlot { index } => 1, _ => 0 }
        neither should "quoted # text" or a stray } brace in here.
    "##
}

/// A real violation after the raw string, for span checking.
pub fn after(k: FaultKind) -> u32 {
    match k {
        FaultKind::EmptySlot { index } => index,
        _ => 0,
    }
}
