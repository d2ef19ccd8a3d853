//! Raw-string fixture: text inside raw strings is data, not code, and
//! spans after a multi-line raw string with `#` delimiters stay exact.

/// Pin primitive, so the calls below resolve.
pub fn pin_run(start: u64, len: u64) {}

/// Returns a blob full of rule-bait.
pub fn blob() -> &'static str {
    r##"
        fn bait(m: &mut M) -> R { m.pin_run(0, 1); early()?; return; }
        neither should "quoted # text" or a stray } brace in here.
    "##
}

/// A real violation after the raw string, for span checking.
pub fn after(m: &mut M) -> Result<(), E> {
    m.pin_run(0, 1);
    early()?;
    Ok(())
}
