//! The differential harness's fixed conformance-style corpus: queries
//! run in order against [`DOC`], bound to `$doc`.

/// The document.
pub const DOC: &str = r#"<site>
        <people>
            <person id="p0"><name>Ada</name><age>36</age></person>
            <person id="p1"><name>Grace</name><age>45</age></person>
            <person id="p2"><name>Alan</name></person>
        </people>
        <items><item ref="p1"/><item ref="p0"/><item ref="p1"/></items>
    </site>"#;

/// The queries, in order.
pub const QUERIES: &[&str] = &[
    "1 + 2 * 3",
    "sum(1 to 100)",
    "count($doc//person)",
    "for $p in $doc//person return string($p/name)",
    "for $p at $i in $doc//person return concat($i, \":\", string($p/name))",
    "let $adults := for $p in $doc//person where $p/age > 40 return $p \
         return count($adults)",
    "if (count($doc//item) > 2) then \"many\" else \"few\"",
    "(1, 2, (3, 4), ())",
    // A join over person ids — compiles to a hash join on the
    // compiled engine, nested loop on the interpreter.
    "for $i in $doc//item
         for $p in $doc//person
         where $i/@ref = $p/@id
         return string($p/name)",
    // Errors must agree too.
    "1 div 0",
    "$no_such_variable",
];
