//! A minimal, dependency-free XML parser.
//!
//! Supports exactly what Android manifest and layout files need:
//! the XML declaration, comments, elements with attributes (single- or
//! double-quoted), self-closing tags, nested children and text content.
//! Namespace prefixes (`android:id`) are kept verbatim in attribute and
//! element names. Entities `&amp; &lt; &gt; &quot; &apos;` are decoded.

use std::fmt;

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name, including any namespace prefix.
    pub name: String,
    /// Attributes in document order as `(name, value)` pairs.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated direct text content (trimmed).
    pub text: String,
}

impl XmlElement {
    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// All direct children with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The first direct child with the given tag name.
    pub fn child<'a>(&'a self, name: &'a str) -> Option<&'a XmlElement> {
        self.children_named(name).next()
    }

    /// This element and all descendants, in breadth-first order.
    pub fn descendants(&self) -> Vec<&XmlElement> {
        let mut out = vec![self];
        let mut i = 0;
        while i < out.len() {
            let node: &XmlElement = out[i];
            // Safety of indices: we only append, never remove.
            for c in &node.children {
                out.push(c);
            }
            i += 1;
        }
        out
    }
}

/// An XML parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parses a complete XML document, returning its root element.
///
/// # Errors
///
/// Returns [`XmlError`] on malformed input (unterminated tags, mismatched
/// closing tags, missing root, trailing garbage).
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, the XML declaration and comments.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match find(self.bytes, self.pos, "?>") {
                    Some(end) => self.pos = end + 2,
                    None => return Err(self.err("unterminated <? declaration")),
                }
            } else if self.starts_with("<!--") {
                match find(self.bytes, self.pos, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_element(&mut self) -> Result<XmlElement, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(XmlElement {
                        name,
                        attrs,
                        children: Vec::new(),
                        text: String::new(),
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let an = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if quote != Some(b'"') && quote != Some(b'\'') {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(q) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(q) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    attrs.push((an, decode_entities(&raw)));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Content.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            if self.starts_with("<!--") {
                match find(self.bytes, self.pos, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(
                        self.err(&format!("mismatched closing tag </{close}> for <{name}>"))
                    );
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in closing tag"));
                }
                self.pos += 1;
                let text = decode_entities(text.trim());
                return Ok(XmlElement { name, attrs, children, text });
            } else if self.peek() == Some(b'<') {
                children.push(self.parse_element()?);
            } else if self.peek().is_some() {
                text.push(self.bytes[self.pos] as char);
                self.pos += 1;
            } else {
                return Err(self.err(&format!("unterminated element <{name}>")));
            }
        }
    }
}

fn find(bytes: &[u8], from: usize, needle: &str) -> Option<usize> {
    let nb = needle.as_bytes();
    (from..bytes.len().saturating_sub(nb.len() - 1)).find(|&i| bytes[i..].starts_with(nb))
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_manifest_like_document() {
        let doc = r#"<?xml version="1.0" encoding="utf-8"?>
<!-- a comment -->
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
          package="com.example.app">
    <application android:label="Demo">
        <activity android:name=".MainActivity" android:enabled="true">
            <intent-filter>
                <action android:name="android.intent.action.MAIN"/>
            </intent-filter>
        </activity>
        <service android:name=".Worker"/>
    </application>
</manifest>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "manifest");
        assert_eq!(root.attr("package"), Some("com.example.app"));
        let app = root.child("application").unwrap();
        assert_eq!(app.children_named("activity").count(), 1);
        assert_eq!(app.children_named("service").count(), 1);
        let act = app.child("activity").unwrap();
        assert_eq!(act.attr("android:name"), Some(".MainActivity"));
        let filter = act.child("intent-filter").unwrap();
        assert_eq!(
            filter.child("action").unwrap().attr("android:name"),
            Some("android.intent.action.MAIN")
        );
    }

    #[test]
    fn self_closing_and_text() {
        let root = parse("<a x='1'><b/>hello<c> world </c></a>").unwrap();
        assert_eq!(root.attr("x"), Some("1"));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.text, "hello");
        assert_eq!(root.child("c").unwrap().text, "world");
    }

    #[test]
    fn entities_are_decoded() {
        let root = parse(r#"<a v="&lt;&amp;&gt;">&quot;x&quot;</a>"#).unwrap();
        assert_eq!(root.attr("v"), Some("<&>"));
        assert_eq!(root.text, "\"x\"");
    }

    #[test]
    fn descendants_are_breadth_first() {
        let root = parse("<a><b><c/></b><d/></a>").unwrap();
        let names: Vec<_> = root.descendants().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "d", "c"]);
    }

    #[test]
    fn error_on_mismatched_close() {
        let err = parse("<a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn error_on_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn error_on_unterminated() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("<a x=1/>").is_err());
    }
}
