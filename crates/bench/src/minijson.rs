//! A minimal JSON reader for the bench artifacts.
//!
//! The experiment plane hand-rolls its JSON output, so the baseline
//! differ needs a reader for the same dialect: objects, arrays, strings
//! with the basic escapes, `f64` numbers, and the three literals. This
//! is a strict recursive-descent parser over exactly that grammar — not
//! a general-purpose JSON library, just the other half of
//! [`polystyrene_lab::summary_json`].

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always read as `f64` — the artifacts' integers are
    /// all small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (the artifacts never repeat keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object, `None` on any other variant.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, `None` on any other variant (including
    /// `Null` — absent metrics stay absent).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, `None` on any other variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, `None` on any other variant.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, `None` on any other variant.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut at = 0usize;
    let value = parse_value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing input at byte {at}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*at) == Some(&byte) {
        *at += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {at}, found {:?}",
            byte as char,
            bytes.get(*at).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{') => parse_object(bytes, at),
        Some(b'[') => parse_array(bytes, at),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, at)?)),
        Some(b'n') => parse_literal(bytes, at, "null", Json::Null),
        Some(b't') => parse_literal(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", Json::Bool(false)),
        Some(_) => parse_number(bytes, at),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {at}"))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    while *at < bytes.len() && matches!(bytes[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *at += 1;
    }
    std::str::from_utf8(&bytes[start..*at])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*at) {
            Some(b'"') => {
                *at += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *at += 1;
                let escaped = match bytes.get(*at) {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'/') => b'/',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b'r') => b'\r',
                    other => {
                        return Err(format!(
                            "unsupported escape {:?} at byte {at}",
                            other.map(|&b| b as char)
                        ))
                    }
                };
                out.push(escaped);
                *at += 1;
            }
            Some(&b) => {
                out.push(b);
                *at += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected , or ] but found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        expect(bytes, at, b':')?;
        members.push((key, parse_value(bytes, at)?));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected , or }} but found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitter_dialect() {
        let doc = parse(
            "{\"figure\":\"substrate_matrix\",\"nodes\":32,\
             \"wall_secs\":{\"engine\":1.250,\"tcp\":9.001},\
             \"entries\":[{\"label\":\"engine\",\"mean_reshaping_rounds\":6.00,\
             \"mean_cost_units\":null,\"final_homogeneity\":{\"min\":0.5,\"mean\":0.6,\"max\":0.7}}]}",
        )
        .unwrap();
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("substrate_matrix")
        );
        assert_eq!(doc.get("nodes").unwrap().as_f64(), Some(32.0));
        let walls = doc.get("wall_secs").unwrap();
        assert_eq!(walls.get("tcp").unwrap().as_f64(), Some(9.001));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("label").unwrap().as_str(), Some("engine"));
        assert_eq!(
            entries[0].get("mean_reshaping_rounds").unwrap().as_f64(),
            Some(6.0)
        );
        // Null metrics read as absent numbers, not as zero.
        assert_eq!(entries[0].get("mean_cost_units").unwrap().as_f64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\n\"").unwrap(),
            Json::Str("a\"b\\c\n".to_string())
        );
    }
}
