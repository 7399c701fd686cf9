//! A generic JSON value over the vendored `serde` data model, for the
//! result files, the server's metric lines and `BENCHMARK.json`.

pub use serde::Content;
use serde::{DeError, Deserialize, Serialize};

/// Lets `serde_json` parse into, and render from, a bare [`Content`] tree.
struct Json(Content);

impl Serialize for Json {
    fn serialize(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize(v: &Content) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

pub fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn render(value: &Content) -> String {
    serde_json::to_string(&Json(value.clone())).expect("a Content tree always renders")
}

pub fn render_pretty(value: &Content) -> String {
    serde_json::to_string_pretty(&Json(value.clone())).expect("a Content tree always renders")
}

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn get<'a>(value: &'a Content, key: &str) -> Option<&'a Content> {
    value
        .as_map()?
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

pub fn as_f64(value: &Content) -> Option<f64> {
    match *value {
        Content::U64(n) => Some(n as f64),
        Content::I64(n) => Some(n as f64),
        Content::F64(n) => Some(n),
        _ => None,
    }
}

/// `value[key]` as a number, or 0 when absent.
pub fn number(value: &Content, key: &str) -> f64 {
    get(value, key).and_then(as_f64).unwrap_or(0.0)
}

/// `value[key]` as a list of numbers, empty when absent.
pub fn numbers(value: &Content, key: &str) -> Vec<f64> {
    get(value, key)
        .and_then(Content::as_seq)
        .map(|items| items.iter().filter_map(as_f64).collect())
        .unwrap_or_default()
}
