//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored serde
//! shim.
//!
//! The build environment has no crates.io access, so there is no `syn` or
//! `quote`; the input item is parsed directly from the `proc_macro` token
//! stream. Supported shapes — which cover every derived type in this
//! workspace — are structs with named fields and enums whose variants are
//! unit, tuple, or struct-like. Enums serialize externally tagged exactly
//! like real serde: `Unit` → `"Unit"`, `Tuple(a, b)` → `{"Tuple": [a, b]}`,
//! `Struct { x }` → `{"Struct": {"x": …}}`. Generic types are rejected with
//! a compile error rather than silently misbehaving. The one field
//! attribute read is `#[serde(default)]`: a field that carries it takes
//! `Default::default()` when the input has no entry for it (any other
//! missing field is an error, as upstream).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Field {
    name: String,
    /// Carries `#[serde(default)]`.
    default: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let code = match (item, mode) {
        (Item::Struct { name, fields }, Mode::Serialize) => serialize_struct(&name, &fields),
        (Item::Struct { name, fields }, Mode::Deserialize) => deserialize_struct(&name, &fields),
        (Item::Enum { name, variants }, Mode::Serialize) => serialize_enum(&name, &variants),
        (Item::Enum { name, variants }, Mode::Deserialize) => deserialize_enum(&name, &variants),
    };
    match code.parse() {
        Ok(ts) => ts,
        Err(e) => compile_error(&format!("serde_derive shim produced invalid code: {e}")),
    }
}

// --- parsing ---------------------------------------------------------------

/// Skip attribute tokens (`#` or `#!` followed by a bracket group) starting
/// at `i`; returns the index of the first non-attribute token.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 1;
                if let Some(TokenTree::Punct(p2)) = tokens.get(i) {
                    if p2.as_char() == '!' {
                        i += 1;
                    }
                }
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    i += 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    i
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, …) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i..], [TokenTree::Ident(id), ..] if id.to_string() == "pub") {
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Split a token list on top-level commas, tracking `<...>` depth so commas
/// inside generic arguments don't split. Groups are atomic tokens, so
/// parentheses/brackets/braces need no tracking.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// First identifier in a field chunk after attributes and visibility: the
/// field name.
fn field_name(chunk: &[TokenTree]) -> Result<String, String> {
    let i = skip_vis(chunk, skip_attrs(chunk, 0));
    match chunk.get(i) {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!(
            "serde shim derive: expected field name, found {other:?}"
        )),
    }
}

/// Does a field chunk carry `#[serde(default)]` among its attributes?
fn has_serde_default(chunk: &[TokenTree]) -> bool {
    let end = skip_attrs(chunk, 0);
    chunk[..end].iter().any(|t| {
        let TokenTree::Group(g) = t else { return false };
        let toks: Vec<TokenTree> = g.stream().into_iter().collect();
        matches!(
            toks.as_slice(),
            [TokenTree::Ident(id), TokenTree::Group(args)]
                if id.to_string() == "serde" && args.stream().to_string() == "default"
        )
    })
}

fn parse_named_fields(group_tokens: &[TokenTree]) -> Result<Vec<Field>, String> {
    split_top_level_commas(group_tokens)
        .iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            Ok(Field {
                name: field_name(chunk)?,
                default: has_serde_default(chunk),
            })
        })
        .collect()
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&tokens, skip_attrs(&tokens, 0));
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                i += 1;
            }
            Some(_) => i += 1,
            None => return Err("serde shim derive: no struct/enum keyword found".into()),
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected type name, found {other:?}"
            ))
        }
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported; write the impls by hand"
        ));
    }
    // `where` clauses without generics don't occur; next token is the body.
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "serde shim derive: tuple struct `{name}` is not supported; use named fields"
                ));
            }
            Some(_) => i += 1,
            None => return Err(format!("serde shim derive: `{name}` has no body")),
        }
    };
    let body_tokens: Vec<TokenTree> = body.stream().into_iter().collect();
    if kind == "struct" {
        Ok(Item::Struct {
            name,
            fields: parse_named_fields(&body_tokens)?,
        })
    } else {
        let variants = split_top_level_commas(&body_tokens)
            .iter()
            .filter(|chunk| !chunk.is_empty())
            .map(|chunk| parse_variant(chunk))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Item::Enum { name, variants })
    }
}

fn parse_variant(chunk: &[TokenTree]) -> Result<Variant, String> {
    let i = skip_attrs(chunk, 0);
    let name = match chunk.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected variant name, found {other:?}"
            ))
        }
    };
    let kind = match chunk.get(i + 1) {
        None => VariantKind::Unit,
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantKind::Unit,
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            VariantKind::Struct(parse_named_fields(&toks)?)
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let toks: Vec<TokenTree> = g.stream().into_iter().collect();
            let arity = split_top_level_commas(&toks)
                .iter()
                .filter(|c| !c.is_empty())
                .count();
            VariantKind::Tuple(arity)
        }
        other => {
            return Err(format!(
                "serde shim derive: unexpected token {other:?} after variant `{name}`"
            ))
        }
    };
    Ok(Variant { name, kind })
}

// --- code generation -------------------------------------------------------

fn serialize_struct(name: &str, fields: &[Field]) -> String {
    let pushes: String = fields
        .iter()
        .map(|Field { name: f, .. }| {
            format!("__obj.push(({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})));\n")
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 let mut __obj: Vec<(String, ::serde::Value)> = Vec::with_capacity({n});\n\
                 {pushes}\
                 ::serde::Value::Object(__obj)\n\
             }}\n\
         }}\n",
        n = fields.len()
    )
}

fn field_from_value(ty_name: &str, field: &Field, source: &str) -> String {
    let Field { name, default } = field;
    if *default {
        format!(
            "{name}: match {source}.get({name:?}) {{\n\
                 Some(__v) => ::serde::Deserialize::from_value(__v)?,\n\
                 None => ::core::default::Default::default(),\n\
             }},\n"
        )
    } else {
        format!(
            "{name}: ::serde::Deserialize::from_value({source}.get({name:?})\
                 .ok_or_else(|| ::serde::Error::missing_field({ty_name:?}, {name:?}))?)?,\n"
        )
    }
}

fn deserialize_struct(name: &str, fields: &[Field]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| field_from_value(name, f, "v"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                 if !matches!(v, ::serde::Value::Object(_)) {{\n\
                     return Err(::serde::Error::type_mismatch(\"object\", v));\n\
                 }}\n\
                 Ok({name} {{\n{inits}}})\n\
             }}\n\
         }}\n"
    )
}

fn serialize_enum(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| {
            let vname = &v.name;
            match &v.kind {
                VariantKind::Unit => format!(
                    "{name}::{vname} => ::serde::Value::Str({vname:?}.to_string()),\n"
                ),
                VariantKind::Tuple(1) => format!(
                    "{name}::{vname}(__f0) => ::serde::Value::Object(vec![({vname:?}.to_string(), \
                     ::serde::Serialize::to_value(__f0))]),\n"
                ),
                VariantKind::Tuple(n) => {
                    let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                    let items: String = binders
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b}),"))
                        .collect();
                    format!(
                        "{name}::{vname}({bind}) => ::serde::Value::Object(vec![({vname:?}.to_string(), \
                         ::serde::Value::Array(vec![{items}]))]),\n",
                        bind = binders.join(", ")
                    )
                }
                VariantKind::Struct(fields) => {
                    let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                    let bind = names.join(", ");
                    let items: String = names
                        .iter()
                        .map(|f| {
                            format!("({f:?}.to_string(), ::serde::Serialize::to_value({f})),")
                        })
                        .collect();
                    format!(
                        "{name}::{vname} {{ {bind} }} => ::serde::Value::Object(vec![({vname:?}.to_string(), \
                         ::serde::Value::Object(vec![{items}]))]),\n"
                    )
                }
            }
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 match self {{\n{arms}}}\n\
             }}\n\
         }}\n"
    )
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .map(|v| format!("{vn:?} => Ok({name}::{vn}),\n", vn = v.name))
        .collect();
    let data_arms: String = variants
        .iter()
        .filter_map(|v| {
            let vname = &v.name;
            match &v.kind {
                VariantKind::Unit => None,
                VariantKind::Tuple(1) => Some(format!(
                    "{vname:?} => Ok({name}::{vname}(::serde::Deserialize::from_value(__payload)?)),\n"
                )),
                VariantKind::Tuple(n) => {
                    let items: String = (0..*n)
                        .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?,"))
                        .collect();
                    Some(format!(
                        "{vname:?} => match __payload {{\n\
                             ::serde::Value::Array(__items) if __items.len() == {n} => \
                                 Ok({name}::{vname}({items})),\n\
                             __other => Err(::serde::Error::type_mismatch(\"tuple array\", __other)),\n\
                         }},\n"
                    ))
                }
                VariantKind::Struct(fields) => {
                    let inits: String = fields
                        .iter()
                        .map(|f| field_from_value(name, f, "__payload"))
                        .collect();
                    Some(format!(
                        "{vname:?} => Ok({name}::{vname} {{\n{inits}}}),\n"
                    ))
                }
            }
        })
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                 match v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit_arms}\
                         __other => Err(::serde::Error::custom(format!(\
                             \"unknown {name} variant `{{__other}}`\"))),\n\
                     }},\n\
                     ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                         let (__tag, __payload) = &__pairs[0];\n\
                         match __tag.as_str() {{\n\
                             {data_arms}\
                             __other => Err(::serde::Error::custom(format!(\
                                 \"unknown {name} variant `{{__other}}`\"))),\n\
                         }}\n\
                     }}\n\
                     _ => Err(::serde::Error::type_mismatch(\"enum representation\", v)),\n\
                 }}\n\
             }}\n\
         }}\n"
    )
}
