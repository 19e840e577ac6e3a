//! Offline shim for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for non-generic structs and enums, generating impls of the serde shim's
//! `Value`-based traits. The input item is parsed directly from the
//! `proc_macro::TokenStream` (no `syn`/`quote` available offline) and the
//! generated impl is assembled as source text.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

/// Shape of one struct body or enum variant payload.
enum Fields {
    Unit,
    /// Tuple fields; the count.
    Tuple(usize),
    /// Named fields, in declaration order.
    Named(Vec<String>),
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`, doc comments) and visibility.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive does not support generic type `{name}`");
        }
    }

    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: expected enum body, got {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

/// Extracts field names from a braced field list, skipping attributes,
/// visibility, and the (possibly generic) type after each `:`.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        names.push(name);
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field, got {other:?}"),
        }
        i = skip_type(&tokens, i);
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
    }
    names
}

/// Counts top-level comma-separated fields of a tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        count += 1;
        i = skip_type(&tokens, i);
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the next comma.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push((name, fields));
    }
    variants
}

fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Advances past one type, stopping at a top-level `,` (or the end).
/// Tracks `<`/`>` nesting; `->` inside `Fn` sugar does not close a bracket.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle: i32 = 0;
    let mut prev_dash = false;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) => {
                let c = p.as_char();
                if c == ',' && angle == 0 {
                    return i;
                }
                if c == '<' {
                    angle += 1;
                } else if c == '>' && !prev_dash {
                    angle -= 1;
                }
                prev_dash = c == '-';
            }
            _ => prev_dash = false,
        }
        i += 1;
    }
    i
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_string(),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Seq(::std::vec![{}])", elems.join(", "))
                }
                Fields::Named(names) => map_expr(names, "self."),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v}({}) => ::serde::Value::Map(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), \
                             ::serde::Value::Seq(::std::vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(names) => {
                        let inner = map_expr(names, "");
                        arms.push_str(&format!(
                            "{name}::{v} {{ {} }} => ::serde::Value::Map(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), {inner})]),\n",
                            names.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}\n}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

/// `Value::Map` literal from field names; `prefix` is `self.` or empty
/// (for match-bound struct-variant fields, which are references).
fn map_expr(names: &[String], prefix: &str) -> String {
    let entries: Vec<String> = names
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), \
                 ::serde::Serialize::to_value(&{prefix}{f}))"
            )
        })
        .collect();
    format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!("::std::result::Result::Ok({name})"),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|k| {
                            format!(
                                "::serde::Deserialize::from_value(__seq.get({k})\
                                 .ok_or_else(|| ::serde::DeError::msg(\"tuple too short\"))?)?"
                            )
                        })
                        .collect();
                    format!(
                        "let __seq = v.as_seq().ok_or_else(|| \
                         ::serde::DeError::msg(\"expected sequence for {name}\"))?;\n\
                         ::std::result::Result::Ok({name}({}))",
                        elems.join(", ")
                    )
                }
                Fields::Named(names) => {
                    format!(
                        "let __map = v.as_map().ok_or_else(|| \
                         ::serde::DeError::msg(\"expected map for {name}\"))?;\n\
                         ::std::result::Result::Ok({name} {{ {} }})",
                        named_init(names, "__map")
                    )
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| {
                                format!(
                                    "::serde::Deserialize::from_value(__seq.get({k})\
                                     .ok_or_else(|| ::serde::DeError::msg(\"variant payload too short\"))?)?"
                                )
                            })
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                                 let __seq = __inner.as_seq().ok_or_else(|| \
                                 ::serde::DeError::msg(\"expected sequence payload\"))?;\n\
                                 ::std::result::Result::Ok({name}::{v}({}))\n\
                             }}\n",
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(names) => data_arms.push_str(&format!(
                        "\"{v}\" => {{\n\
                             let __m = __inner.as_map().ok_or_else(|| \
                             ::serde::DeError::msg(\"expected map payload\"))?;\n\
                             ::std::result::Result::Ok({name}::{v} {{ {} }})\n\
                         }}\n",
                        named_init(names, "__m")
                    )),
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         if let ::std::option::Option::Some(__s) = v.as_str() {{\n\
                             #[allow(unreachable_code)]\n\
                             return match __s {{\n{unit_arms}\
                                 _ => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown {name} variant `{{__s}}`\"))),\n\
                             }};\n\
                         }}\n\
                         let __map = v.as_map().ok_or_else(|| \
                             ::serde::DeError::msg(\"expected tagged map for {name}\"))?;\n\
                         let (__tag, __inner) = __map.first().ok_or_else(|| \
                             ::serde::DeError::msg(\"empty tagged map for {name}\"))?;\n\
                         let _ = __inner;\n\
                         match __tag.as_str() {{\n{data_arms}\
                             _ => ::std::result::Result::Err(::serde::DeError::msg(\
                                 ::std::format!(\"unknown {name} variant `{{__tag}}`\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn named_init(names: &[String], map: &str) -> String {
    names
        .iter()
        .map(|f| {
            format!("{f}: ::serde::Deserialize::from_value(::serde::field({map}, \"{f}\")?)?, ")
        })
        .collect()
}
