//! Statement fingerprinting: normalized query shapes for the caches.
//!
//! Two SELECTs that differ only in literal values (or whitespace, or
//! comment noise) share one *shape*: a canonical rendering of the AST with
//! every literal replaced by an ordinal placeholder. The session keys its
//! plan cache on `(shape, parameter values)` — a [`StatementKey`] — and
//! the serving tier its result cache on the same key plus the table
//! epochs, so "the same query again" is recognized structurally, not
//! textually.

use crate::ast::{AstBinOp, AstExpr, SelectStatement};
use fudj_types::{FudjError, Result, Value};

/// The normalized shape of a SELECT: a stable hash plus the canonical
/// text it was computed from, the literal values that were parameterized
/// out (in traversal order), and the referenced dataset names.
#[derive(Clone, Debug, PartialEq)]
pub struct StatementShape {
    /// FNV-1a hash of [`Self::text`], for display: cache keys carry the
    /// text itself ([`StatementKey`]).
    pub shape: u64,
    /// Canonical rendering with literals replaced by `?1`, `?2`, ….
    pub text: String,
    /// The literal values in placeholder order (`?1` first).
    pub params: Vec<Value>,
    /// Dataset names referenced in FROM, in query order (duplicates kept:
    /// a self-join reads the table once per reference, but the epoch set
    /// dedups naturally through the catalog).
    pub tables: Vec<String>,
}

/// What the plan and result caches key a statement by: its canonical
/// shape text and literal values, which together are the statement. The
/// full text, not its hash, so a hash collision cannot alias two
/// statements.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StatementKey {
    pub text: String,
    pub params: Vec<Value>,
}

impl StatementShape {
    /// The cache key of the statement this is the shape of.
    pub fn key(self) -> StatementKey {
        StatementKey {
            text: self.text,
            params: self.params,
        }
    }
}

/// Compute the normalized shape of a SELECT. Literals become ordered
/// placeholders; identifiers, aliases, and clause structure are preserved
/// (they change the result schema, so they are part of the shape).
pub fn shape_of(sel: &SelectStatement) -> StatementShape {
    let mut w = ShapeWriter::default();
    w.select(sel);
    let shape = fnv1a(w.text.as_bytes());
    StatementShape {
        shape,
        text: w.text,
        params: w.params,
        tables: sel.from.iter().map(|t| t.dataset.clone()).collect(),
    }
}

/// Highest `$n` referenced anywhere in the statement (0 = none).
pub fn param_count(sel: &SelectStatement) -> u32 {
    fn walk(e: &AstExpr, max: &mut u32) {
        match e {
            AstExpr::Param(n) => *max = (*max).max(*n),
            AstExpr::Binary { left, right, .. } => {
                walk(left, max);
                walk(right, max);
            }
            AstExpr::Not(inner) => walk(inner, max),
            AstExpr::Call { args, .. } => args.iter().for_each(|a| walk(a, max)),
            _ => {}
        }
    }
    let mut max = 0;
    for_each_expr(sel, &mut |e| walk(e, &mut max));
    max
}

/// Substitute positional parameters `$1…$n` with literal values,
/// producing a parameter-free SELECT ready for binding. Errors on arity
/// mismatch and on value types that have no literal spelling.
pub fn substitute_params(sel: &SelectStatement, params: &[Value]) -> Result<SelectStatement> {
    let needed = param_count(sel);
    if needed as usize != params.len() {
        return Err(FudjError::Execution(format!(
            "prepared statement takes {needed} parameter{}, got {}",
            if needed == 1 { "" } else { "s" },
            params.len()
        )));
    }
    let mut out = sel.clone();
    let mut err = None;
    let subst = &mut |e: &mut AstExpr| {
        if let AstExpr::Param(n) = e {
            match literal_of(&params[(*n - 1) as usize]) {
                Ok(lit) => *e = lit,
                Err(problem) => err = err.take().or(Some(problem)),
            }
        }
    };
    for_each_expr_mut(&mut out, &mut |top| visit_mut(top, subst));
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Convert a literal expression (an `EXECUTE` argument, by parser
/// guarantee) into a parameter value.
pub fn literal_value(e: &AstExpr) -> Result<Value> {
    Ok(match e {
        AstExpr::IntLit(v) => Value::Int64(*v),
        AstExpr::FloatLit(v) => Value::Float64(*v),
        AstExpr::StrLit(s) => Value::str(s),
        AstExpr::BoolLit(b) => Value::Bool(*b),
        other => {
            return Err(FudjError::Execution(format!(
                "EXECUTE parameters must be literals, got {other:?}"
            )))
        }
    })
}

fn literal_of(v: &Value) -> Result<AstExpr> {
    Ok(match v {
        Value::Int64(n) => AstExpr::IntLit(*n),
        Value::Float64(f) => AstExpr::FloatLit(*f),
        Value::Str(s) => AstExpr::StrLit(s.to_string()),
        Value::Bool(b) => AstExpr::BoolLit(*b),
        other => {
            return Err(FudjError::Execution(format!(
                "parameter value {other} has no literal form"
            )))
        }
    })
}

fn visit_mut(e: &mut AstExpr, f: &mut impl FnMut(&mut AstExpr)) {
    f(e);
    match e {
        AstExpr::Binary { left, right, .. } => {
            visit_mut(left, f);
            visit_mut(right, f);
        }
        AstExpr::Not(inner) => visit_mut(inner, f),
        AstExpr::Call { args, .. } => args.iter_mut().for_each(|a| visit_mut(a, f)),
        _ => {}
    }
}

fn for_each_expr(sel: &SelectStatement, f: &mut impl FnMut(&AstExpr)) {
    for item in &sel.items {
        f(&item.expr);
    }
    if let Some(w) = &sel.where_clause {
        f(w);
    }
    for g in &sel.group_by {
        f(g);
    }
    for (e, _) in &sel.order_by {
        f(e);
    }
}

fn for_each_expr_mut(sel: &mut SelectStatement, f: &mut impl FnMut(&mut AstExpr)) {
    for item in &mut sel.items {
        f(&mut item.expr);
    }
    if let Some(w) = &mut sel.where_clause {
        f(w);
    }
    for g in &mut sel.group_by {
        f(g);
    }
    for (e, _) in &mut sel.order_by {
        f(e);
    }
}

/// Canonical-text writer: literals become `?k` (collected into `params`),
/// function names lowercase, everything else rendered structurally.
#[derive(Default)]
struct ShapeWriter {
    text: String,
    params: Vec<Value>,
}

impl ShapeWriter {
    fn push(&mut self, s: &str) {
        self.text.push_str(s);
    }

    fn select(&mut self, sel: &SelectStatement) {
        self.push("SELECT ");
        for (i, item) in sel.items.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.expr(&item.expr);
            if let Some(alias) = &item.alias {
                self.push(" AS ");
                self.push(alias);
            }
        }
        self.push(" FROM ");
        for (i, t) in sel.from.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.push(&t.dataset);
            self.push(" ");
            self.push(&t.alias);
        }
        if let Some(w) = &sel.where_clause {
            self.push(" WHERE ");
            self.expr(w);
        }
        if !sel.group_by.is_empty() {
            self.push(" GROUP BY ");
            for (i, g) in sel.group_by.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                self.expr(g);
            }
        }
        if !sel.order_by.is_empty() {
            self.push(" ORDER BY ");
            for (i, (e, desc)) in sel.order_by.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                self.expr(e);
                self.push(if *desc { " DESC" } else { " ASC" });
            }
        }
        if let Some(n) = sel.limit {
            // LIMIT shapes the result, so it stays literal in the shape:
            // `LIMIT 5` and `LIMIT 500` are different statements.
            self.push(&format!(" LIMIT {n}"));
        }
    }

    fn literal(&mut self, v: Value) {
        self.params.push(v);
        self.push(&format!("?{}", self.params.len()));
    }

    fn expr(&mut self, e: &AstExpr) {
        match e {
            AstExpr::Column(name) => self.push(name),
            AstExpr::IntLit(v) => self.literal(Value::Int64(*v)),
            AstExpr::FloatLit(v) => self.literal(Value::Float64(*v)),
            AstExpr::StrLit(s) => self.literal(Value::str(s)),
            AstExpr::BoolLit(b) => self.literal(Value::Bool(*b)),
            AstExpr::Param(n) => self.push(&format!("${n}")),
            AstExpr::Binary { op, left, right } => {
                self.push("(");
                self.expr(left);
                self.push(op_text(*op));
                self.expr(right);
                self.push(")");
            }
            AstExpr::Not(inner) => {
                self.push("NOT (");
                self.expr(inner);
                self.push(")");
            }
            AstExpr::Call { name, args } => {
                self.push(&name.to_ascii_lowercase());
                self.push("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(a);
                }
                self.push(")");
            }
            AstExpr::CountStar => self.push("COUNT(*)"),
            AstExpr::Wildcard => self.push("*"),
        }
    }
}

fn op_text(op: AstBinOp) -> &'static str {
    match op {
        AstBinOp::Eq => " = ",
        AstBinOp::NotEq => " <> ",
        AstBinOp::Lt => " < ",
        AstBinOp::LtEq => " <= ",
        AstBinOp::Gt => " > ",
        AstBinOp::GtEq => " >= ",
        AstBinOp::And => " AND ",
        AstBinOp::Or => " OR ",
        AstBinOp::Add => " + ",
        AstBinOp::Sub => " - ",
        AstBinOp::Mul => " * ",
        AstBinOp::Div => " / ",
    }
}

/// Stable fingerprint of a statement's verbatim text. Keys the query
/// journal across restarts: the resuming process recomputes the same
/// value from the journaled SQL, so durable checkpoints written under
/// this fingerprint are found again after a crash.
pub fn statement_fingerprint(sql: &str) -> u64 {
    fnv1a(sql.as_bytes())
}

/// FNV-1a, 64-bit: tiny, dependency-free, stable across runs and
/// platforms (unlike `DefaultHasher`, whose seed is unspecified).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    fn sel(sql: &str) -> SelectStatement {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            Statement::Prepare { select, .. } => select,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn literals_parameterize_to_the_same_shape() {
        let a = shape_of(&sel("SELECT w.id FROM Wildfires w WHERE w.acres >= 100"));
        let b = shape_of(&sel(
            "select   w.id from Wildfires w /* c */ where w.acres >= 250",
        ));
        assert_eq!(a.shape, b.shape, "{} vs {}", a.text, b.text);
        assert_eq!(a.params, vec![Value::Int64(100)]);
        assert_eq!(b.params, vec![Value::Int64(250)]);
        assert_eq!(a.tables, vec!["Wildfires"]);
    }

    #[test]
    fn different_structure_means_different_shape() {
        let a = shape_of(&sel("SELECT w.id FROM Wildfires w WHERE w.acres >= 100"));
        let b = shape_of(&sel("SELECT w.id FROM Wildfires w WHERE w.acres > 100"));
        let c = shape_of(&sel("SELECT w.id FROM Wildfires w"));
        let d = shape_of(&sel(
            "SELECT w.id AS fire FROM Wildfires w WHERE w.acres >= 100",
        ));
        let e = shape_of(&sel(
            "SELECT w.id FROM Wildfires w WHERE w.acres >= 100 LIMIT 3",
        ));
        assert_ne!(a.shape, b.shape, "operator is structural");
        assert_ne!(a.shape, c.shape, "WHERE presence is structural");
        assert_ne!(a.shape, d.shape, "aliases change the output schema");
        assert_ne!(a.shape, e.shape, "LIMIT is structural");
    }

    #[test]
    fn params_count_and_substitute() {
        let s = sel("SELECT w.id FROM Wildfires w WHERE w.acres >= $1 AND w.name = $2");
        assert_eq!(param_count(&s), 2);
        let bound = substitute_params(&s, &[Value::Float64(2.5), Value::str("creek")]).unwrap();
        assert_eq!(param_count(&bound), 0);
        let shape = shape_of(&bound);
        assert_eq!(shape.params, vec![Value::Float64(2.5), Value::str("creek")]);
        // Substituted form matches the same query written with literals.
        let direct = sel("SELECT w.id FROM Wildfires w WHERE w.acres >= 2.5 AND w.name = 'creek'");
        assert_eq!(shape.shape, shape_of(&direct).shape);

        // Arity mismatches are clean errors.
        let err = substitute_params(&s, &[Value::Int64(1)]).unwrap_err();
        assert!(err.to_string().contains("takes 2 parameters"), "{err}");
        let none = sel("SELECT w.id FROM Wildfires w");
        assert!(substitute_params(&none, &[Value::Int64(1)]).is_err());
    }

    #[test]
    fn unsubstituted_shape_keeps_placeholders_distinct_from_literals() {
        let with_param = shape_of(&sel("SELECT w.id FROM Wildfires w WHERE w.acres >= $1"));
        let with_lit = shape_of(&sel("SELECT w.id FROM Wildfires w WHERE w.acres >= 5"));
        assert_ne!(with_param.shape, with_lit.shape);
        assert!(with_param.params.is_empty());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
