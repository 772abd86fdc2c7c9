//! Scalar built-in functions — the predicate vocabulary of the paper's
//! queries (Queries 1–3 and 5).

use fudj_exec::ScalarFn;
use fudj_geo::Point;
use fudj_temporal::Interval;
use fudj_text::jaccard::jaccard_similarity_texts;
use fudj_types::{DataType, FudjError, Result, Value};
use std::sync::Arc;

/// Return type of a built-in (used for schema inference).
pub fn return_type(name: &str) -> DataType {
    match name {
        "st_contains" | "st_intersects" | "overlapping_interval" | "interval_overlapping" => {
            DataType::Bool
        }
        "st_makepoint" | "st_make_point" => DataType::Point,
        "st_distance" | "jaccard_similarity" | "similarity_jaccard" | "abs" => DataType::Float64,
        "word_tokens" => DataType::List(Box::new(DataType::String)),
        "interval" => DataType::Interval,
        "parse_date" => DataType::DateTime,
        _ => DataType::Null,
    }
}

fn arity_err(name: &str, want: usize, got: usize) -> FudjError {
    FudjError::Execution(format!("{name} expects {want} arguments, got {got}"))
}

fn args_n<'a>(name: &str, args: &'a [Value], n: usize) -> Result<&'a [Value]> {
    if args.len() != n {
        Err(arity_err(name, n, args.len()))
    } else {
        Ok(args)
    }
}

/// A text argument: either a string or a `word_tokens(...)` list.
fn text_of(v: &Value, ctx: &str) -> Result<String> {
    match v {
        Value::Str(s) => Ok(s.to_string()),
        Value::List(items) => {
            let words: Result<Vec<&str>> = items.iter().map(|w| w.as_str()).collect();
            Ok(words?.join(" "))
        }
        other => Err(FudjError::type_mismatch("string or token list", other, ctx)),
    }
}

/// The body of a built-in (`name` lowercase), resolved once when an
/// expression binds; `None` for an unknown name.
pub fn resolve(name: &str) -> Option<ScalarFn> {
    let body: fn(&[Value]) -> Result<Value> = match name {
        "st_contains" => |args| {
            let a = args_n("st_contains", args, 2)?;
            Ok(match (&a[0], &a[1]) {
                (Value::Polygon(poly), Value::Point(p)) => Value::Bool(poly.contains_point(p)),
                (Value::Polygon(a_poly), Value::Polygon(b_poly)) => {
                    // contains ⊇: every vertex of b inside a and no edge
                    // crossings — approximated by "a contains b's MBR corners
                    // and they intersect"; exact for our convex parks.
                    Value::Bool(b_poly.ring().iter().all(|p| a_poly.contains_point(p)))
                }
                (l, r) => {
                    return Err(FudjError::type_mismatch(
                        "(polygon, point|polygon)",
                        (l.data_type(), r.data_type()),
                        "st_contains",
                    ))
                }
            })
        },
        "st_intersects" => |args| {
            let a = args_n("st_intersects", args, 2)?;
            Ok(match (&a[0], &a[1]) {
                (Value::Polygon(p), Value::Polygon(q)) => Value::Bool(p.intersects(q)),
                (Value::Polygon(p), Value::Point(q)) | (Value::Point(q), Value::Polygon(p)) => {
                    Value::Bool(p.contains_point(q))
                }
                (Value::Point(p), Value::Point(q)) => Value::Bool(p == q),
                (l, r) => {
                    return Err(FudjError::type_mismatch(
                        "two geometries",
                        (l.data_type(), r.data_type()),
                        "st_intersects",
                    ))
                }
            })
        },
        "st_makepoint" | "st_make_point" => |args| {
            let a = args_n("st_makepoint", args, 2)?;
            Ok(Value::Point(Point::new(a[0].as_f64()?, a[1].as_f64()?)))
        },
        "st_distance" => |args| {
            let a = args_n("st_distance", args, 2)?;
            let d = match (&a[0], &a[1]) {
                (Value::Point(p), Value::Point(q)) => p.distance(q),
                (Value::Point(p), Value::Polygon(poly))
                | (Value::Polygon(poly), Value::Point(p)) => poly.distance_to_point(p),
                (Value::Polygon(p), Value::Polygon(q)) => {
                    if p.intersects(q) {
                        0.0
                    } else {
                        p.mbr().distance(&q.mbr())
                    }
                }
                (l, r) => {
                    return Err(FudjError::type_mismatch(
                        "two geometries",
                        (l.data_type(), r.data_type()),
                        "st_distance",
                    ))
                }
            };
            Ok(Value::Float64(d))
        },
        "jaccard_similarity" | "similarity_jaccard" => |args| {
            let a = args_n("jaccard_similarity", args, 2)?;
            let t1 = text_of(&a[0], "jaccard_similarity")?;
            let t2 = text_of(&a[1], "jaccard_similarity")?;
            Ok(Value::Float64(jaccard_similarity_texts(&t1, &t2)))
        },
        "word_tokens" => |args| {
            let a = args_n("word_tokens", args, 1)?;
            let tokens = fudj_text::tokenize(a[0].as_str()?);
            Ok(Value::list(tokens.into_iter().map(Value::str).collect()))
        },
        "overlapping_interval" | "interval_overlapping" => |args| {
            let a = args_n("overlapping_interval", args, 2)?;
            Ok(Value::Bool(
                a[0].as_interval()?.overlaps(&a[1].as_interval()?),
            ))
        },
        "interval" => |args| {
            let a = args_n("interval", args, 2)?;
            let start = a[0].as_f64()? as i64;
            let end = a[1].as_f64()? as i64;
            if start > end {
                return Err(FudjError::Execution(format!(
                    "interval start {start} after end {end}"
                )));
            }
            Ok(Value::Interval(Interval::new(start, end)))
        },
        "parse_date" => |args| {
            let a = args_n("parse_date", args, 2)?;
            let ms =
                fudj_temporal::parse_date(a[0].as_str()?, a[1].as_str()?).ok_or_else(|| {
                    FudjError::Execution(format!("cannot parse date {:?} as {:?}", a[0], a[1]))
                })?;
            Ok(Value::DateTime(ms))
        },
        "abs" => |args| {
            let a = args_n("abs", args, 1)?;
            Ok(match &a[0] {
                Value::Int64(v) => Value::Int64(v.abs()),
                other => Value::Float64(other.as_f64()?.abs()),
            })
        },
        _ => return None,
    };
    Some(Arc::new(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_geo::{Polygon, Rect};

    fn evaluate(name: &str, args: &[Value]) -> Result<Value> {
        resolve(name).expect("a built-in")(args)
    }

    fn is_builtin(name: &str) -> bool {
        resolve(name).is_some()
    }

    fn square() -> Value {
        Value::polygon(Polygon::from_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)))
    }

    #[test]
    fn st_contains_point() {
        let inside = evaluate(
            "st_contains",
            &[square(), Value::Point(Point::new(5.0, 5.0))],
        );
        assert_eq!(inside.unwrap(), Value::Bool(true));
        let outside = evaluate(
            "st_contains",
            &[square(), Value::Point(Point::new(50.0, 5.0))],
        );
        assert_eq!(outside.unwrap(), Value::Bool(false));
        assert!(evaluate("st_contains", &[Value::Int64(1), Value::Int64(2)]).is_err());
    }

    #[test]
    fn st_makepoint_and_distance() {
        let p = evaluate("st_makepoint", &[Value::Float64(3.0), Value::Float64(4.0)]).unwrap();
        assert_eq!(p, Value::Point(Point::new(3.0, 4.0)));
        let d = evaluate("st_distance", &[p, Value::Point(Point::new(0.0, 0.0))]).unwrap();
        assert_eq!(d, Value::Float64(5.0));
    }

    #[test]
    fn jaccard_over_strings_and_token_lists() {
        let direct = evaluate(
            "jaccard_similarity",
            &[Value::str("a b c"), Value::str("b c d")],
        )
        .unwrap();
        assert_eq!(direct, Value::Float64(0.5));

        // Query 5 form: similarity_jaccard(word_tokens(x), word_tokens(y)).
        let ta = evaluate("word_tokens", &[Value::str("a b c")]).unwrap();
        let tb = evaluate("word_tokens", &[Value::str("b c d")]).unwrap();
        let via_tokens = evaluate("similarity_jaccard", &[ta, tb]).unwrap();
        assert_eq!(via_tokens, Value::Float64(0.5));
    }

    #[test]
    fn interval_builtins() {
        let i1 = evaluate("interval", &[Value::DateTime(0), Value::DateTime(10)]).unwrap();
        let i2 = evaluate("interval", &[Value::DateTime(5), Value::DateTime(20)]).unwrap();
        assert_eq!(
            evaluate("overlapping_interval", &[i1.clone(), i2]).unwrap(),
            Value::Bool(true)
        );
        assert!(evaluate("interval", &[Value::DateTime(10), Value::DateTime(0)]).is_err());
        let _ = i1;
    }

    #[test]
    fn parse_date_builtin() {
        let v = evaluate(
            "parse_date",
            &[Value::str("01/01/2022"), Value::str("M/D/Y")],
        )
        .unwrap();
        assert_eq!(v, Value::DateTime(18_993 * 86_400_000));
        assert!(evaluate(
            "parse_date",
            &[Value::str("13/99/2022"), Value::str("M/D/Y")]
        )
        .is_err());
    }

    #[test]
    fn arity_checked() {
        assert!(evaluate("st_contains", &[square()]).is_err());
        assert!(evaluate("abs", &[]).is_err());
    }

    #[test]
    fn builtin_registry_consistency() {
        for name in [
            "st_contains",
            "st_makepoint",
            "st_distance",
            "jaccard_similarity",
            "overlapping_interval",
            "interval",
            "parse_date",
            "word_tokens",
            "abs",
        ] {
            assert!(is_builtin(name), "{name}");
            assert_ne!(return_type(name), DataType::Null, "{name}");
        }
        assert!(
            !is_builtin("text_similarity_join"),
            "FUDJ names are not scalar built-ins"
        );
    }
}
