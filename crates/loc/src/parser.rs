//! Recursive-descent parser for LOC formulas.

use crate::ast::{AnnotKey, BinOp, BoolExpr, CmpOp, DistRel, Expr, Formula};
use crate::error::ParseError;
use crate::lexer::{tokenize, DistTok, Token, TokenKind};

/// Parses a formula from its text syntax.
///
/// The grammar (see the crate docs for examples):
///
/// ```text
/// formula  := boolexpr | expr distop '(' num ',' num ',' num ')'
/// distop   := 'dist==' | 'dist<=' | 'dist>='
/// boolexpr := andexpr ('||' andexpr)*
/// andexpr  := unary  ('&&' unary)*
/// unary    := '!' unary | atom
/// atom     := expr cmpop expr | '(' boolexpr ')'
/// expr     := term (('+'|'-') term)*
/// term     := factor (('*'|'/') factor)*
/// factor   := NUMBER | '-' factor | '(' expr ')' | annot '(' event '[' index ']' ')'
/// index    := 'i' (('+'|'-') NUMBER)?
/// ```
///
/// Every later pass (evaluation, codegen, display, drop) recurses over
/// the tree, so nesting is capped at [`MAX_DEPTH`] levels. Each
/// parenthesis pair, unary `-` or `!`, and binary, comparison or boolean
/// operator adds a level to everything beneath it. A flat chain such as
/// `1+1+1` is left-deep: each operator is one level.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte position and message on any lexical
/// or syntactic problem, or on a formula nested deeper than [`MAX_DEPTH`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), loc::ParseError> {
/// let f = loc::parse("cycle(deq[i]) - cycle(enq[i]) <= 50")?;
/// assert!(matches!(f, loc::Formula::Assert(_)));
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        level: 0,
    };
    let formula = p.formula()?;
    p.expect_eof()?;
    Ok(formula)
}

/// The deepest nesting [`parse`] accepts, in levels (see [`parse`]).
/// Small enough that every recursive pass over a formula fits the
/// 2 MiB stack of a pool worker thread.
pub const MAX_DEPTH: usize = 256;

/// A parsed node and its depth: the levels nested inside it.
type Parsed<T> = Result<(T, usize), ParseError>;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels known to sit above the rule being parsed. Together with
    /// the depth a rule returns, this bounds both the recursion and the
    /// tree: no rule recurses or builds past [`MAX_DEPTH`].
    level: usize,
}

impl Parser {
    /// Fails when a node of `depth` at the current level would nest
    /// deeper than [`MAX_DEPTH`].
    fn check_depth(&self, depth: usize, pos: usize) -> Result<(), ParseError> {
        if self.level + depth > MAX_DEPTH {
            Err(ParseError::new(
                pos,
                format!("formula nested deeper than {MAX_DEPTH} levels"),
            ))
        } else {
            Ok(())
        }
    }

    /// Parses `rule` one level down (the operand of an operator, or a
    /// parenthesised group) and returns its depth counting that level.
    fn nested<T>(&mut self, rule: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.check_depth(1, self.peek_pos())?;
        self.level += 1;
        let parsed = rule(self);
        self.level -= 1;
        let (node, depth) = parsed?;
        Ok((node, depth + 1))
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                self.peek_pos(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.peek_pos(),
                format!("unexpected trailing input: {:?}", self.peek()),
            ))
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let neg = self.eat(&TokenKind::Minus);
        match self.bump() {
            TokenKind::Number(n) => Ok(if neg { -n } else { n }),
            other => Err(ParseError::new(
                self.peek_pos(),
                format!("expected number, found {other:?}"),
            )),
        }
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        // Try a distribution formula first: expr distop (min, max, step).
        let save = self.pos;
        if let Ok((expr, _)) = self.expr() {
            if let TokenKind::Dist(d) = self.peek().clone() {
                self.bump();
                self.expect(TokenKind::LParen, "'('")?;
                let min = self.number()?;
                self.expect(TokenKind::Comma, "','")?;
                let max = self.number()?;
                self.expect(TokenKind::Comma, "','")?;
                let step = self.number()?;
                self.expect(TokenKind::RParen, "')'")?;
                let rel = match d {
                    DistTok::Eq => DistRel::Eq,
                    DistTok::Le => DistRel::Le,
                    DistTok::Ge => DistRel::Ge,
                };
                return Ok(Formula::Dist {
                    expr,
                    rel,
                    min,
                    max,
                    step,
                });
            }
        }
        self.pos = save;
        let (b, _) = self.bool_expr()?;
        Ok(Formula::Assert(b))
    }

    fn bool_expr(&mut self) -> Parsed<BoolExpr> {
        let (mut lhs, mut depth) = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let (rhs, rhs_depth) = self.nested(Self::and_expr)?;
            depth = (depth + 1).max(rhs_depth);
            self.check_depth(depth, self.peek_pos())?;
            lhs = BoolExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn and_expr(&mut self) -> Parsed<BoolExpr> {
        let (mut lhs, mut depth) = self.bool_unary()?;
        while self.eat(&TokenKind::AndAnd) {
            let (rhs, rhs_depth) = self.nested(Self::bool_unary)?;
            depth = (depth + 1).max(rhs_depth);
            self.check_depth(depth, self.peek_pos())?;
            lhs = BoolExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn bool_unary(&mut self) -> Parsed<BoolExpr> {
        if self.eat(&TokenKind::Bang) {
            let (inner, depth) = self.nested(Self::bool_unary)?;
            return Ok((BoolExpr::Not(Box::new(inner)), depth));
        }
        self.bool_atom()
    }

    fn bool_atom(&mut self) -> Parsed<BoolExpr> {
        // Try `expr cmpop expr` with backtracking; on failure and a leading
        // '(' try a parenthesized boolean expression.
        let save = self.pos;
        match self.cmp() {
            Ok(c) => Ok(c),
            Err(first_err) => {
                self.pos = save;
                if self.eat(&TokenKind::LParen) {
                    self.nested(|p| {
                        let inner = p.bool_expr()?;
                        p.expect(TokenKind::RParen, "')'")?;
                        Ok(inner)
                    })
                } else {
                    Err(first_err)
                }
            }
        }
    }

    fn cmp(&mut self) -> Parsed<BoolExpr> {
        let (lhs, lhs_depth) = self.nested(Self::expr)?;
        let op = match self.peek() {
            TokenKind::Le => CmpOp::Le,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            other => {
                return Err(ParseError::new(
                    self.peek_pos(),
                    format!("expected comparison operator, found {other:?}"),
                ))
            }
        };
        self.bump();
        let (rhs, rhs_depth) = self.nested(Self::expr)?;
        Ok((BoolExpr::Cmp { op, lhs, rhs }, lhs_depth.max(rhs_depth)))
    }

    fn expr(&mut self) -> Parsed<Expr> {
        let (mut lhs, mut depth) = self.term()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.nested(Self::term)?;
            depth = (depth + 1).max(rhs_depth);
            self.check_depth(depth, self.peek_pos())?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, depth))
    }

    fn term(&mut self) -> Parsed<Expr> {
        let (mut lhs, mut depth) = self.factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.nested(Self::factor)?;
            depth = (depth + 1).max(rhs_depth);
            self.check_depth(depth, self.peek_pos())?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, depth))
    }

    fn factor(&mut self) -> Parsed<Expr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok((Expr::Const(n), 0))
            }
            TokenKind::Minus => {
                self.bump();
                let (inner, depth) = self.nested(Self::factor)?;
                Ok((Expr::Neg(Box::new(inner)), depth))
            }
            TokenKind::LParen => {
                self.bump();
                self.nested(|p| {
                    let inner = p.expr()?;
                    p.expect(TokenKind::RParen, "')'")?;
                    Ok(inner)
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok((self.annot_access(&name)?, 0))
            }
            other => Err(ParseError::new(
                self.peek_pos(),
                format!("expected expression, found {other:?}"),
            )),
        }
    }

    /// Parses the `(event[i±k])` part of `annot(event[i±k])`.
    fn annot_access(&mut self, annot_name: &str) -> Result<Expr, ParseError> {
        self.expect(TokenKind::LParen, "'(' after annotation name")?;
        let event = match self.bump() {
            TokenKind::Ident(e) => e,
            other => {
                return Err(ParseError::new(
                    self.peek_pos(),
                    format!("expected event name, found {other:?}"),
                ))
            }
        };
        self.expect(TokenKind::LBracket, "'['")?;
        match self.bump() {
            TokenKind::Ident(ref v) if v == "i" => {}
            other => {
                return Err(ParseError::new(
                    self.peek_pos(),
                    format!("expected index variable 'i', found {other:?}"),
                ))
            }
        }
        let mut offset: i64 = 0;
        if self.eat(&TokenKind::Plus) {
            offset = self.int_literal()?;
        } else if self.eat(&TokenKind::Minus) {
            offset = -self.int_literal()?;
        }
        self.expect(TokenKind::RBracket, "']'")?;
        self.expect(TokenKind::RParen, "')'")?;
        Ok(Expr::Annot {
            key: AnnotKey::from_name(annot_name),
            event,
            offset,
        })
    }

    fn int_literal(&mut self) -> Result<i64, ParseError> {
        let pos = self.peek_pos();
        match self.bump() {
            TokenKind::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => Ok(n as i64),
            other => Err(ParseError::new(
                pos,
                format!("expected integer index offset, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_latency_assertion() {
        let f = parse("cycle(deq[i]) - cycle(enq[i]) <= 50").unwrap();
        match f {
            Formula::Assert(BoolExpr::Cmp { op, .. }) => assert_eq!(op, CmpOp::Le),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_paper_formula_1() {
        let f = parse("time(forward[i+100]) - time(forward[i]) dist== (40, 80, 5)").unwrap();
        match f {
            Formula::Dist {
                rel,
                min,
                max,
                step,
                ..
            } => {
                assert_eq!(rel, DistRel::Eq);
                assert_eq!((min, max, step), (40.0, 80.0, 5.0));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_paper_formula_2() {
        let src = "(energy(forward[i+100]) - energy(forward[i])) / \
                   (time(forward[i+100]) - time(forward[i])) dist== (0.5, 2.25, 0.01)";
        let f = parse(src).unwrap();
        match &f {
            Formula::Dist { expr, .. } => {
                // Top level must be a division.
                assert!(matches!(expr, Expr::Binary { op: BinOp::Div, .. }));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert_eq!(f.events(), vec!["forward".to_owned()]);
    }

    #[test]
    fn parses_paper_formula_3() {
        let src = "((total_bit(forward[i+100]) - total_bit(forward[i])) / 1e6) / \
                   (time(forward[i+100]) - time(forward[i])) dist== (100, 3300, 10)";
        let f = parse(src).unwrap();
        assert!(matches!(f, Formula::Dist { .. }));
    }

    #[test]
    fn parses_negative_offsets_and_constants() {
        let f = parse("time(fifo[i-1]) + -2.5 >= 0").unwrap();
        let mut offsets = Vec::new();
        f.visit_annots(&mut |_, _, off| offsets.push(off));
        assert_eq!(offsets, vec![-1]);
    }

    #[test]
    fn parses_boolean_connectives() {
        let f = parse("(time(a[i]) <= 5 && time(b[i]) >= 1) || !(cycle(a[i]) == 0)").unwrap();
        match f {
            Formula::Assert(BoolExpr::Or(lhs, rhs)) => {
                assert!(matches!(*lhs, BoolExpr::And(..)));
                assert!(matches!(*rhs, BoolExpr::Not(..)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let f = parse("time(a[i]) + 2 * 3 == 0").unwrap();
        match f {
            Formula::Assert(BoolExpr::Cmp { lhs, .. }) => {
                // Must parse as a + (2*3).
                match lhs {
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    other => panic!("unexpected lhs: {other:?}"),
                }
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn negative_period_bounds_allowed() {
        let f = parse("time(a[i]) dist== (-5, 5, 1)").unwrap();
        match f {
            Formula::Dist { min, max, .. } => assert_eq!((min, max), (-5.0, 5.0)),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("time(forward[j])").is_err());
        assert!(parse("time(forward[i]").is_err());
        assert!(parse("time(forward[i]) dist== (1, 2)").is_err());
        assert!(parse("time(forward[i]) <= ").is_err());
        assert!(parse("time(forward[i+1.5]) <= 3").is_err());
        assert!(parse("1 + 2").is_err()); // no comparison, not a formula
        assert!(parse("time(forward[i]) <= 3 extra").is_err());
    }

    #[test]
    fn display_round_trips_through_parser() {
        let srcs = [
            "cycle(deq[i]) - cycle(enq[i]) <= 50",
            "(energy(forward[i+100]) - energy(forward[i])) / (time(forward[i+100]) - time(forward[i])) dist== (0.5, 2.25, 0.01)",
            "time(a[i-3]) * 2 >= time(b[i]) || time(a[i]) < 0",
        ];
        for src in srcs {
            let f1 = parse(src).unwrap();
            let f2 = parse(&f1.to_string()).unwrap();
            assert_eq!(f1, f2, "round-trip failed for {src}");
        }
    }

    /// The four shapes that nest without bound, each `levels` deep
    /// counting the comparison: parentheses, unary minus, `!`, and a
    /// flat left-deep chain.
    fn deep_formulas(levels: usize) -> [String; 4] {
        let k = levels - 1;
        let atom = "time(forward[i])";
        [
            format!("{}{atom}{} <= 1e9", "(".repeat(k), ")".repeat(k)),
            format!("{}{atom} <= 1e9", "-".repeat(k)),
            format!("{}{atom} <= 1e9", "!".repeat(k)),
            format!("{}{atom} <= 1e9", "1+".repeat(k)),
        ]
    }

    /// Runs `f` on a thread with the 2 MiB stack of a pool worker.
    fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        on_worker_stack(|| {
            let mut trace = crate::Trace::new();
            for k in 0..4u64 {
                let a = crate::Annotations {
                    time: k as f64,
                    ..Default::default()
                };
                trace.push(crate::TraceRecord::new("forward", a));
            }
            for src in deep_formulas(MAX_DEPTH) {
                let f = parse(&src).unwrap_or_else(|e| panic!("{e}: {}", &src[..40]));
                let report = crate::Checker::from_formula(&f).unwrap().check(&trace);
                assert_eq!(report.instances, 4);
                crate::codegen::generate(&f).unwrap();
                assert!(!f.to_string().is_empty());
            }
            for src in deep_formulas(MAX_DEPTH + 1) {
                let err = parse(&src).unwrap_err();
                assert!(err.message.contains("nested deeper than 256"), "{err}");
            }
        });
    }

    #[test]
    fn far_too_deep_formulas_are_rejected_without_overflow() {
        on_worker_stack(|| {
            for src in deep_formulas(60_000) {
                let err = parse(&src).unwrap_err();
                assert!(err.message.contains("nested deeper"), "{err}");
            }
            // A dist formula takes the same cap.
            let src = format!("{}time(forward[i]) dist== (0, 1, 1)", "1+".repeat(60_000));
            assert!(parse(&src).is_err());
        });
    }

    #[test]
    fn wide_formulas_are_not_deep() {
        // Operands nested side by side share one level budget: a chain
        // of 200 parenthesised sums is about 200 levels, not 400.
        let src = format!("{}time(a[i]) <= 1", "(1+2)*".repeat(200));
        parse(&src).unwrap();
    }
}
