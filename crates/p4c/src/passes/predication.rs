//! `Predication`: converts `if` statements inside action bodies into
//! straight-line predicated assignments, the standard preparation for
//! hardware targets whose actions cannot branch (the Tofino pipeline).
//!
//! `if (c) x = e;` becomes `x = c ? e : x;`.  The paper notes a recent
//! improvement to this very pass caused at least four new bugs (§7.2,
//! "Consequences of compiler changes"); the faulty variants in
//! `crate::buggy` model two of them (swapped branches and ignoring nested
//! conditions).

use crate::error::Diagnostic;
use crate::pass::{Pass, PassArea};
use crate::passes::util::lvalue_parts;
use p4_ir::visit::{walk_expr, Visitor};
use p4_ir::{Block, Declaration, Expr, Program, Statement};

/// The predication pass.
#[derive(Debug, Default)]
pub struct Predication;

impl Pass for Predication {
    fn name(&self) -> &str {
        "Predication"
    }

    fn area(&self) -> PassArea {
        PassArea::MidEnd
    }

    fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
        for decl in &mut program.declarations {
            match decl {
                Declaration::Control(control) => {
                    for local in &mut control.locals {
                        if let Declaration::Action(action) = local {
                            predicate_block(&mut action.body);
                        }
                    }
                }
                Declaration::Action(action) => predicate_block(&mut action.body),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Rewrites every `if` whose branches consist solely of assignments into
/// predicated assignments.  `if` statements containing anything else (calls,
/// exits, declarations), or assigning to something the condition reads, are
/// left untouched.
fn predicate_block(block: &mut Block) {
    let mut rewritten = Vec::with_capacity(block.statements.len());
    for stmt in block.statements.drain(..) {
        predicate_statement(stmt, &mut rewritten);
    }
    block.statements = rewritten;
}

fn predicate_statement(stmt: Statement, out: &mut Vec<Statement>) {
    match stmt {
        Statement::If {
            cond,
            then_branch,
            else_branch,
        } => {
            // Every predicated assignment re-evaluates `cond`, so a branch
            // that writes what `cond` reads would change later predicates.
            let independent = |assigns: Vec<(Expr, Expr)>| {
                let writes_cond = assigns.iter().any(|(lhs, _)| writes_read_chain(lhs, &cond));
                (!writes_cond).then_some(assigns)
            };
            let then_assigns = extract_assignments(&then_branch).and_then(independent);
            let else_assigns = else_branch
                .as_deref()
                .map(|e| extract_assignments(e).and_then(independent));
            match (then_assigns, else_assigns) {
                (Some(thens), None) if else_branch.is_none() => {
                    crate::coverage::record("Predication", "predicate_then");
                    for (lhs, rhs) in thens {
                        out.push(predicated(cond.clone(), lhs, rhs, true));
                    }
                }
                (Some(thens), Some(Some(elses))) => {
                    crate::coverage::record("Predication", "predicate_if_else");
                    for (lhs, rhs) in thens {
                        out.push(predicated(cond.clone(), lhs, rhs, true));
                    }
                    for (lhs, rhs) in elses {
                        out.push(predicated(cond.clone(), lhs, rhs, false));
                    }
                }
                _ => {
                    // Not a pure-assignment conditional; recurse into the
                    // branches instead.
                    let mut then_stmts = Vec::new();
                    predicate_statement(*then_branch, &mut then_stmts);
                    let else_branch = else_branch.map(|e| {
                        let mut else_stmts = Vec::new();
                        predicate_statement(*e, &mut else_stmts);
                        Box::new(Statement::Block(Block::new(else_stmts)))
                    });
                    out.push(Statement::If {
                        cond,
                        then_branch: Box::new(Statement::Block(Block::new(then_stmts))),
                        else_branch,
                    });
                }
            }
        }
        Statement::Block(mut inner) => {
            predicate_block(&mut inner);
            out.push(Statement::Block(inner));
        }
        other => out.push(other),
    }
}

/// `x = cond ? e : x` (or with the branches swapped for the else side).
fn predicated(cond: Expr, lhs: Expr, rhs: Expr, on_true: bool) -> Statement {
    let keep = lhs.clone();
    let (then_expr, else_expr) = if on_true { (rhs, keep) } else { (keep, rhs) };
    Statement::Assign {
        lhs,
        rhs: Expr::ternary(cond, then_expr, else_expr),
    }
}

/// Whether assigning to `lhs` may change the value of `cond`: the l-value's
/// member chain (a slice's base chain) is a prefix of, or has as a prefix, a
/// member chain `cond` reads.  An l-value with no chain overlaps everything.
fn writes_read_chain(lhs: &Expr, cond: &Expr) -> bool {
    let target = match lhs {
        Expr::Slice { base, .. } => base,
        other => other,
    };
    let Some(written) = lvalue_parts(target) else {
        return true;
    };
    let mut reads = ChainReads::default();
    reads.visit_expr(cond);
    reads.chains.iter().any(|read| {
        let common = read.len().min(written.len());
        read[..common] == written[..common]
    })
}

/// The maximal member chains an expression reads, including call receivers
/// (`hdr.h` in `hdr.h.isValid()`).
#[derive(Default)]
struct ChainReads {
    chains: Vec<Vec<String>>,
}

impl Visitor for ChainReads {
    fn visit_expr(&mut self, expr: &Expr) {
        if let Some(chain) = lvalue_parts(expr) {
            self.chains.push(chain);
            return;
        }
        if let Expr::Call(call) = expr {
            if let Some((_, receiver)) = call.target.split_last() {
                if !receiver.is_empty() {
                    self.chains.push(receiver.to_vec());
                }
            }
        }
        walk_expr(self, expr);
    }
}

/// Returns the list of `(lhs, rhs)` pairs if the statement consists solely
/// of assignments (possibly wrapped in blocks).
fn extract_assignments(stmt: &Statement) -> Option<Vec<(Expr, Expr)>> {
    match stmt {
        Statement::Assign { lhs, rhs } => Some(vec![(lhs.clone(), rhs.clone())]),
        Statement::Block(block) => {
            let mut assigns = Vec::new();
            for inner in &block.statements {
                assigns.extend(extract_assignments(inner)?);
            }
            Some(assigns)
        }
        Statement::Empty => Some(Vec::new()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use p4_ir::{print_program, ActionDecl, BinOp};

    fn action_with_body(statements: Vec<Statement>) -> Vec<Declaration> {
        vec![Declaration::Action(ActionDecl {
            name: "act".into(),
            params: vec![],
            body: Block::new(statements),
        })]
    }

    #[test]
    fn predicates_simple_if_assignments() {
        let locals = action_with_body(vec![Statement::if_then(
            Expr::binary(
                BinOp::Eq,
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::uint(0, 8),
            ),
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "b"]),
                Expr::uint(1, 8),
            )])),
        )]);
        let mut program = builder::v1model_program(locals, Block::empty());
        Predication.run(&mut program).unwrap();
        let text = print_program(&program);
        assert!(text.contains("hdr.h.b = ((hdr.h.a == 8w0) ? 8w1 : hdr.h.b);"));
        assert!(!text.contains("if ("));
    }

    #[test]
    fn predicates_if_else_pairs() {
        let locals = action_with_body(vec![Statement::if_else(
            Expr::binary(
                BinOp::Lt,
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::uint(4, 8),
            ),
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "b"]),
                Expr::uint(1, 8),
            )])),
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "b"]),
                Expr::uint(2, 8),
            )])),
        )]);
        let mut program = builder::v1model_program(locals, Block::empty());
        Predication.run(&mut program).unwrap();
        let text = print_program(&program);
        assert!(text.contains("? 8w1 : hdr.h.b"));
        assert!(text.contains("? hdr.h.b : 8w2"));
    }

    /// `if (sm.egress_spec == 320) { sm.egress_spec = 347; } else { hdr.h.a = 1; }`
    /// must not become two predicated assignments: the first would change
    /// `sm.egress_spec`, so the else-side predicate would read the new value.
    #[test]
    fn leaves_ifs_whose_branches_write_the_condition_untouched() {
        let cond = Expr::binary(
            BinOp::Eq,
            Expr::dotted(&["sm", "egress_spec"]),
            Expr::uint(320, 9),
        );
        let writes_cond = Statement::if_else(
            cond.clone(),
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::dotted(&["sm", "egress_spec"]),
                Expr::uint(347, 9),
            )])),
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::uint(1, 8),
            )])),
        );
        // A write to a prefix of a read chain (the whole struct) overlaps too.
        let writes_prefix = Statement::if_then(
            cond,
            Statement::Block(Block::new(vec![Statement::assign(
                Expr::path("sm"),
                Expr::path("sm_copy"),
            )])),
        );
        let locals = action_with_body(vec![writes_cond, writes_prefix]);
        let mut program = builder::v1model_program(locals, Block::empty());
        Predication.run(&mut program).unwrap();
        let text = print_program(&program);
        assert_eq!(text.matches("if ((sm.egress_spec == 9w320)) {").count(), 2);
        assert!(!text.contains('?'), "nothing may be predicated:\n{text}");
    }

    #[test]
    fn leaves_branches_with_calls_untouched() {
        let locals = action_with_body(vec![Statement::if_then(
            Expr::binary(
                BinOp::Eq,
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::uint(0, 8),
            ),
            Statement::Block(Block::new(vec![Statement::call(
                vec!["hdr", "h", "setInvalid"],
                vec![],
            )])),
        )]);
        let mut program = builder::v1model_program(locals, Block::empty());
        Predication.run(&mut program).unwrap();
        let text = print_program(&program);
        assert!(text.contains("if ((hdr.h.a == 8w0)) {"));
        assert!(text.contains("hdr.h.setInvalid();"));
    }

    #[test]
    fn does_not_touch_apply_blocks() {
        let mut program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::if_then(
                Expr::binary(
                    BinOp::Eq,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(0, 8),
                ),
                Statement::Block(Block::new(vec![Statement::assign(
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::uint(1, 8),
                )])),
            )]),
        );
        Predication.run(&mut program).unwrap();
        let text = print_program(&program);
        assert!(text.contains("if ((hdr.h.a == 8w0)) {"));
    }
}
