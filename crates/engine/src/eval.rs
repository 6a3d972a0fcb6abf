//! Query evaluation: enumerate the valid assignments `A(Q, D)`.
//!
//! The engine runs a backtracking *generic join*: atoms are ordered greedily
//! by **estimated cardinality** — the exact posting-list length when a term's
//! value is known at plan time (constants and seed bindings), `len/distinct`
//! for variables bound by earlier plan steps, ties broken by bound-term
//! count then atom index. Candidate tuples come straight from the pre-sorted
//! posting lists of [`qoco_data::Relation`] (zero-copy `&[TupleId]` slices) —
//! probing the *shortest* posting among the bound columns — and inequalities
//! are checked as soon as both sides are ground. When the root atom is an
//! unavoidable full scan, a semi-join pre-filter drops candidates whose
//! join-variable values have empty postings in a partner atom before any
//! descent happens. Enumeration is exhaustive because the deletion algorithm
//! needs *every* witness of a wrong answer, not just one.
//!
//! All three choices (atom order, probe column, pre-filter) are pure
//! functions of the database contents, and postings share one global tuple
//! order — so the assignment stream is deterministic and bit-identical to
//! the pre-optimization engine.
//!
//! ## The join kernel
//!
//! Each evaluation is compiled once into a [`Kernel`]: every variable of the
//! seed and the body gets a *slot*, and every plan step records, per column,
//! whether the tuple value must equal a constant, must equal a slot bound by
//! the seed or an earlier step, binds a fresh slot, or repeats a slot bound
//! earlier in the same atom — plus the inequalities that first become
//! decidable after the step (seed-only ones at step 0). The search then
//! backtracks over a vector of slot values borrowed from the relation
//! arenas: a step writes its binds, descends and clears them, with no map
//! clone, no `Arc` increment and no per-candidate scan of every inequality.
//! Each bound column's posting is looked up once, and a row becomes an owned
//! [`Assignment`] (or, for a view refresh, an answer tuple) only when it is
//! emitted. [`explain`] renders the same compiled steps, so the printed
//! plan is the plan that runs.
//!
//! ## Evaluation runs on the calling thread
//!
//! The whole read path takes `&Database`: indexes build lazily behind
//! `OnceLock` cells inside each relation, so evaluation never needs a
//! mutable borrow. Every search runs on the thread that asked for it: the
//! join work between two crowd questions is small (the soccer instance has
//! 4,475 rows), so a thread fan-out costs more in spawns than it saves
//! (DESIGN.md §8). [`EvalOptions::max_assignments`] keeps the first
//! `max_assignments` assignments in discovery order.

use std::cmp::Reverse;
use std::fmt::Write as _;

use qoco_data::{Database, Relation, Tuple, TupleId, Value};
use qoco_query::{ConjunctiveQuery, Inequality, Term, UnionQuery, Var};

use crate::assignment::Assignment;

/// Below this many root candidates the semi-join pre-filter cannot pay for
/// its per-candidate hash lookups; descend directly.
const SEMIJOIN_MIN_CANDIDATES: usize = 64;

/// Candidates inspected by the pre-filter's deterministic prefix sample;
/// if fewer than 1/8 of them are prunable the filter is abandoned.
const SEMIJOIN_SAMPLE: usize = 128;

/// Options controlling evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Stop after this many valid assignments (safety valve for pathological
    /// joins; `usize::MAX` = unlimited).
    pub max_assignments: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_assignments: usize::MAX,
        }
    }
}

/// The result of evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalResult {
    /// All valid assignments, in deterministic order.
    pub assignments: Vec<Assignment>,
    /// True if enumeration stopped at `max_assignments`.
    pub truncated: bool,
}

impl EvalResult {
    /// The distinct answers `Q(D) = ∪ α(head(Q))`, sorted.
    pub fn answers(&self, q: &ConjunctiveQuery) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self
            .assignments
            .iter()
            .map(|a| a.ground_head(q).expect("valid assignments are total"))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// How one column of a plan step's atom matches a candidate tuple.
#[derive(Debug, Clone, Copy)]
enum Col<'a> {
    /// A query constant, with its posting list (fixed for the evaluation).
    Const(&'a Value, &'a [TupleId]),
    /// A variable bound by the seed or an earlier step: must equal its slot.
    Check(usize),
    /// The first occurrence of a fresh variable: writes its slot.
    Bind(usize),
    /// A fresh variable repeated inside this atom: must equal the value its
    /// `Bind` column wrote.
    Same(usize),
}

/// A value read by an inequality or the head: a slot or a constant.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    Slot(usize),
    Const(&'a Value),
}

impl<'a> Operand<'a> {
    #[inline]
    fn get(self, slots: &[Option<&'a Value>]) -> Option<&'a Value> {
        match self {
            Operand::Slot(s) => slots[s],
            Operand::Const(c) => Some(c),
        }
    }
}

/// One compiled plan step: the atom `q.atoms()[atom]` over `rel`.
struct Step<'a> {
    atom: usize,
    rel: &'a Relation,
    cols: Vec<Col<'a>>,
    /// `(lhs slot, rhs)` of every inequality that first becomes decidable
    /// once this step's binds are in place.
    ineqs: Vec<(usize, Operand<'a>)>,
}

/// One evaluation of `q` over `db` from a seed, compiled to slot operations.
struct Kernel<'a> {
    q: &'a ConjunctiveQuery,
    db: &'a Database,
    /// The variable behind each slot, in `Var` order, so an emitted row
    /// builds its [`Assignment`] from already-sorted pairs.
    vars: Vec<&'a Var>,
    /// Slot values on entry: the seed's bindings, `None` everywhere else.
    seed: Vec<Option<&'a Value>>,
    steps: Vec<Step<'a>>,
}

impl<'a> Kernel<'a> {
    /// Plan and compile one evaluation. Atoms are taken greedily by
    /// estimated candidate cardinality: at each step the atom whose
    /// candidate list is expected to be smallest. The estimate uses the
    /// posting lists the relations already materialize — the *exact*
    /// posting length when a term's value is known at plan time (constants
    /// and seed bindings, read via `posting_len` so planning issues no
    /// counted probes), and `len/distinct` for variables bound by an
    /// earlier step (value unknown until execution). Ties break by more
    /// bound terms, then atom index, so the order is deterministic.
    /// Planning touches the index of every column a step will probe, so
    /// the search itself never builds one.
    fn compile(q: &'a ConjunctiveQuery, db: &'a Database, seed: &'a Assignment) -> Self {
        let mut vars: Vec<&Var> = seed.iter().map(|(v, _)| v).collect();
        for atom in q.atoms() {
            vars.extend(atom.terms.iter().filter_map(|t| match t {
                Term::Var(v) => Some(v),
                Term::Const(_) => None,
            }));
        }
        vars.sort_unstable();
        vars.dedup();
        let slot_of = |v: &Var| {
            vars.binary_search(&v)
                .expect("every seed and body variable has a slot")
        };
        let mut init = vec![None; vars.len()];
        for (v, value) in seed.iter() {
            init[slot_of(v)] = Some(value);
        }
        let estimate = |i: usize, bound: &[bool]| {
            let a = &q.atoms()[i];
            let rel = db.relation(a.rel);
            let mut estimate = rel.len();
            let mut n_bound = 0usize;
            for (col, term) in a.terms.iter().enumerate() {
                let known = match term {
                    Term::Const(c) => Some(rel.posting_len(col, c)),
                    Term::Var(v) => {
                        let s = slot_of(v);
                        match init[s] {
                            Some(value) => Some(rel.posting_len(col, value)),
                            None if bound[s] => {
                                let distinct = rel.distinct_in_column(col).max(1);
                                Some(rel.len().div_ceil(distinct))
                            }
                            None => None,
                        }
                    }
                };
                if let Some(len) = known {
                    n_bound += 1;
                    estimate = estimate.min(len);
                }
            }
            // minimize (estimate, -bound, i)
            (estimate, Reverse(n_bound), i)
        };
        let mut bound: Vec<bool> = init.iter().map(Option::is_some).collect();
        let mut remaining: Vec<usize> = (0..q.atoms().len()).collect();
        let mut pending: Vec<&Inequality> = q.inequalities().iter().collect();
        let mut steps = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let next = (0..remaining.len())
                .min_by_key(|&k| estimate(remaining[k], &bound))
                .expect("remaining is non-empty");
            let atom = remaining.remove(next);
            let a = &q.atoms()[atom];
            let rel = db.relation(a.rel);
            let mut cols: Vec<Col<'a>> = Vec::with_capacity(a.terms.len());
            for (col, term) in a.terms.iter().enumerate() {
                let c = match term {
                    Term::Const(c) => Col::Const(c, rel.posting(col, c)),
                    Term::Var(v) => {
                        let s = slot_of(v);
                        if bound[s] {
                            Col::Check(s)
                        } else if cols.iter().any(|c| matches!(c, Col::Bind(t) if *t == s)) {
                            Col::Same(s)
                        } else {
                            Col::Bind(s)
                        }
                    }
                };
                cols.push(c);
            }
            for c in &cols {
                if let Col::Bind(s) = *c {
                    bound[s] = true;
                }
            }
            let mut ineqs = Vec::new();
            pending.retain(|e| {
                let lhs = slot_of(&e.lhs);
                let rhs = match &e.rhs {
                    Term::Var(v) => Operand::Slot(slot_of(v)),
                    Term::Const(c) => Operand::Const(c),
                };
                let decidable = bound[lhs] && !matches!(rhs, Operand::Slot(r) if !bound[r]);
                if decidable {
                    ineqs.push((lhs, rhs));
                }
                !decidable
            });
            steps.push(Step {
                atom,
                rel,
                cols,
                ineqs,
            });
        }
        // query validation keeps every inequality variable in the body
        debug_assert!(pending.is_empty(), "undecidable inequalities");
        Kernel {
            q,
            db,
            vars,
            seed: init,
            steps,
        }
    }

    /// The slot of a body variable, or the constant, behind a term.
    fn operand(&self, t: &'a Term) -> Operand<'a> {
        match t {
            Term::Var(v) => Operand::Slot(
                self.vars
                    .binary_search(&v)
                    .expect("head variables occur in the body"),
            ),
            Term::Const(c) => Operand::Const(c),
        }
    }

    /// The candidate list for step `depth` under `slots`: the **shortest**
    /// posting among the bound columns, each looked up once (the first
    /// column wins ties), else the full (sorted) live-id list. Every
    /// posting shares the relation's global tuple order, so the surviving
    /// candidates come out in the same order whichever column is probed.
    /// The `bool` reports whether an index probe was issued (false on the
    /// full-scan fallback).
    fn candidates(&self, depth: usize, slots: &[Option<&'a Value>]) -> (&'a [TupleId], bool) {
        let step = &self.steps[depth];
        let mut best: Option<&'a [TupleId]> = None;
        for (col, c) in step.cols.iter().enumerate() {
            let posting = match *c {
                Col::Const(_, posting) => posting,
                Col::Check(s) => step
                    .rel
                    .posting(col, slots[s].expect("checked slots are bound")),
                Col::Bind(_) | Col::Same(_) => continue,
            };
            if best.is_none_or(|b| posting.len() < b.len()) {
                best = Some(posting);
                if posting.is_empty() {
                    break; // nothing later can be strictly shorter
                }
            }
        }
        match best {
            Some(posting) => (posting, true),
            None => (step.rel.sorted_ids(), false),
        }
    }

    /// An emitted row as an owned [`Assignment`].
    fn assignment(&self, row: &[&'a Value]) -> Assignment {
        Assignment::from_pairs(
            self.vars
                .iter()
                .zip(row)
                .map(|(v, value)| ((*v).clone(), (*value).clone())),
        )
    }
}

/// Emitted rows, one value per slot, flattened into one buffer: a row
/// costs no allocation of its own and sorts as a plain value slice.
struct Rows<'a> {
    width: usize,
    len: usize,
    values: Vec<&'a Value>,
}

impl<'a> Rows<'a> {
    fn new(width: usize) -> Self {
        Rows {
            width,
            len: 0,
            values: Vec::new(),
        }
    }

    fn row(&self, i: usize) -> &[&'a Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[&'a Value]> {
        (0..self.len).map(|i| self.row(i))
    }

    fn push(&mut self, slots: &[Option<&'a Value>]) {
        self.values
            .extend(slots.iter().map(|v| v.expect("emitted rows are total")));
        self.len += 1;
    }
}

/// Work done by one search, published as the `eval.assignments_tried` and
/// `eval.probe_hits` counters and the `probes=` span field.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Candidate tuples examined.
    tried: u64,
    /// Index probes issued (scans excluded).
    probes: u64,
    /// Index probes that returned a non-empty posting.
    hits: u64,
}

impl Tally {
    fn probed(&mut self, candidates: &[TupleId], probed: bool) {
        if probed {
            self.probes += 1;
            self.hits += !candidates.is_empty() as u64;
        }
    }

    fn flush(&self) {
        qoco_telemetry::counter_add("eval.assignments_tried", self.tried);
        if self.hits > 0 {
            qoco_telemetry::counter_add("eval.probe_hits", self.hits);
        }
    }
}

/// One backtracking search over a kernel.
struct Run<'k, 'a> {
    kernel: &'k Kernel<'a>,
    slots: Vec<Option<&'a Value>>,
    out: Rows<'a>,
    early_exit: bool,
    limit: usize,
    truncated: bool,
    tally: Tally,
}

impl<'k, 'a> Run<'k, 'a> {
    fn new(kernel: &'k Kernel<'a>, early_exit: bool, limit: usize) -> Self {
        Run {
            kernel,
            slots: kernel.seed.clone(),
            out: Rows::new(kernel.vars.len()),
            early_exit,
            limit,
            truncated: false,
            tally: Tally::default(),
        }
    }

    fn should_stop(&self) -> bool {
        self.truncated || (self.early_exit && self.out.len > 0)
    }

    fn descend(&mut self, depth: usize) {
        if self.should_stop() {
            return;
        }
        if depth == self.kernel.steps.len() {
            self.emit();
            return;
        }
        let (cands, probed) = self.kernel.candidates(depth, &self.slots);
        self.tally.probed(cands, probed);
        for &tid in cands {
            if self.should_stop() {
                return;
            }
            self.extend(depth, tid);
        }
    }

    /// Try the tuple `tid` at step `depth`, descending on success.
    fn extend(&mut self, depth: usize, tid: TupleId) {
        self.tally.tried += 1;
        let step = &self.kernel.steps[depth];
        let values = step.rel.tuple(tid).values();
        // reject on constants and earlier bindings before writing a slot —
        // on selective probes most candidates die here
        for (col, value) in step.cols.iter().zip(values) {
            let matches = match *col {
                Col::Const(c, _) => c == value,
                Col::Check(s) => self.slots[s] == Some(value),
                Col::Bind(_) | Col::Same(_) => true,
            };
            if !matches {
                return;
            }
        }
        let mut ok = true;
        for (col, value) in step.cols.iter().zip(values) {
            match *col {
                Col::Bind(s) => self.slots[s] = Some(value),
                Col::Same(s) if self.slots[s] != Some(value) => {
                    ok = false;
                    break;
                }
                _ => {}
            }
        }
        ok = ok
            && step
                .ineqs
                .iter()
                .all(|&(lhs, rhs)| self.slots[lhs] != rhs.get(&self.slots));
        if ok {
            self.descend(depth + 1);
        }
        for col in &step.cols {
            if let Col::Bind(s) = *col {
                self.slots[s] = None;
            }
        }
    }

    /// Every step matched and every inequality held: retain the row, or
    /// stop the search once `limit` rows are retained.
    fn emit(&mut self) {
        if self.out.len >= self.limit {
            self.truncated = true;
            return;
        }
        self.out.push(&self.slots);
    }
}

/// Semi-join pre-filter for a full-scan root step: drop candidates whose
/// value for a join variable has an **empty** posting list in a partner
/// atom — no assignment can extend such a candidate, so pruning is sound
/// and the surviving enumeration order is untouched. One partner (the
/// smallest relation mentioning the variable) is checked per variable the
/// root binds, one hash lookup each. A deterministic prefix sample bounds
/// the overhead: when almost nothing in the sample is prunable the filter
/// abandons and the scan proceeds unfiltered. Everything here is a pure
/// function of the database.
fn semijoin_prefilter(kernel: &Kernel<'_>, cands: &[TupleId]) -> Option<Vec<TupleId>> {
    if cands.len() < SEMIJOIN_MIN_CANDIDATES {
        return None;
    }
    let root = &kernel.steps[0];
    // (root column, partner relation, partner column) per join variable
    let mut checks: Vec<(usize, &Relation, usize)> = Vec::new();
    for (col, c) in root.cols.iter().enumerate() {
        // each fresh variable once, at the column that binds it; seed-bound
        // columns would have made the root a probe
        let Col::Bind(s) = *c else { continue };
        let v = kernel.vars[s];
        let mut partner: Option<(usize, &Relation, usize)> = None;
        for (j, atom) in kernel.q.atoms().iter().enumerate() {
            if j == root.atom {
                continue;
            }
            if let Some(pcol) = atom
                .terms
                .iter()
                .position(|t| matches!(t, Term::Var(u) if u == v))
            {
                let prel = kernel.db.relation(atom.rel);
                if partner.is_none_or(|(plen, _, _)| prel.len() < plen) {
                    partner = Some((prel.len(), prel, pcol));
                }
            }
        }
        if let Some((_, prel, pcol)) = partner {
            checks.push((col, prel, pcol));
        }
    }
    if checks.is_empty() {
        return None;
    }
    let keep = |tid: TupleId| {
        let t = root.rel.tuple(tid);
        checks
            .iter()
            .all(|(col, prel, pcol)| prel.posting_len(*pcol, &t.values()[*col]) > 0)
    };
    let sample = &cands[..cands.len().min(SEMIJOIN_SAMPLE)];
    let sample_pruned = sample.iter().filter(|&&tid| !keep(tid)).count();
    if sample_pruned * 8 < sample.len() {
        return None;
    }
    let filtered: Vec<TupleId> = cands.iter().copied().filter(|&tid| keep(tid)).collect();
    qoco_telemetry::counter_add(
        "eval.semijoin_pruned",
        (cands.len() - filtered.len()) as u64,
    );
    Some(filtered)
}

/// Run the kernel exhaustively from its seed (up to `max_assignments`
/// rows). Returns `(rows, truncated, tally)` with rows in discovery order.
fn run_search<'a>(kernel: &Kernel<'a>, max_assignments: usize) -> (Rows<'a>, bool, Tally) {
    let mut run = Run::new(kernel, false, max_assignments);
    let (cands, root_probed) = kernel.candidates(0, &kernel.seed);
    run.tally.probed(cands, root_probed);
    // a probed root is already selective: pre-filter only full scans
    let filtered = if root_probed {
        None
    } else {
        semijoin_prefilter(kernel, cands)
    };
    for &tid in filtered.as_deref().unwrap_or(cands) {
        if run.should_stop() {
            break;
        }
        run.extend(0, tid);
    }
    (run.out, run.truncated, run.tally)
}

/// Enumerate all valid assignments of `q` over `db` extending `seed`
/// (pass [`Assignment::new`] for `A(Q, D)` itself).
pub fn all_assignments(
    q: &ConjunctiveQuery,
    db: &Database,
    seed: &Assignment,
    opts: EvalOptions,
) -> EvalResult {
    let span = qoco_telemetry::span("eval.assignments").field("atoms", q.atoms().len());
    let kernel = Kernel::compile(q, db, seed);
    let (rows, truncated, tally) = run_search(&kernel, opts.max_assignments);
    tally.flush();
    // Every row binds the same variables in slot (= `Var`) order, so rows
    // sort exactly like the assignments they become.
    let mut order: Vec<usize> = (0..rows.len).collect();
    order.sort_by(|&a, &b| rows.row(a).cmp(rows.row(b)));
    order.dedup_by(|a, b| rows.row(*a) == rows.row(*b));
    let assignments: Vec<Assignment> = order
        .into_iter()
        .map(|i| kernel.assignment(rows.row(i)))
        .collect();
    span.field("valid", assignments.len())
        .field("probes", tally.probes)
        .finish();
    EvalResult {
        assignments,
        truncated,
    }
}

/// `α(head(Q))` for every valid assignment `α` of `q` over `db`, uncapped
/// and in discovery order: one tuple per witness, so counting equal tuples
/// gives each answer's witness count without building any [`Assignment`].
pub(crate) fn head_rows(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
    let span = qoco_telemetry::span("eval.assignments").field("atoms", q.atoms().len());
    let seed = Assignment::new();
    let kernel = Kernel::compile(q, db, &seed);
    let (rows, _, tally) = run_search(&kernel, usize::MAX);
    tally.flush();
    let head: Vec<Operand> = q.head().iter().map(|t| kernel.operand(t)).collect();
    let heads: Vec<Tuple> = rows
        .iter()
        .map(|row| {
            Tuple::new(
                head.iter()
                    .map(|o| match *o {
                        Operand::Slot(s) => row[s].clone(),
                        Operand::Const(c) => c.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    span.field("valid", heads.len())
        .field("probes", tally.probes)
        .finish();
    heads
}

/// Evaluate `q` over `db`: all valid assignments, default options.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> EvalResult {
    all_assignments(q, db, &Assignment::new(), EvalOptions::default())
}

/// The answer set `Q(D)`, sorted and deduplicated.
pub fn answer_set(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
    evaluate(q, db).answers(q)
}

/// The union's answer set `U(D)`: the disjuncts' answers, sorted and
/// deduplicated.
pub fn union_answer_set(uq: &UnionQuery, db: &Database) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = uq
        .disjuncts()
        .iter()
        .flat_map(|q| answer_set(q, db))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `A(t, Q, D)`: the valid assignments yielding answer `t`. Empty if `t` is
/// not an answer (including arity mismatches).
pub fn assignments_for_answer(q: &ConjunctiveQuery, db: &Database, t: &Tuple) -> Vec<Assignment> {
    let Some(seed) = Assignment::from_answer(q, t) else {
        return Vec::new();
    };
    all_assignments(q, db, &seed, EvalOptions::default()).assignments
}

/// Is the partial assignment `seed` *satisfiable* w.r.t. `q` and `db`
/// (extends to a valid total assignment, paper Section 2)? Short-circuits
/// on the first witness.
pub fn is_satisfiable(q: &ConjunctiveQuery, db: &Database, seed: &Assignment) -> bool {
    let span = qoco_telemetry::span("eval.satisfiable");
    let kernel = Kernel::compile(q, db, seed);
    let mut run = Run::new(&kernel, true, usize::MAX);
    run.descend(0);
    run.tally.flush();
    let satisfiable = run.out.len > 0;
    span.field("probes", run.tally.probes)
        .field("satisfiable", satisfiable)
        .finish();
    satisfiable
}

/// Render the evaluation plan for `q` over `db` from its compiled steps:
/// the greedy atom order and, per step, whether it scans or which columns
/// it probes on (constants and variables bound by earlier steps). Useful
/// for understanding why the engine probes in a particular order.
pub fn explain(q: &ConjunctiveQuery, db: &Database) -> String {
    let seed = Assignment::new();
    let kernel = Kernel::compile(q, db, &seed);
    let mut out = format!("plan for {} ({} atoms):\n", q.name(), q.atoms().len());
    for (i, step) in kernel.steps.iter().enumerate() {
        let bound: Vec<String> = step
            .cols
            .iter()
            .enumerate()
            .filter_map(|(col, c)| match *c {
                Col::Const(value, _) => Some(format!("col{col}={value}")),
                Col::Check(s) => Some(format!("col{col}=?{}", kernel.vars[s])),
                Col::Bind(_) | Col::Same(_) => None,
            })
            .collect();
        let access = if bound.is_empty() {
            format!("scan ({} tuples)", step.rel.len())
        } else {
            format!("probe [{}]", bound.join(", "))
        };
        let rel_name = db.schema().rel_name(q.atoms()[step.atom].rel);
        let _ = writeln!(out, "  {}. {} — {}", i + 1, rel_name, access);
    }
    let filters: usize = kernel.steps.iter().map(|s| s.ineqs.len()).sum();
    if filters > 0 {
        let _ = writeln!(out, "  filter: {filters} inequalit(ies)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::{tup, Schema};
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// Build the Figure 1 World Cup database (the dirty instance `D`).
    fn world_cup() -> (Arc<Schema>, Database) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        let games = [
            ("13.07.14", "GER", "ARG", "Final", "1:0"),
            ("11.07.10", "ESP", "NED", "Final", "1:0"),
            ("09.07.06", "ITA", "FRA", "Final", "5:3"),
            ("30.06.02", "BRA", "GER", "Final", "2:0"),
            ("12.07.98", "ESP", "NED", "Final", "4:2"),
            ("17.07.94", "ESP", "NED", "Final", "3:1"),
            ("08.07.90", "GER", "ARG", "Final", "1:0"),
            ("11.07.82", "ITA", "GER", "Final", "4:1"),
            ("25.06.78", "ESP", "NED", "Final", "1:0"),
        ];
        for (d, w, r, s, u) in games {
            db.insert_named("Games", tup![d, w, r, s, u]).unwrap();
        }
        // Figure 1 Teams: BRA marked EU and NED marked SA are the planted
        // errors; ITA is missing.
        for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("BRA", "EU"), ("NED", "SA")] {
            db.insert_named("Teams", tup![c, k]).unwrap();
        }
        for (n, t, y, p) in [
            ("Mario Götze", "GER", 1992, "GER"),
            ("Andrea Pirlo", "ITA", 1979, "ITA"),
            ("Francesco Totti", "ITA", 1976, "ITA"),
        ] {
            db.insert_named("Players", tup![n, t, y, p]).unwrap();
        }
        for (n, d) in [
            ("Mario Götze", "13.07.14"),
            ("Andrea Pirlo", "09.06.06"),
            ("Francesco Totti", "09.06.06"),
        ] {
            db.insert_named("Goals", tup![n, d]).unwrap();
        }
        (schema, db)
    }

    fn q1(s: &Arc<Schema>) -> ConjunctiveQuery {
        parse_query(
            s,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap()
    }

    /// 60 root candidates with 3-way fan-in: 1,200 valid assignments, so
    /// every small cap truncates.
    fn wide_db() -> (Arc<Schema>, Database, ConjunctiveQuery) {
        let s = Schema::builder()
            .relation("A", &["a", "g"])
            .relation("B", &["b", "g"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        for i in 0..60i64 {
            db.insert_named("A", tup![i, i % 3]).unwrap();
            db.insert_named("B", tup![i, i % 3]).unwrap();
        }
        let q = parse_query(&s, "(x, y) :- A(x, g), B(y, g)").unwrap();
        (s, db, q)
    }

    #[test]
    fn q1_on_figure_1_returns_ger_and_esp() {
        let (s, db) = world_cup();
        let q = q1(&s);
        let answers = answer_set(&q, &db);
        assert_eq!(answers, vec![tup!["ESP"], tup!["GER"]]);
    }

    #[test]
    fn ger_has_two_assignments_as_in_example_2_2() {
        let (s, db) = world_cup();
        let q = q1(&s);
        let a = assignments_for_answer(&q, &db, &tup!["GER"]);
        // α1 and α2: the two orderings of 13.07.14 / 08.07.90.
        assert_eq!(a.len(), 2);
        for asg in &a {
            assert_eq!(
                asg.get(&qoco_query::Var::new("x")),
                Some(&qoco_data::Value::text("GER"))
            );
        }
    }

    #[test]
    fn esp_has_many_assignments() {
        let (s, db) = world_cup();
        let q = q1(&s);
        // ESP won 4 finals in D → ordered pairs of distinct dates: 4·3 = 12.
        let a = assignments_for_answer(&q, &db, &tup!["ESP"]);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn inequality_excludes_single_win_teams() {
        let (s, db) = world_cup();
        let q = q1(&s);
        // BRA is (wrongly) in Teams as EU but won only once → the d1 != d2
        // inequality must exclude it.
        let answers = answer_set(&q, &db);
        assert!(!answers.contains(&tup!["BRA"]));
    }

    #[test]
    fn non_satisfiable_partial_assignment_example_2_2() {
        let (s, db) = world_cup();
        let q = q1(&s);
        // β = {x ↦ ITA, y ↦ FRA} is non-satisfiable w.r.t. D (ITA missing
        // from Teams).
        let beta = Assignment::from_pairs([
            (qoco_query::Var::new("x"), qoco_data::Value::text("ITA")),
            (qoco_query::Var::new("y"), qoco_data::Value::text("FRA")),
        ]);
        assert!(!is_satisfiable(&q, &db, &beta));
        // but {x ↦ GER} is satisfiable
        let ger =
            Assignment::from_pairs([(qoco_query::Var::new("x"), qoco_data::Value::text("GER"))]);
        assert!(is_satisfiable(&q, &db, &ger));
    }

    #[test]
    fn constants_filter_candidates() {
        let (s, db) = world_cup();
        let q = parse_query(&s, r#"(x) :- Games(d, x, y, "Semi", u)"#).unwrap();
        assert!(answer_set(&q, &db).is_empty());
    }

    #[test]
    fn repeated_variable_in_atom_enforces_equality() {
        let s = Schema::builder()
            .relation("E", &["a", "b"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        db.insert_named("E", tup!["x", "x"]).unwrap();
        db.insert_named("E", tup!["x", "y"]).unwrap();
        let q = parse_query(&s, "(v) :- E(v, v)").unwrap();
        assert_eq!(answer_set(&q, &db), vec![tup!["x"]]);
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let s = Schema::builder()
            .relation("A", &["a"])
            .relation("B", &["b"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        for v in ["1", "2"] {
            db.insert_named("A", tup![v]).unwrap();
            db.insert_named("B", tup![v]).unwrap();
        }
        let q = parse_query(&s, "(x, y) :- A(x), B(y)").unwrap();
        assert_eq!(answer_set(&q, &db).len(), 4);
    }

    #[test]
    fn empty_relation_gives_empty_result() {
        let s = Schema::builder().relation("A", &["a"]).build().unwrap();
        let db = Database::empty(s.clone());
        let q = parse_query(&s, "(x) :- A(x)").unwrap();
        assert!(answer_set(&q, &db).is_empty());
        assert!(!is_satisfiable(&q, &db, &Assignment::new()));
    }

    #[test]
    fn max_assignments_truncates() {
        let s = Schema::builder()
            .relation("A", &["a"])
            .relation("B", &["b"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        for i in 0..10i64 {
            db.insert_named("A", tup![i]).unwrap();
            db.insert_named("B", tup![i]).unwrap();
        }
        let q = parse_query(&s, "(x, y) :- A(x), B(y)").unwrap();
        let res = all_assignments(
            &q,
            &db,
            &Assignment::new(),
            EvalOptions { max_assignments: 5 },
        );
        assert!(res.truncated);
        assert_eq!(res.assignments.len(), 5);
        let full = evaluate(&q, &db);
        assert!(!full.truncated);
        assert_eq!(full.assignments.len(), 100);

        // on a join, any cap keeps `min(cap, n)` of the full result and
        // flags truncation exactly when assignments were withheld
        let (_s, db, q) = wide_db();
        let full = evaluate(&q, &db).assignments;
        for max in [0usize, 1, 7, 50, 10_000] {
            let res = all_assignments(
                &q,
                &db,
                &Assignment::new(),
                EvalOptions {
                    max_assignments: max,
                },
            );
            assert_eq!(res.assignments.len(), max.min(full.len()), "max={max}");
            assert_eq!(res.truncated, full.len() > max, "max={max}");
            assert!(
                res.assignments
                    .iter()
                    .all(|a| full.binary_search(a).is_ok()),
                "max={max}: capped result is not a subset"
            );
        }
    }

    #[test]
    fn exact_capacity_sets_no_truncated_flag() {
        let (_s, db, q) = wide_db();
        let total = evaluate(&q, &db).assignments.len();
        // budget exactly equal to the result size must not report truncation
        let res = all_assignments(
            &q,
            &db,
            &Assignment::new(),
            EvalOptions {
                max_assignments: total,
            },
        );
        assert!(!res.truncated);
        assert_eq!(res.assignments.len(), total);
    }

    #[test]
    fn early_exit_stops_at_first_witness() {
        let s = Schema::builder().relation("A", &["a"]).build().unwrap();
        let mut db = Database::empty(s.clone());
        for i in 0..100i64 {
            db.insert_named("A", tup![i]).unwrap();
        }
        let q = parse_query(&s, "(x) :- A(x)").unwrap();
        let seed = Assignment::new();
        let kernel = Kernel::compile(&q, &db, &seed);
        let mut run = Run::new(&kernel, /* early_exit */ true, usize::MAX);
        run.descend(0);
        assert_eq!(run.out.len, 1, "early exit keeps exactly one witness");
        assert!(
            run.tally.tried < 100,
            "early exit must not scan all candidates (tried {})",
            run.tally.tried
        );
    }

    #[test]
    fn inequality_with_constant() {
        let s = Schema::builder()
            .relation("T", &["c", "k"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        db.insert_named("T", tup!["GER", "EU"]).unwrap();
        db.insert_named("T", tup!["BRA", "SA"]).unwrap();
        let q = parse_query(&s, r#"(x) :- T(x, k), k != "EU""#).unwrap();
        assert_eq!(answer_set(&q, &db), vec![tup!["BRA"]]);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (s, db) = world_cup();
        let q = q1(&s);
        let r1 = evaluate(&q, &db).assignments;
        let r2 = evaluate(&q, &db).assignments;
        assert_eq!(r1, r2);
    }

    #[test]
    fn explain_orders_selective_atoms_first() {
        let (s, db) = world_cup();
        let q = q1(&s);
        let plan = explain(&q, &db);
        // Teams (48 rows max, one constant) or a Games atom with the Final
        // constant goes first; every later step shows a probe
        assert!(plan.contains("plan for Q1"), "{plan}");
        assert!(plan.contains("probe ["), "{plan}");
        assert!(plan.contains("filter: 1 inequalit"), "{plan}");
        // the first step has a constant binding
        let first_line = plan.lines().nth(1).unwrap();
        assert!(first_line.contains("col"), "{first_line}");
    }

    #[test]
    fn explain_reports_scans_for_unconstrained_atoms() {
        let s = Schema::builder().relation("A", &["a"]).build().unwrap();
        let mut db = Database::empty(s.clone());
        db.insert_named("A", tup!["x"]).unwrap();
        let q = parse_query(&s, "(v) :- A(v)").unwrap();
        let plan = explain(&q, &db);
        assert!(plan.contains("scan (1 tuples)"), "{plan}");
    }

    #[test]
    fn seed_conflicting_with_head_constant_yields_nothing() {
        let (s, db) = world_cup();
        let q = q1(&s);
        assert!(assignments_for_answer(&q, &db, &tup!["GER", "extra"]).is_empty());
    }

    #[test]
    fn union_answers_union_the_disjuncts() {
        let (s, db) = world_cup();
        let won = parse_query(&s, r#"W(x) :- Games(d, x, y, "Final", u)"#).unwrap();
        let lost = parse_query(&s, r#"L(x) :- Games(d, y, x, "Final", u)"#).unwrap();
        let uq = UnionQuery::new("Finalists", vec![won, lost]).unwrap();
        // GER both won and lost a final: listed once
        assert_eq!(
            union_answer_set(&uq, &db),
            vec![
                tup!["ARG"],
                tup!["BRA"],
                tup!["ESP"],
                tup!["FRA"],
                tup!["GER"],
                tup!["ITA"],
                tup!["NED"]
            ]
        );
    }
}
