//! Abstract-interpretation cache analysis: must/may/persistence hit–miss
//! classification, cross-validated against the `mbcr-cache` simulator.
//!
//! The paper argues that *measurement-based* cache representativeness is
//! needed because static cache analysis is hard on multipath programs. This
//! module builds the static side so the two can be put in dialogue: a
//! classical abstract interpretation in the style of Ferdinand & Wilhelm,
//! with the persistence refinement of Cullmann's conflict-set analysis.
//!
//! # Domains
//!
//! Both domains abstract the state of one set-associative LRU cache
//! (deterministic modulo placement — the analysis is *only* sound for
//! [`mbcr_cache::PlacementPolicy::Modulo`] + LRU, the platform's
//! deterministic configuration):
//!
//! * **Must** — maps a memory line to an *upper bound* on its LRU age.
//!   Presence proves the line is cached on every concrete execution
//!   reaching this point; join intersects keys and takes the max age.
//! * **May** — maps a memory line to a *lower bound* on its LRU age.
//!   Absence proves the line is cached on *no* concrete execution; join
//!   unions keys and takes the min age.
//!
//! Accessing a known line `ℓ` with stored age bound `h` (or `W`, the
//! associativity, if untracked) ages every other same-set line whose bound
//! is `< h` (must) / `≤ h` (may) by one, evicting at `W`, and reinserts `ℓ`
//! at age 0. An access whose address is only known to lie in a *range*
//! (a data-dependent array index) is "blurred": the must domain ages every
//! tracked line in every set a candidate line maps to and inserts nothing;
//! the may domain inserts every candidate line at age 0.
//!
//! # Fixpoint with first-iteration peeling
//!
//! Loops are analysed structurally: the first iteration is walked from the
//! loop-entry state (peeled), then a joined steady state is computed by
//! fixpoint iteration and walked once more. Classifications are therefore
//! contexted: a site whose steady iterations all hit, but whose peeled
//! first iteration may miss, is *first-miss* in its innermost loop.
//! First-miss is also derived from conflict-set persistence: an
//! exact-address site is persistent in a scope (the whole program, or one
//! enclosing loop) if the distinct lines mapping to its cache set from
//! within that scope fit in the set's `W` ways — once loaded, the line can
//! never be evicted before the scope exits.
//!
//! # Classifications
//!
//! | class | code | guarantee |
//! |---|---|---|
//! | [`Classification::AlwaysHit`] | `AH` | every execution of the site hits |
//! | [`Classification::AlwaysMiss`] | `AM` | every execution of the site misses |
//! | [`Classification::FirstMiss`] | `FM` | at most one miss per entry of its scope |
//! | [`Classification::NotClassified`] | `NC` | no guarantee |
//!
//! # Access sites
//!
//! A span's sites are its instruction fetch slots and one data site per
//! reference of its statement's own token ([`crate::Token`], the footprint
//! model PUB, the lint verifier and the path signatures read too). The
//! site walk below checks that model against the interpreter on every
//! validation.
//!
//! # Simulator cross-validation
//!
//! [`validate_classification`] runs each concrete input through
//! [`crate::execute`] and attributes every access of the run's trace to its
//! static site. The run's [`crate::PathRecord`] fixes every branch and every
//! loop trip count, so walking the site tree along it yields the run's site
//! stream without a second execution; the walk asserts that each access has
//! its site's kind and lies inside the site's static location. The trace is
//! then simulated against LRU caches, emitting [`crate::DiagCode`] findings
//! when a static guarantee is violated:
//! `CCA001` (always-hit missed), `CCA002` (always-miss hit), `CCA003`
//! (first-miss missed twice in one scope entry), `CCA004` (aggregate
//! hit/miss totals undercut the guaranteed bounds).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use mbcr_cache::{Cache, CacheGeometry, PlacementPolicy, ReplacementPolicy};
use mbcr_trace::{Access, AccessKind, Address};

use crate::expr::{const_eval, Expr};
use crate::footprint::Token;
use crate::interp::{execute, Inputs, InterpError, Run};
use crate::layout::{layout_program, InstrSpan, LayoutNode};
use crate::paths::Decision;
use crate::program::{ArrayDecl, Program, ELEM_BYTES};
use crate::stmt::Stmt;
use crate::verify::{DiagCode, Diagnostics};

/// The statically-known target of an access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteLoc {
    /// A single byte address, known exactly.
    Addr(u64),
    /// Somewhere in `base..end` (end exclusive). An empty range
    /// (`end == base`, a zero-length array) has no candidate lines.
    Range {
        /// First possible byte address.
        base: u64,
        /// One past the last possible byte address.
        end: u64,
    },
}

impl SiteLoc {
    /// Whether the byte address `addr` is one this site can access.
    fn contains(self, addr: u64) -> bool {
        match self {
            SiteLoc::Addr(a) => addr == a,
            SiteLoc::Range { base, end } => (base..end).contains(&addr),
        }
    }

    /// The memory lines the access can land on under `geom`.
    fn candidate_lines(self, geom: &CacheGeometry) -> Vec<u64> {
        match self {
            SiteLoc::Addr(a) => vec![geom.line_of_addr(a)],
            SiteLoc::Range { base, end } => {
                if end <= base {
                    return Vec::new();
                }
                (geom.line_of_addr(base)..=geom.line_of_addr(end - 1)).collect()
            }
        }
    }
}

impl fmt::Display for SiteLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteLoc::Addr(a) => write!(f, "{a:#x}"),
            SiteLoc::Range { base, end } => write!(f, "{base:#x}..{end:#x}"),
        }
    }
}

/// One static access site: a program point that emits at most one memory
/// access per execution of its enclosing leaf statement.
///
/// Sites are geometry-independent; ids are dense and index
/// [`CacheClassification::sites`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Dense site id.
    pub id: u32,
    /// Instruction fetch (il1 side) or data read/write (dl1 side).
    pub kind: AccessKind,
    /// Innermost enclosing construct (layout pre-order id), if any; loop
    /// header/init/iter sites anchor to their own loop.
    pub construct: Option<u32>,
    /// Enclosing loop construct ids, outermost first.
    pub loops: Vec<u32>,
    /// Where the access lands.
    pub loc: SiteLoc,
}

impl AccessSite {
    /// Stable spelling of the access kind: `"fetch"`, `"read"` or
    /// `"write"`.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            AccessKind::InstrFetch => "fetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }

    /// Which L1 serves this site: `"il1"` or `"dl1"`.
    #[must_use]
    pub fn cache_name(&self) -> &'static str {
        if self.kind.is_data() {
            "dl1"
        } else {
            "il1"
        }
    }
}

/// The scope a [`Classification::FirstMiss`] guarantee is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// At most one miss per program run.
    Program,
    /// At most one miss per entry of the loop with this construct id.
    Loop(u32),
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Program => write!(f, "program"),
            Scope::Loop(c) => write!(f, "loop {c}"),
        }
    }
}

/// Static hit/miss classification of one access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Every execution of the site hits.
    AlwaysHit,
    /// Every execution of the site misses.
    AlwaysMiss,
    /// The site misses at most once per entry of its scope.
    FirstMiss(Scope),
    /// No guarantee.
    NotClassified,
}

impl Classification {
    /// Two-letter code: `"AH"`, `"AM"`, `"FM"` or `"NC"`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Classification::AlwaysHit => "AH",
            Classification::AlwaysMiss => "AM",
            Classification::FirstMiss(_) => "FM",
            Classification::NotClassified => "NC",
        }
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::AlwaysHit => write!(f, "always-hit"),
            Classification::AlwaysMiss => write!(f, "always-miss"),
            Classification::FirstMiss(s) => write!(f, "first-miss({s})"),
            Classification::NotClassified => write!(f, "not-classified"),
        }
    }
}

/// An access site together with its classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedSite {
    /// The site.
    pub site: AccessSite,
    /// Its classification.
    pub class: Classification,
}

/// Per-cache classification counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollupSide {
    /// Total sites on this cache side.
    pub sites: usize,
    /// Sites proved always-hit.
    pub always_hit: usize,
    /// Sites proved always-miss.
    pub always_miss: usize,
    /// Sites proved first-miss in some scope.
    pub first_miss: usize,
    /// Sites with no guarantee.
    pub not_classified: usize,
}

/// Classification counts rolled up per cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rollup {
    /// Instruction-cache side.
    pub il1: RollupSide,
    /// Data-cache side.
    pub dl1: RollupSide,
}

impl Rollup {
    fn compute(sites: &[ClassifiedSite]) -> Self {
        let mut r = Rollup::default();
        for cs in sites {
            let side = if cs.site.kind == AccessKind::InstrFetch {
                &mut r.il1
            } else {
                &mut r.dl1
            };
            side.sites += 1;
            match cs.class {
                Classification::AlwaysHit => side.always_hit += 1,
                Classification::AlwaysMiss => side.always_miss += 1,
                Classification::FirstMiss(_) => side.first_miss += 1,
                Classification::NotClassified => side.not_classified += 1,
            }
        }
        r
    }
}

/// The result of [`classify`]: every access site of a program classified
/// for one pair of cache geometries, plus the per-cache rollup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheClassification {
    /// Instruction-cache geometry the analysis ran against.
    pub il1: CacheGeometry,
    /// Data-cache geometry the analysis ran against.
    pub dl1: CacheGeometry,
    /// All sites in emission order, with classifications.
    pub sites: Vec<ClassifiedSite>,
    /// Per-cache classification counts.
    pub rollup: Rollup,
}

// ---------------------------------------------------------------------------
// Site table: the footprint model's references, in emission order.
// ---------------------------------------------------------------------------

/// Per-statement site structure, in the shape of [`LayoutNode`]. Each
/// span's sites come from its statement's own token ([`crate::Token`]),
/// and leaf/header site id lists are in exact emission order, so a walk that takes the branches
/// and trip counts of a run's [`crate::PathRecord`] emits the run's
/// accesses site by site (see [`SiteWalk`]).
enum SiteNode {
    Leaf(Vec<u32>),
    If {
        construct: u32,
        header: Vec<u32>,
        then_branch: Vec<SiteNode>,
        else_branch: Vec<SiteNode>,
    },
    While {
        construct: u32,
        header: Vec<u32>,
        body: Vec<SiteNode>,
    },
    For {
        construct: u32,
        init: Vec<u32>,
        iter: Vec<u32>,
        body: Vec<SiteNode>,
    },
}

struct SiteTable {
    sites: Vec<AccessSite>,
    tree: Vec<SiteNode>,
}

/// The static address set of a `Load` or `Store` access to `decl[idx]`:
/// exact when the index folds to an in-bounds constant, otherwise the whole
/// array (a zero-length array yields an empty range — the access cannot
/// execute without faulting).
fn load_loc(decl: &ArrayDecl, idx: &Expr) -> SiteLoc {
    match const_eval(idx) {
        Some(i) if i >= 0 && i < i64::from(decl.len) => SiteLoc::Addr(decl.elem_addr(i)),
        _ => SiteLoc::Range {
            base: decl.base,
            end: decl.base + u64::from(decl.len) * ELEM_BYTES,
        },
    }
}

/// The static address set of a `Touch` read: the interpreter wraps the
/// silently-evaluated index into the array (reading element 0 of an empty
/// array), so a constant index is exact and anything else covers the whole
/// (at least one element) array.
fn touch_loc(decl: &ArrayDecl, idx: &Expr) -> SiteLoc {
    match const_eval(idx) {
        Some(i) => SiteLoc::Addr(decl.elem_addr(i.rem_euclid(i64::from(decl.len.max(1))))),
        None => SiteLoc::Range {
            base: decl.base,
            end: decl.base + u64::from(decl.len.max(1)) * ELEM_BYTES,
        },
    }
}

struct SiteBuilder<'p> {
    program: &'p Program,
    sites: Vec<AccessSite>,
    loop_stack: Vec<u32>,
    ctx: Vec<u32>,
}

impl SiteBuilder<'_> {
    fn push_site(&mut self, kind: AccessKind, loc: SiteLoc, construct: Option<u32>) -> u32 {
        let id = u32::try_from(self.sites.len()).expect("site count fits in u32");
        self.sites.push(AccessSite {
            id,
            kind,
            construct: construct.or_else(|| self.ctx.last().copied()),
            loops: self.loop_stack.clone(),
            loc,
        });
        id
    }

    /// The sites of one span of statement `s` with footprint `tok`, in the
    /// interpreter's emission order: a fetch slot then a read for each
    /// reference (the load instruction, then its access; a touch's reads
    /// wrap like the interpreter's), then the span's remaining fetch slots,
    /// then a store's target write.
    fn span_sites(
        &mut self,
        s: &Stmt,
        tok: Token,
        span: InstrSpan,
        construct: Option<u32>,
    ) -> Vec<u32> {
        let mut refs = tok.data;
        let write = match s {
            Stmt::Store { .. } => refs.pop(),
            _ => None,
        };
        let mut ids = Vec::new();
        let mut slots = (0..span.count).map(|i| SiteLoc::Addr(span.instr_addr(i)));
        for (a, idx) in &refs {
            if let Some(slot) = slots.next() {
                ids.push(self.push_site(AccessKind::InstrFetch, slot, construct));
            }
            let decl = &self.program.arrays()[a.0 as usize];
            let loc = match s {
                Stmt::Touch { .. } => touch_loc(decl, idx),
                _ => load_loc(decl, idx),
            };
            ids.push(self.push_site(AccessKind::Read, loc, construct));
        }
        for slot in slots {
            ids.push(self.push_site(AccessKind::InstrFetch, slot, construct));
        }
        if let Some((a, idx)) = write {
            let loc = load_loc(&self.program.arrays()[a.0 as usize], &idx);
            ids.push(self.push_site(AccessKind::Write, loc, construct));
        }
        ids
    }

    fn build(&mut self, stmts: &[Stmt], nodes: &[LayoutNode]) -> Vec<SiteNode> {
        stmts
            .iter()
            .zip(nodes)
            .map(|(s, n)| self.node(s, n))
            .collect()
    }

    fn node(&mut self, s: &Stmt, n: &LayoutNode) -> SiteNode {
        match (s, n) {
            (_, LayoutNode::Leaf(span)) => {
                SiteNode::Leaf(self.span_sites(s, s.own_token(), *span, None))
            }
            (
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                },
                LayoutNode::If {
                    id,
                    header,
                    then_branch: tn,
                    else_branch: en,
                },
            ) => {
                let header = self.span_sites(s, s.own_token(), *header, Some(*id));
                self.ctx.push(*id);
                let t = self.build(then_branch, tn);
                let e = self.build(else_branch, en);
                self.ctx.pop();
                SiteNode::If {
                    construct: *id,
                    header,
                    then_branch: t,
                    else_branch: e,
                }
            }
            (
                Stmt::While { body, .. },
                LayoutNode::While {
                    id,
                    header,
                    body: bn,
                },
            ) => {
                self.loop_stack.push(*id);
                let header = self.span_sites(s, s.own_token(), *header, Some(*id));
                self.ctx.push(*id);
                let b = self.build(body, bn);
                self.ctx.pop();
                self.loop_stack.pop();
                SiteNode::While {
                    construct: *id,
                    header,
                    body: b,
                }
            }
            (
                Stmt::For { body, .. },
                LayoutNode::For {
                    id,
                    init,
                    iter,
                    body: bn,
                },
            ) => {
                self.loop_stack.push(*id);
                let init = self.span_sites(s, s.own_token(), *init, Some(*id));
                let iter = self.span_sites(s, Token::for_iter(), *iter, Some(*id));
                self.ctx.push(*id);
                let b = self.build(body, bn);
                self.ctx.pop();
                self.loop_stack.pop();
                SiteNode::For {
                    construct: *id,
                    init,
                    iter,
                    body: b,
                }
            }
            _ => unreachable!("layout node does not match statement shape"),
        }
    }
}

fn build_sites(program: &Program) -> SiteTable {
    let layout = layout_program(program);
    let mut b = SiteBuilder {
        program,
        sites: Vec::new(),
        loop_stack: Vec::new(),
        ctx: Vec::new(),
    };
    let tree = b.build(program.body(), &layout.nodes);
    SiteTable {
        sites: b.sites,
        tree,
    }
}

// ---------------------------------------------------------------------------
// Abstract domain: must/may age bounds per cache.
// ---------------------------------------------------------------------------

/// Abstract state of one cache: must ages (upper bounds, presence = proved
/// cached) and may ages (lower bounds, absence = proved not cached).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Abs {
    must: BTreeMap<u64, u32>,
    may: BTreeMap<u64, u32>,
}

impl Abs {
    fn new() -> Self {
        Self {
            must: BTreeMap::new(),
            may: BTreeMap::new(),
        }
    }

    fn join(&self, o: &Self) -> Self {
        let mut must = BTreeMap::new();
        for (l, a) in &self.must {
            if let Some(b) = o.must.get(l) {
                must.insert(*l, (*a).max(*b));
            }
        }
        let mut may = self.may.clone();
        for (l, b) in &o.may {
            may.entry(*l)
                .and_modify(|a| *a = (*a).min(*b))
                .or_insert(*b);
        }
        Abs { must, may }
    }

    /// Transfer function for an access to the exactly-known `line`.
    fn touch(&mut self, geom: &CacheGeometry, line: u64) {
        let w = geom.ways();
        let set = geom.set_of_line(line);
        // Must: lines provably younger than ℓ's worst-case age get older.
        let h = self.must.get(&line).copied().unwrap_or(w);
        let mut evict = Vec::new();
        for (l, a) in &mut self.must {
            if *l != line && geom.set_of_line(*l) == set && *a < h {
                *a += 1;
                if *a >= w {
                    evict.push(*l);
                }
            }
        }
        for l in evict {
            self.must.remove(&l);
        }
        self.must.insert(line, 0);
        // May: lines possibly as young as ℓ's best-case age may get older.
        let h = self.may.get(&line).copied().unwrap_or(w);
        let mut evict = Vec::new();
        for (l, a) in &mut self.may {
            if *l != line && geom.set_of_line(*l) == set && *a <= h {
                *a += 1;
                if *a >= w {
                    evict.push(*l);
                }
            }
        }
        for l in evict {
            self.may.remove(&l);
        }
        self.may.insert(line, 0);
    }

    /// Transfer function for an access known only to hit one of `lines`:
    /// every tracked line in any affected set may age (must), and every
    /// candidate may now be cached at age 0 (may).
    fn blur(&mut self, geom: &CacheGeometry, lines: &[u64]) {
        let w = geom.ways();
        let sets: BTreeSet<u64> = lines.iter().map(|l| geom.set_of_line(*l)).collect();
        let mut evict = Vec::new();
        for (l, a) in &mut self.must {
            if sets.contains(&geom.set_of_line(*l)) {
                *a += 1;
                if *a >= w {
                    evict.push(*l);
                }
            }
        }
        for l in evict {
            self.must.remove(&l);
        }
        for &l in lines {
            self.may.insert(l, 0);
        }
    }
}

/// Joint abstract state of both caches (cold/flushed at program entry).
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    il1: Abs,
    dl1: Abs,
}

impl State {
    fn new() -> Self {
        Self {
            il1: Abs::new(),
            dl1: Abs::new(),
        }
    }

    fn join(&self, o: &Self) -> Self {
        State {
            il1: self.il1.join(&o.il1),
            dl1: self.dl1.join(&o.dl1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SteadyAcc {
    seen: bool,
    hit_all: bool,
}

/// Per-site evidence accumulated over all recorded walk contexts.
#[derive(Debug, Clone)]
struct VerdictAcc {
    seen: bool,
    hit_all: bool,
    miss_all: bool,
    /// Per enclosing loop: evidence restricted to steady (non-first)
    /// iterations of that loop — the peeling basis for first-miss.
    steady: BTreeMap<u32, SteadyAcc>,
}

impl Default for VerdictAcc {
    fn default() -> Self {
        Self {
            seen: false,
            hit_all: true,
            miss_all: true,
            steady: BTreeMap::new(),
        }
    }
}

const FIXPOINT_CAP: usize = 10_000;

struct Walker<'a> {
    sites: &'a [AccessSite],
    il1: CacheGeometry,
    dl1: CacheGeometry,
    /// Per live loop: are we in its peeled first iteration?
    first: BTreeMap<u32, bool>,
    recording: bool,
    acc: Vec<VerdictAcc>,
}

impl Walker<'_> {
    fn apply_site(&mut self, id: u32, st: &mut State) {
        let is_il1 = self.sites[id as usize].kind == AccessKind::InstrFetch;
        let geom = if is_il1 { self.il1 } else { self.dl1 };
        let abs = if is_il1 { &mut st.il1 } else { &mut st.dl1 };
        let lines = self.sites[id as usize].loc.candidate_lines(&geom);
        let (ctx_hit, ctx_miss) = if lines.is_empty() {
            (false, false)
        } else {
            (
                lines.iter().all(|l| abs.must.contains_key(l)),
                lines.iter().all(|l| !abs.may.contains_key(l)),
            )
        };
        if self.recording {
            let v = &mut self.acc[id as usize];
            v.seen = true;
            v.hit_all &= ctx_hit;
            v.miss_all &= ctx_miss;
            for l in &self.sites[id as usize].loops {
                if self.first.get(l) == Some(&false) {
                    let e = v.steady.entry(*l).or_insert(SteadyAcc {
                        seen: false,
                        hit_all: true,
                    });
                    e.seen = true;
                    e.hit_all &= ctx_hit;
                }
            }
        }
        match lines.len() {
            0 => {}
            1 => abs.touch(&geom, lines[0]),
            _ => abs.blur(&geom, &lines),
        }
    }

    fn apply_sites(&mut self, ids: &[u32], st: &mut State) {
        for &id in ids {
            self.apply_site(id, st);
        }
    }

    fn seq(&mut self, nodes: &[SiteNode], st: &mut State) {
        for n in nodes {
            self.node(n, st);
        }
    }

    fn node(&mut self, n: &SiteNode, st: &mut State) {
        match n {
            SiteNode::Leaf(ids) => self.apply_sites(ids, st),
            SiteNode::If {
                header,
                then_branch,
                else_branch,
                ..
            } => {
                self.apply_sites(header, st);
                let mut other = st.clone();
                self.seq(then_branch, st);
                self.seq(else_branch, &mut other);
                *st = st.join(&other);
            }
            SiteNode::While {
                construct,
                header,
                body,
            } => self.loop_node(*construct, None, header, body, st),
            SiteNode::For {
                construct,
                init,
                iter,
                body,
            } => self.loop_node(*construct, Some(init), iter, body, st),
        }
    }

    /// Peeled-first-iteration loop analysis: record the first iteration
    /// from the entry state, close the steady state by fixpoint (recording
    /// off), record one steady iteration, and exit with the join of the
    /// zero-iteration and steady header states.
    fn loop_node(
        &mut self,
        c: u32,
        init: Option<&[u32]>,
        header: &[u32],
        body: &[SiteNode],
        st: &mut State,
    ) {
        if let Some(init) = init {
            // Init sites run once per loop entry, before the loop's
            // first-iteration flag exists — they never accrue steady
            // evidence for their own loop.
            self.apply_sites(init, st);
        }
        self.first.insert(c, true);
        let mut s = st.clone();
        self.apply_sites(header, &mut s);
        let s1 = s.clone(); // header from entry: the zero-iteration exit
        self.seq(body, &mut s);
        let saved = self.recording;
        self.recording = false;
        let mut x = s;
        let mut converged = false;
        for _ in 0..FIXPOINT_CAP {
            let mut y = x.clone();
            self.apply_sites(header, &mut y);
            self.seq(body, &mut y);
            let joined = x.join(&y);
            if joined == x {
                converged = true;
                break;
            }
            x = joined;
        }
        assert!(converged, "cache abstract fixpoint failed to converge");
        self.recording = saved;
        self.first.insert(c, false);
        let mut hs = x.clone();
        self.apply_sites(header, &mut hs);
        let mut bs = hs.clone();
        self.seq(body, &mut bs);
        self.first.remove(&c);
        *st = s1.join(&hs);
    }
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

fn cache_index(kind: AccessKind) -> usize {
    usize::from(kind != AccessKind::InstrFetch)
}

/// Runs the must/may/persistence analysis of `program` against one pair of
/// instruction/data cache geometries and classifies every access site.
///
/// The result is sound for the deterministic platform configuration only:
/// modulo placement, LRU replacement, both caches cold at program entry
/// (the contract [`validate_classification`] enforces against the
/// simulator).
#[must_use]
pub fn classify(program: &Program, il1: CacheGeometry, dl1: CacheGeometry) -> CacheClassification {
    let table = build_sites(program);
    let mut w = Walker {
        sites: &table.sites,
        il1,
        dl1,
        first: BTreeMap::new(),
        recording: true,
        acc: vec![VerdictAcc::default(); table.sites.len()],
    };
    let mut st = State::new();
    w.seq(&table.tree, &mut st);
    let acc = w.acc;

    // Conflict sets per persistence scope (None = whole program): for each
    // cache, set index → distinct candidate lines any member site can touch.
    let mut scopes: BTreeMap<Option<u32>, [BTreeMap<u64, BTreeSet<u64>>; 2]> = BTreeMap::new();
    for site in &table.sites {
        let ci = cache_index(site.kind);
        let geom = if ci == 0 { &il1 } else { &dl1 };
        let lines = site.loc.candidate_lines(geom);
        for key in std::iter::once(None).chain(site.loops.iter().map(|l| Some(*l))) {
            let maps = scopes.entry(key).or_default();
            for &l in &lines {
                maps[ci].entry(geom.set_of_line(l)).or_default().insert(l);
            }
        }
    }
    let persistent = |scope: Option<u32>, ci: usize, geom: &CacheGeometry, line: u64| {
        let conflicts = scopes
            .get(&scope)
            .and_then(|maps| maps[ci].get(&geom.set_of_line(line)))
            .map_or(0, BTreeSet::len);
        conflicts <= geom.ways() as usize
    };

    let mut sites_out = Vec::with_capacity(table.sites.len());
    for site in table.sites {
        let v = &acc[site.id as usize];
        let ci = cache_index(site.kind);
        let geom = if ci == 0 { &il1 } else { &dl1 };
        let class = if !v.seen {
            Classification::NotClassified
        } else if v.hit_all {
            Classification::AlwaysHit
        } else if v.miss_all {
            Classification::AlwaysMiss
        } else if site.loops.is_empty() {
            // Executes at most once per run, so at most one miss trivially.
            Classification::FirstMiss(Scope::Program)
        } else {
            let mut class = Classification::NotClassified;
            if let SiteLoc::Addr(a) = site.loc {
                // Conflict-set persistence, widest scope first.
                let line = geom.line_of_addr(a);
                for key in std::iter::once(None).chain(site.loops.iter().map(|l| Some(*l))) {
                    if persistent(key, ci, geom, line) {
                        class = Classification::FirstMiss(match key {
                            None => Scope::Program,
                            Some(c) => Scope::Loop(c),
                        });
                        break;
                    }
                }
            }
            if class == Classification::NotClassified {
                // Peeling: a site executing at most once per iteration of
                // its innermost loop whose steady iterations all hit misses
                // at most once per entry of that loop.
                if let Some(&l) = site.loops.last() {
                    if v.steady.get(&l).is_some_and(|s| s.seen && s.hit_all) {
                        class = Classification::FirstMiss(Scope::Loop(l));
                    }
                }
            }
            class
        };
        sites_out.push(ClassifiedSite { site, class });
    }
    let rollup = Rollup::compute(&sites_out);
    CacheClassification {
        il1,
        dl1,
        sites: sites_out,
        rollup,
    }
}

// ---------------------------------------------------------------------------
// Site walk: one run's accesses attributed to their static sites.
// ---------------------------------------------------------------------------

enum Ev {
    /// Arrival at a loop (before its first header check / init).
    Enter(u32),
    /// One memory access, attributed to its static site.
    Acc { site: u32, addr: u64 },
}

/// Walks the site tree along one run's [`crate::PathRecord`] and pairs the
/// i-th site it emits with the i-th access of the run's trace: an `if`
/// takes the arm its next [`Decision::Branch`] names, and a loop exits at
/// the header check where its own [`Decision::Loop`] is next with as many
/// iterations as were walked. The interpreter records a loop's decision at
/// loop exit, after its body's decisions, so a body that records no
/// decision sees its loop's exit decision at every header check and only
/// the trip count tells the exit apart.
struct SiteWalk<'a> {
    sites: &'a [AccessSite],
    trace: &'a [Access],
    decisions: &'a [Decision],
    next_access: usize,
    next_decision: usize,
    events: Vec<Ev>,
}

impl SiteWalk<'_> {
    /// The events of `run`, walked along `run.path`.
    ///
    /// # Panics
    ///
    /// Panics unless the walk and the trace have equal length, every
    /// access has its site's kind and lies inside its site's [`SiteLoc`]
    /// (the location the classification assumed), and every decision is
    /// consumed.
    fn run(table: &SiteTable, run: &Run) -> Vec<Ev> {
        let mut w = SiteWalk {
            sites: &table.sites,
            trace: run.trace.as_slice(),
            decisions: run.path.decisions(),
            next_access: 0,
            next_decision: 0,
            events: Vec::with_capacity(run.trace.len()),
        };
        w.seq(&table.tree);
        assert_eq!(
            w.next_access,
            w.trace.len(),
            "site walk out of sync: trace left over"
        );
        assert_eq!(
            w.next_decision,
            w.decisions.len(),
            "site walk out of sync: decisions left over"
        );
        w.events
    }

    fn emit(&mut self, ids: &[u32]) {
        for &id in ids {
            let site = &self.sites[id as usize];
            let access = self.trace.get(self.next_access);
            assert!(
                access.is_some_and(|a| a.kind == site.kind && site.loc.contains(a.addr.0)),
                "site walk out of sync: access {} is {access:?}, not site {id} ({:?} at {})",
                self.next_access,
                site.kind,
                site.loc
            );
            self.events.push(Ev::Acc {
                site: id,
                addr: self.trace[self.next_access].addr.0,
            });
            self.next_access += 1;
        }
    }

    fn seq(&mut self, nodes: &[SiteNode]) {
        for n in nodes {
            self.node(n);
        }
    }

    fn node(&mut self, n: &SiteNode) {
        match n {
            SiteNode::Leaf(ids) => self.emit(ids),
            SiteNode::If {
                construct,
                header,
                then_branch,
                else_branch,
            } => {
                self.emit(header);
                let taken = match self.decisions.get(self.next_decision) {
                    Some(&Decision::Branch { id, taken }) if id == *construct => taken,
                    next => panic!("site walk out of sync: if {construct} meets {next:?}"),
                };
                self.next_decision += 1;
                self.seq(if taken { then_branch } else { else_branch });
            }
            SiteNode::While {
                construct,
                header,
                body,
            } => self.loop_node(*construct, &[], header, body),
            SiteNode::For {
                construct,
                init,
                iter,
                body,
            } => self.loop_node(*construct, init, iter, body),
        }
    }

    fn loop_node(&mut self, c: u32, init: &[u32], header: &[u32], body: &[SiteNode]) {
        self.events.push(Ev::Enter(c));
        self.emit(init);
        for iters in 0.. {
            self.emit(header);
            if self.decisions.get(self.next_decision) == Some(&Decision::Loop { id: c, iters }) {
                self.next_decision += 1;
                return;
            }
            self.seq(body);
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator cross-validation.
// ---------------------------------------------------------------------------

/// Replays `inputs` through the simulator and checks every static guarantee
/// in `cls`, returning `CCA00x` diagnostics for violations (empty = sound).
///
/// Both caches are simulated with deterministic modulo placement and LRU
/// replacement — the configuration the analysis models — and flushed before
/// each input, matching the cold-entry assumption.
///
/// # Errors
///
/// Propagates the first [`InterpError`] from executing an input.
///
/// # Panics
///
/// Panics if `cls` was not produced from this `program` (site tables
/// differ), or if a run's trace does not follow the site tree along the
/// run's own path record: a walk of a different length, an access of
/// another kind or outside its site's static location, or a decision left
/// unconsumed. Both are bugs, not data-dependent conditions.
pub fn validate_classification(
    program: &Program,
    inputs: &[Inputs],
    cls: &CacheClassification,
) -> Result<Diagnostics, InterpError> {
    let table = build_sites(program);
    assert!(
        table.sites.len() == cls.sites.len()
            && table
                .sites
                .iter()
                .zip(&cls.sites)
                .all(|(a, b)| *a == b.site),
        "classification does not belong to this program"
    );

    let mut il1 = Cache::new(cls.il1, PlacementPolicy::Modulo, ReplacementPolicy::Lru, 0);
    let mut dl1 = Cache::new(cls.dl1, PlacementPolicy::Modulo, ReplacementPolicy::Lru, 0);
    let mut diags = Diagnostics::new();
    let mut seen_diag: BTreeSet<(DiagCode, u32)> = BTreeSet::new();
    // Per first-miss site: the scope-entry id of its last observed miss.
    let mut last_miss: HashMap<u32, u64> = HashMap::new();
    // Per loop construct: its current (globally unique) entry id.
    let mut entries: HashMap<u32, u64> = HashMap::new();
    let mut next_entry: u64 = 0;

    for (run_idx, inp) in inputs.iter().enumerate() {
        let run = execute(program, inp)?;
        let events = SiteWalk::run(&table, &run);

        il1.flush();
        dl1.flush();
        let (mut hits, mut misses) = ([0u64; 2], [0u64; 2]);
        let (mut ah_acc, mut am_acc) = ([0u64; 2], [0u64; 2]);
        for ev in &events {
            match ev {
                Ev::Enter(c) => {
                    next_entry += 1;
                    entries.insert(*c, next_entry);
                }
                Ev::Acc { site, addr } => {
                    let cs = &cls.sites[*site as usize];
                    let ci = cache_index(cs.site.kind);
                    let cache = if ci == 0 { &mut il1 } else { &mut dl1 };
                    let hit = cache.access(Address(*addr)).is_hit();
                    if hit {
                        hits[ci] += 1;
                    } else {
                        misses[ci] += 1;
                    }
                    match cs.class {
                        Classification::AlwaysHit => {
                            ah_acc[ci] += 1;
                            if !hit && seen_diag.insert((DiagCode::Cca001, *site)) {
                                diags.push(
                                    DiagCode::Cca001,
                                    cs.site.construct,
                                    format!(
                                        "site {site}: always-hit access at {addr:#x} \
                                         missed in simulation (input {run_idx})"
                                    ),
                                );
                            }
                        }
                        Classification::AlwaysMiss => {
                            am_acc[ci] += 1;
                            if hit && seen_diag.insert((DiagCode::Cca002, *site)) {
                                diags.push(
                                    DiagCode::Cca002,
                                    cs.site.construct,
                                    format!(
                                        "site {site}: always-miss access at {addr:#x} \
                                         hit in simulation (input {run_idx})"
                                    ),
                                );
                            }
                        }
                        Classification::FirstMiss(scope) => {
                            if !hit {
                                let id = match scope {
                                    Scope::Program => run_idx as u64,
                                    Scope::Loop(c) => entries.get(&c).copied().unwrap_or(0),
                                };
                                if last_miss.get(site) == Some(&id) {
                                    if seen_diag.insert((DiagCode::Cca003, *site)) {
                                        diags.push(
                                            DiagCode::Cca003,
                                            cs.site.construct,
                                            format!(
                                                "site {site}: first-miss access at {addr:#x} \
                                                 missed twice in one {scope} entry \
                                                 (input {run_idx})"
                                            ),
                                        );
                                    }
                                } else {
                                    last_miss.insert(*site, id);
                                }
                            }
                        }
                        Classification::NotClassified => {}
                    }
                }
            }
        }
        // Aggregate bound inversion: observed totals must respect the
        // guaranteed-hit (≥ always-hit accesses) and guaranteed-miss
        // (≥ always-miss accesses) bounds per cache.
        for ci in 0..2 {
            if hits[ci] < ah_acc[ci] || misses[ci] < am_acc[ci] {
                let sentinel = if ci == 0 { u32::MAX } else { u32::MAX - 1 };
                if seen_diag.insert((DiagCode::Cca004, sentinel)) {
                    diags.push(
                        DiagCode::Cca004,
                        None,
                        format!(
                            "{}: observed {} hits / {} misses undercut the static \
                             bounds of >= {} hits and >= {} misses (input {run_idx})",
                            if ci == 0 { "il1" } else { "dl1" },
                            hits[ci],
                            misses[ci],
                            ah_acc[ci],
                            am_acc[ci]
                        ),
                    );
                }
            }
        }
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, DATA_BASE};

    fn l1() -> CacheGeometry {
        CacheGeometry::paper_l1()
    }

    /// `x = 1`: one quantized 8-instruction leaf on a single code line —
    /// the first fetch is a cold miss, the other seven always hit.
    #[test]
    fn straight_line_fetches_classify_exactly() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::Assign(x, Expr::c(1)));
        let p = b.build().unwrap();
        let cls = classify(&p, l1(), l1());
        assert_eq!(cls.sites.len(), 8);
        assert_eq!(cls.sites[0].class, Classification::AlwaysMiss);
        for s in &cls.sites[1..] {
            assert_eq!(s.class, Classification::AlwaysHit, "site {}", s.site.id);
        }
        assert_eq!(cls.rollup.il1.sites, 8);
        assert_eq!(cls.rollup.il1.always_miss, 1);
        assert_eq!(cls.rollup.il1.always_hit, 7);
        assert_eq!(cls.rollup.dl1.sites, 0);
        let d = validate_classification(&p, &[Inputs::new()], &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// A constant-index load in a loop is first-miss via conflict-set
    /// persistence: its line fits the set for the whole program.
    #[test]
    fn repeated_load_in_loop_is_first_miss() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let i = b.var("i");
        let a = b.array("a", 4);
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![Stmt::Assign(x, Expr::load(a, Expr::c(0)))],
        ));
        let p = b.build().unwrap();
        let cls = classify(&p, l1(), l1());
        let read = cls
            .sites
            .iter()
            .find(|s| s.site.kind == AccessKind::Read)
            .unwrap();
        assert_eq!(read.site.loc, SiteLoc::Addr(DATA_BASE));
        assert_eq!(read.site.loops, vec![0]);
        assert_eq!(read.class, Classification::FirstMiss(Scope::Program));
        let d = validate_classification(&p, &[Inputs::new()], &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// Two distinct lines alternating through a 1-set/1-way data cache:
    /// every data access thrashes, which the may analysis proves.
    fn thrash_program() -> (crate::Program, crate::Var) {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        let i = b.var("i");
        let a = b.array("a", 8);
        let bb = b.array("b", 8);
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(2),
            2,
            vec![
                Stmt::Assign(x, Expr::load(a, Expr::c(0))),
                Stmt::Assign(y, Expr::load(bb, Expr::c(0))),
            ],
        ));
        (b.build().unwrap(), x)
    }

    #[test]
    fn thrashing_loads_are_always_miss() {
        let (p, _) = thrash_program();
        let dl1 = CacheGeometry::new(32, 1, 32).unwrap();
        let cls = classify(&p, l1(), dl1);
        let reads: Vec<_> = cls
            .sites
            .iter()
            .filter(|s| s.site.kind == AccessKind::Read)
            .collect();
        assert_eq!(reads.len(), 2);
        for s in &reads {
            assert_eq!(s.class, Classification::AlwaysMiss, "site {}", s.site.id);
        }
        let d = validate_classification(&p, &[Inputs::new()], &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// A branch-dependent eviction pattern leaves the victim site
    /// not-classified — and a sound NC claims nothing, so validation stays
    /// clean even though the site both hits and misses dynamically.
    #[test]
    fn branch_dependent_eviction_is_not_classified() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        let i = b.var("i");
        let a = b.array("a", 8);
        let bb = b.array("b", 8);
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![
                Stmt::if_(
                    Expr::var(i).rem(Expr::c(2)).ne(Expr::c(0)),
                    vec![Stmt::Assign(x, Expr::load(a, Expr::c(0)))],
                    vec![],
                ),
                Stmt::Assign(y, Expr::load(bb, Expr::c(0))),
            ],
        ));
        let p = b.build().unwrap();
        let dl1 = CacheGeometry::new(32, 1, 32).unwrap();
        let cls = classify(&p, l1(), dl1);
        let b_read = cls
            .sites
            .iter()
            .rfind(|s| s.site.kind == AccessKind::Read)
            .unwrap();
        assert_eq!(b_read.class, Classification::NotClassified);
        let d = validate_classification(&p, &[Inputs::new()], &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// Each CCA00x code actually fires when the classification is wrong.
    #[test]
    fn seeded_violations_fire_every_code() {
        let (p, _) = thrash_program();
        let dl1 = CacheGeometry::new(32, 1, 32).unwrap();
        let cls = classify(&p, l1(), dl1);

        let mut bad = cls.clone();
        for s in &mut bad.sites {
            s.class = Classification::AlwaysHit;
        }
        let d = validate_classification(&p, &[Inputs::new()], &bad).unwrap();
        assert!(d.codes().contains(&DiagCode::Cca001), "{d}");
        assert!(d.codes().contains(&DiagCode::Cca004), "{d}");

        let mut bad = cls.clone();
        for s in &mut bad.sites {
            s.class = Classification::AlwaysMiss;
        }
        let d = validate_classification(&p, &[Inputs::new()], &bad).unwrap();
        assert!(d.codes().contains(&DiagCode::Cca002), "{d}");
        assert!(d.codes().contains(&DiagCode::Cca004), "{d}");

        // The a-read misses on every iteration; claiming first-miss over
        // the whole program is refuted on the second iteration.
        let mut bad = cls.clone();
        let a_read = bad
            .sites
            .iter()
            .position(|s| s.site.kind == AccessKind::Read)
            .unwrap();
        bad.sites[a_read].class = Classification::FirstMiss(Scope::Program);
        let d = validate_classification(&p, &[Inputs::new()], &bad).unwrap();
        assert_eq!(d.codes(), vec![DiagCode::Cca003], "{d}");
    }

    /// Data-dependent indices produce range sites; the analysis stays sound
    /// across a while/if nest exercised on several paths.
    #[test]
    fn range_sites_in_while_if_nest_validate_clean() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let s = b.var("s");
        let a = b.array("a", 8);
        b.push(Stmt::while_(
            Expr::var(x).gt(Expr::c(0)),
            8,
            vec![
                Stmt::if_(
                    Expr::var(x).rem(Expr::c(2)).ne(Expr::c(0)),
                    vec![Stmt::Assign(
                        s,
                        Expr::var(s).add(Expr::load(a, Expr::var(x).sub(Expr::c(1)))),
                    )],
                    vec![Stmt::Assign(s, Expr::var(s).add(Expr::c(1)))],
                ),
                Stmt::store(a, Expr::var(x).sub(Expr::c(1)), Expr::var(s)),
                Stmt::Assign(x, Expr::var(x).sub(Expr::c(1))),
            ],
        ));
        let p = b.build().unwrap();
        let cls = classify(&p, l1(), l1());
        assert!(
            cls.sites
                .iter()
                .any(|cs| matches!(cs.site.loc, SiteLoc::Range { .. })),
            "expected data-dependent range sites"
        );
        let inputs = [
            Inputs::new(),
            Inputs::new().with_var(x, 3),
            Inputs::new().with_var(x, 8),
        ];
        let d = validate_classification(&p, &inputs, &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// Touch reads wrap their index into the array; every wrapped read
    /// must still land inside the touch site's static range.
    #[test]
    fn touch_and_nop_sites_validate_clean() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let a = b.array("a", 4);
        b.push(Stmt::Touch {
            refs: vec![(a, Expr::var(x))],
            pad: 2,
        });
        b.push(Stmt::Nop { count: 3 });
        let p = b.build().unwrap();
        let cls = classify(&p, l1(), l1());
        let read = cls
            .sites
            .iter()
            .find(|s| s.site.kind == AccessKind::Read)
            .unwrap();
        assert_eq!(
            read.site.loc,
            SiteLoc::Range {
                base: DATA_BASE,
                end: DATA_BASE + 16
            }
        );
        let inputs = [Inputs::new(), Inputs::new().with_var(x, 100)];
        let d = validate_classification(&p, &inputs, &cls).unwrap();
        assert!(d.is_empty(), "{d}");
    }

    /// `while x > 0 { x = x - 1 }`: a loop body that records no decision,
    /// so every header check sees the loop's own exit decision next.
    fn countdown_program() -> (Program, crate::Var) {
        let mut b = ProgramBuilder::new("countdown");
        let x = b.var("x");
        b.push(Stmt::while_(
            Expr::var(x).gt(Expr::c(0)),
            8,
            vec![Stmt::Assign(x, Expr::var(x).sub(Expr::c(1)))],
        ));
        (b.build().unwrap(), x)
    }

    /// Every loop and branch shape the path record encodes walks in sync
    /// with the run and validates clean.
    #[test]
    fn site_walk_follows_every_loop_shape() {
        let (countdown, x) = countdown_program();

        // Inner trip count j < i equals the outer index, so the outer header
        // meets the inner loop's `Loop { iters }` equal to its own count.
        let mut b = ProgramBuilder::new("triangle");
        let (i, j, s) = (b.var("i"), b.var("j"), b.var("s"));
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![Stmt::for_(
                j,
                Expr::c(0),
                Expr::var(i),
                4,
                vec![Stmt::Assign(s, Expr::var(s).add(Expr::c(1)))],
            )],
        ));
        let triangle = b.build().unwrap();

        let mut b = ProgramBuilder::new("zero-trip");
        let (i, y) = (b.var("i"), b.var("y"));
        b.push(Stmt::for_(
            i,
            Expr::c(5),
            Expr::c(2),
            4,
            vec![Stmt::Assign(y, Expr::c(1))],
        ));
        b.push(Stmt::while_(
            Expr::var(y).gt(Expr::c(0)),
            4,
            vec![Stmt::if_(
                Expr::var(y).gt(Expr::c(2)),
                vec![Stmt::Assign(y, Expr::c(0))],
                vec![Stmt::Assign(y, Expr::var(y).sub(Expr::c(1)))],
            )],
        ));
        b.push(Stmt::Assign(y, Expr::c(7)));
        let zero_trip = b.build().unwrap();

        let mut b = ProgramBuilder::new("if-in-loop");
        let (i, z) = (b.var("i"), b.var("z"));
        let a = b.array("a", 4);
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![Stmt::if_(
                Expr::var(i).rem(Expr::c(2)).ne(Expr::c(0)),
                vec![Stmt::Assign(z, Expr::load(a, Expr::var(i)))],
                vec![Stmt::store(a, Expr::var(i), Expr::var(z))],
            )],
        ));
        let if_in_loop = b.build().unwrap();

        let cases = [
            (
                "while body without decisions",
                &countdown,
                vec![Inputs::new().with_var(x, 5), Inputs::new().with_var(x, 1)],
            ),
            (
                "inner trip count = outer index",
                &triangle,
                vec![Inputs::new()],
            ),
            ("zero-trip for and while", &zero_trip, vec![Inputs::new()]),
            ("if inside a loop", &if_in_loop, vec![Inputs::new()]),
        ];
        for (name, p, inputs) in cases {
            let cls = classify(p, l1(), l1());
            let d = validate_classification(p, &inputs, &cls).unwrap();
            assert!(d.is_empty(), "{name}: {d}");
        }
    }

    /// The walk checks the pairing of trace and path record, it does not
    /// trust it: one run's trace along another run's path falls out of sync.
    #[test]
    #[should_panic(expected = "site walk out of sync")]
    fn site_walk_rejects_another_runs_path() {
        let (p, x) = countdown_program();
        let short = execute(&p, &Inputs::new().with_var(x, 3)).unwrap();
        let long = execute(&p, &Inputs::new().with_var(x, 5)).unwrap();
        let mixed = Run {
            path: long.path,
            ..short
        };
        SiteWalk::run(&build_sites(&p), &mixed);
    }

    #[test]
    fn codes_and_display() {
        assert_eq!(Classification::AlwaysHit.code(), "AH");
        assert_eq!(Classification::AlwaysMiss.code(), "AM");
        assert_eq!(Classification::FirstMiss(Scope::Program).code(), "FM");
        assert_eq!(Classification::NotClassified.code(), "NC");
        assert_eq!(
            Classification::FirstMiss(Scope::Loop(3)).to_string(),
            "first-miss(loop 3)"
        );
        assert_eq!(SiteLoc::Addr(0x1000).to_string(), "0x1000");
        assert_eq!(
            SiteLoc::Range {
                base: 0x10,
                end: 0x20
            }
            .to_string(),
            "0x10..0x20"
        );
    }
}
