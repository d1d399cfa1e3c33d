//! The read path's dispatcher: one pure machine that the socket master and
//! the simulator both run.
//!
//! [`Dispatcher`] makes every decision a query's sub-requests need: the
//! replica ([`ReplicaPolicy::pick`] over the loads and policy RNG its driver
//! passes in); the per-node credit window a `Busy` advertised, with what it
//! does not admit waiting on the node's ready list; the `Busy` back-off;
//! the retry budget and the verdicts it leaves (`exhausted`, `hard_dead`,
//! `phi_suspect`); when a request hedges and toward which replica; the
//! failover order; hard deadlines; which answer settles a request (the
//! first); and the misses. It reads no clock, socket, thread or RNG
//! (KVS-L001 zone): time is nanoseconds since the query began, and what only
//! a clock can say — phi-accrual suspicion and the latency-quantile hedge
//! delay — reaches it through a [`View`]. Requests are dense ids `0..n`
//! indexing `Vec`s, and every id or node that comes off the wire is
//! bounds-checked. `kvs-net`'s `NetMaster` drives it over sockets and
//! [`crate::sim`] over simulated time (docs/NET.md, "The read dispatcher").

use crate::policy::ReplicaPolicy;
use rand::Rng;
use std::collections::VecDeque;

/// No node, no list entry.
const NONE: u32 = u32::MAX;
/// No timer.
const NEVER: u64 = u64::MAX;

/// The read path's knobs; times in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOptions {
    /// How a replica is picked for each request.
    pub policy: ReplicaPolicy,
    /// How long a sent request waits for an answer; `None`: for ever.
    pub timeout: Option<u64>,
    /// Re-sends to one replica after a timeout before it is `exhausted`.
    pub max_retries: u32,
    /// How long a request refused as `Busy` waits before it is ready again.
    pub busy_backoff: u64,
    /// Each request's completion budget from its issue; `None`: no limit.
    pub deadline: Option<u64>,
    /// A node whose phi exceeds this is not hedged toward.
    pub phi_threshold: f64,
}

/// What the driver measures for the machine, per node.
pub trait View {
    /// The node's phi-accrual suspicion now.
    fn phi(&self, node: u32) -> f64;
    /// How long after its first send a request to `node` hedges; `None`
    /// when hedging is off.
    fn hedge_delay(&self, node: u32) -> Option<u64>;
}

/// A request frame for the driver to put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// The request id.
    pub id: u64,
    /// The replica it goes to.
    pub node: u32,
    /// A duplicate to a second replica, not the request's own leg.
    pub hedge: bool,
}

/// Why a request ended unanswered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// Every replica is dead or out of its retry budget.
    NoReplica,
    /// Its hard deadline passed.
    Deadline,
    /// A slave shed it: its deadline passed before the DB stage.
    Expired,
}

/// The answer that settled a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    /// The frame answered was a hedge (perhaps adopted by a failover).
    pub hedge: bool,
    /// When that frame was sent.
    pub sent: u64,
}

/// The read counters both worlds report, per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounters {
    /// Re-sends after a `Busy`.
    pub busy_retries: u64,
    /// Re-sends to the same replica after a timeout.
    pub timeout_retries: u64,
    /// Requests moved to another replica.
    pub failovers: u64,
    /// Hedges sent.
    pub hedges_sent: u64,
    /// Requests a hedge answered first.
    pub hedges_won: u64,
    /// Over answered requests, first send to last own-leg send, ns.
    pub retry_wait_ns: u64,
}

/// Where a request's own leg is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    Idle,
    /// On its node's ready list, waiting for credit.
    Ready,
    /// On the wire, counted in its node's in-flight.
    Sent {
        retry_at: u64,
    },
    /// Refused with `Busy`: ready again at `retry_at` unless `expires`,
    /// the allowance every `Busy` re-arms, has passed.
    Backoff {
        retry_at: u64,
        expires: u64,
    },
    Settled,
}

impl Leg {
    fn retry_at(self) -> u64 {
        match self {
            Leg::Sent { retry_at } | Leg::Backoff { retry_at, .. } => retry_at,
            _ => NEVER,
        }
    }

    fn open(self) -> bool {
        !matches!(self, Leg::Idle | Leg::Settled)
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    /// Its replicas, primary first, are `replicas[at..at + len]`; its own
    /// leg is on `replicas[at + ix]`.
    at: u32,
    len: u32,
    ix: u32,
    leg: Leg,
    attempts: u32,
    first_sent: u64,
    sent: u64,
    deadline: u64,
    hedge_at: u64,
    /// The node an outstanding hedge waits on.
    hedge: u32,
    hedge_sent: u64,
    /// The own leg is a hedge frame a failover adopted.
    adopted: bool,
    /// The next entry of the ready list it is on.
    next: u32,
}

const IDLE: Req = Req {
    at: 0,
    len: 0,
    ix: 0,
    leg: Leg::Idle,
    attempts: 0,
    first_sent: NEVER,
    sent: 0,
    deadline: NEVER,
    hedge_at: NEVER,
    hedge: NONE,
    hedge_sent: 0,
    adopted: false,
    next: NONE,
};

/// One node as the master sees it: the window and verdicts persist across
/// queries, the rest is the running query's.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The credit window its last `Busy` advertised; 0: unlimited.
    window: usize,
    inflight: usize,
    /// Its ready list, linked through `Req::next`.
    head: u32,
    tail: u32,
    queued: usize,
    /// Its connection is gone.
    hard_dead: bool,
    /// A request ran out of its budget on it; any frame from it clears this.
    exhausted: bool,
    /// Its phi crossed the threshold when a hedge looked at it; any frame
    /// from it clears this.
    phi_suspect: bool,
}

const FRESH: Node = Node {
    window: 0,
    inflight: 0,
    head: NONE,
    tail: NONE,
    queued: 0,
    hard_dead: false,
    exhausted: false,
    phi_suspect: false,
};

/// The read path's decisions, persisting per master; see the module docs.
#[derive(Debug)]
pub struct Dispatcher {
    opts: ReadOptions,
    nodes: Vec<Node>,
    reqs: Vec<Req>,
    replicas: Vec<u32>,
    hedges: VecDeque<Send>,
    misses: VecDeque<(u64, Miss)>,
    /// The node the next send pass looks at first, so nodes take turns.
    cursor: usize,
    queued: usize,
    issued: u64,
    open: usize,
    /// No timer is due before this.
    nearest: u64,
    ctr: ReadCounters,
}

impl Dispatcher {
    /// A dispatcher over `nodes` nodes, none of them heard from.
    pub fn new(nodes: usize, opts: ReadOptions) -> Dispatcher {
        Dispatcher {
            opts,
            nodes: vec![FRESH; nodes],
            reqs: Vec::new(),
            replicas: Vec::new(),
            hedges: VecDeque::new(),
            misses: VecDeque::new(),
            cursor: 0,
            queued: 0,
            issued: 0,
            open: 0,
            nearest: NEVER,
            ctr: ReadCounters::default(),
        }
    }

    /// Starts a query of request ids `0..requests`; windows and verdicts
    /// carry over.
    pub fn begin(&mut self, requests: usize) {
        self.reqs.clear();
        self.reqs.resize(requests, IDLE);
        self.replicas.clear();
        self.hedges.clear();
        self.misses.clear();
        for n in &mut self.nodes {
            (n.inflight, n.head, n.tail, n.queued) = (0, NONE, NONE, 0);
        }
        (self.cursor, self.queued, self.issued, self.open) = (0, 0, 0, 0);
        self.nearest = NEVER;
        self.ctr = ReadCounters::default();
    }

    /// The query's counters so far.
    pub fn counters(&self) -> ReadCounters {
        self.ctr
    }

    /// Requests issued and not yet settled.
    pub fn open(&self) -> usize {
        self.open
    }

    /// No timer is due before this; `None`: none is armed.
    pub fn next_deadline(&self) -> Option<u64> {
        (self.nearest != NEVER).then_some(self.nearest)
    }

    /// Requests on the wire to `node` or waiting for its credit.
    pub fn load(&self, node: u32) -> usize {
        self.nodes
            .get(node as usize)
            .map_or(0, |n| n.inflight + n.queued)
    }

    /// The hard verdicts: `node` cannot answer (no connection, or no such
    /// node) or demonstrably did not (it exhausted a budget).
    pub fn hard_suspect(&self, node: u32) -> bool {
        self.nodes
            .get(node as usize)
            .is_none_or(|n| n.hard_dead || n.exhausted)
    }

    /// Nodes under any verdict, ascending.
    pub fn suspects(&self) -> Vec<u32> {
        let suspect = |n: &Node| n.hard_dead || n.exhausted || n.phi_suspect;
        (0..self.nodes.len() as u32)
            .filter(|&i| suspect(&self.nodes[i as usize]))
            .collect()
    }

    /// A frame came from `node`: it lives, so the soft verdicts go.
    pub fn heard(&mut self, node: u32) {
        if let Some(n) = self.nodes.get_mut(node as usize) {
            (n.exhausted, n.phi_suspect) = (false, false);
        }
    }

    /// `node` is a new process: what the old one advertised, and every
    /// verdict on it, no longer count.
    pub fn revive(&mut self, node: u32) {
        if let Some(n) = self.nodes.get_mut(node as usize) {
            *n = FRESH;
        }
    }

    /// Issues request `id` at `now` over `replicas` (primary first): the
    /// policy picks with `loads` (one per replica) and `rng`, and a pick
    /// under a hard verdict fails over at once.
    pub fn issue<R: Rng + ?Sized>(
        &mut self,
        id: u64,
        replicas: &[u32],
        loads: &[usize],
        now: u64,
        rng: &mut R,
        view: &impl View,
    ) {
        if self.req(id).is_none_or(|r| r.leg != Leg::Idle) {
            return;
        }
        self.open += 1;
        if replicas.is_empty() {
            return self.settle(id as usize, Some(Miss::NoReplica));
        }
        let ix = self
            .opts
            .policy
            .pick(replicas.len(), loads, self.issued, rng);
        self.issued += 1;
        if self.replicas.is_empty() {
            self.replicas.reserve(self.reqs.len() * replicas.len());
        }
        let deadline = self.opts.deadline.map_or(NEVER, |d| now.saturating_add(d));
        self.reqs[id as usize] = Req {
            at: self.replicas.len() as u32,
            len: replicas.len() as u32,
            ix: ix as u32,
            attempts: 1,
            deadline,
            ..IDLE
        };
        self.replicas.extend_from_slice(replicas);
        self.arm(deadline);
        self.enqueue(id as usize, view);
    }

    /// The next frame to send at `now`: a hedge, or else the oldest ready
    /// request of the next node in turn that has credit.
    pub fn next_send(&mut self, now: u64, view: &impl View) -> Option<Send> {
        while let Some(s) = self.hedges.pop_front() {
            let r = &self.reqs[s.id as usize];
            // A failover may adopt a hedge before it went out; it goes out
            // now, as the request's own leg.
            let adopted =
                r.adopted && matches!(r.leg, Leg::Sent { .. }) && self.primary(r) == s.node;
            if r.hedge == s.node || adopted {
                return Some(s);
            }
        }
        let count = self.nodes.len();
        for step in 0..count {
            if self.queued == 0 {
                return None;
            }
            let node = (self.cursor + step) % count;
            if let Some(i) = self.ready_front(node) {
                if !self.has_credit(node as u32) {
                    continue;
                }
                self.unlink_front(node);
                self.cursor = node + 1;
                return Some(self.put_on_wire(i, node as u32, now, view));
            }
        }
        None
    }

    /// The next request that ended unanswered, and why.
    pub fn next_miss(&mut self) -> Option<(u64, Miss)> {
        self.misses.pop_front()
    }

    /// Whether an answer from `node` would settle `id`: it is open, and
    /// `node` holds one of its replicas.
    pub fn accepts(&self, id: u64, node: u32) -> bool {
        self.req(id)
            .is_some_and(|r| r.leg.open() && self.replicas_of(r).contains(&node))
    }

    /// `node` answered `id`. The first answer [`Dispatcher::accepts`]
    /// settles the request and cancels whatever else of it is on the wire;
    /// any other is dropped.
    pub fn answer(&mut self, id: u64, node: u32) -> Option<Done> {
        self.heard(node);
        if !self.accepts(id, node) {
            return None;
        }
        let r = self.reqs[id as usize];
        let hedge = r.hedge == node || (r.adopted && self.primary(&r) == node);
        let sent = if r.hedge == node {
            r.hedge_sent
        } else {
            r.sent
        };
        self.ctr.hedges_won += hedge as u64;
        self.ctr.retry_wait_ns += r.sent.saturating_sub(r.first_sent);
        self.settle(id as usize, None);
        Some(Done { hedge, sent })
    }

    /// `node` refused `id` as `Busy` at `now`, advertising a work queue of
    /// `window` (0: none).
    pub fn busy(&mut self, id: u64, node: u32, window: usize, now: u64) {
        let Some(n) = self.nodes.get_mut(node as usize) else {
            return;
        };
        if window != 0 {
            // From here on the node gets no more than its queue holds in
            // flight; `Busy` is left for what the window cannot see.
            n.window = window;
        }
        self.heard(node);
        let Some(&r) = self.req(id).filter(|r| r.leg.open()) else {
            return;
        };
        if r.hedge == node {
            // The hedge's replica is saturated: hedging there buys nothing.
            self.reqs[id as usize].hedge = NONE;
            self.release(node);
        } else if self.primary(&r) == node && matches!(r.leg, Leg::Sent { .. }) {
            // Busy is flow control, never a failure: the request leaves the
            // wire and is ready again after the back-off without spending
            // its retry budget. The slave demonstrably lives, so this
            // re-arms the request's allowance of `timeout × (max_retries +
            // 1)` (pinned end to end by crates/net/tests/busy_budget.rs).
            self.release(node);
            let allowance = self
                .opts
                .timeout
                .map(|t| t * (self.opts.max_retries as u64 + 1));
            let retry_at = now.saturating_add(self.opts.busy_backoff);
            let expires = allowance.map_or(NEVER, |a| now.saturating_add(a));
            self.reqs[id as usize].leg = Leg::Backoff { retry_at, expires };
            self.arm(retry_at);
        }
    }

    /// A slave shed `id`: its deadline passed before service.
    pub fn expired(&mut self, id: u64) {
        if self.req(id).is_some_and(|r| r.leg.open()) {
            self.settle(id as usize, Some(Miss::Expired));
        }
    }

    /// `node`'s connection is gone: its hedges are lost and every request
    /// on it fails over now.
    pub fn down(&mut self, node: u32, view: &impl View) {
        let Some(n) = self.nodes.get_mut(node as usize) else {
            return;
        };
        n.hard_dead = true;
        self.queued -= std::mem::replace(&mut n.queued, 0);
        (n.head, n.tail) = (NONE, NONE);
        for i in 0..self.reqs.len() {
            let r = self.reqs[i];
            if !r.leg.open() {
                continue;
            }
            if r.hedge == node {
                self.reqs[i].hedge = NONE;
                self.release(node);
            }
            if self.primary(&r) == node {
                self.unsend(i);
                self.fail_over(i, view);
            }
        }
    }

    /// Every open request ends unanswered: the driver lost every
    /// connection.
    pub fn abandon(&mut self) {
        for i in 0..self.reqs.len() {
            if self.reqs[i].leg.open() {
                self.settle(i, Some(Miss::NoReplica));
            }
        }
    }

    /// Runs the timers due at `now`: hard deadlines, hedges, re-sends.
    pub fn poll(&mut self, now: u64, view: &impl View) {
        if self.nearest > now {
            return;
        }
        self.nearest = NEVER;
        for i in 0..self.reqs.len() {
            let r = self.reqs[i];
            if !r.leg.open() {
                continue;
            }
            if r.deadline <= now {
                self.settle(i, Some(Miss::Deadline));
                continue;
            }
            if r.hedge_at <= now {
                self.hedge(i, now, view);
            }
            if r.leg.retry_at() <= now {
                self.retry(i, now, view);
            }
            let r = self.reqs[i];
            if r.leg.open() {
                self.arm(r.deadline.min(r.hedge_at).min(r.leg.retry_at()));
            }
        }
    }

    fn req(&self, id: u64) -> Option<&Req> {
        self.reqs.get(usize::try_from(id).ok()?)
    }

    fn replicas_of(&self, r: &Req) -> &[u32] {
        &self.replicas[r.at as usize..(r.at + r.len) as usize]
    }

    fn primary(&self, r: &Req) -> u32 {
        self.replicas[(r.at + r.ix) as usize]
    }

    fn arm(&mut self, at: u64) {
        self.nearest = self.nearest.min(at);
    }

    fn has_credit(&self, node: u32) -> bool {
        let n = &self.nodes[node as usize];
        n.window == 0 || n.inflight < n.window
    }

    fn release(&mut self, node: u32) {
        let n = &mut self.nodes[node as usize];
        n.inflight = n.inflight.saturating_sub(1);
    }

    /// Request `i`'s own leg leaves the wire, if it is on it: its node
    /// gets the credit back, and the request waits to be placed again.
    fn unsend(&mut self, i: usize) {
        let r = self.reqs[i];
        if let Leg::Sent { .. } = r.leg {
            self.release(self.primary(&r));
            self.reqs[i].leg = Leg::Ready;
        }
    }

    fn settle(&mut self, i: usize, miss: Option<Miss>) {
        self.unsend(i);
        let r = self.reqs[i];
        if r.hedge != NONE {
            self.release(r.hedge);
        }
        (self.reqs[i].leg, self.reqs[i].hedge) = (Leg::Settled, NONE);
        self.open -= 1;
        if let Some(why) = miss {
            self.misses.push_back((i as u64, why));
        }
    }

    /// Puts request `i` on its replica's ready list, or fails it over if
    /// a hard verdict stands against that replica.
    fn enqueue(&mut self, i: usize, view: &impl View) {
        let node = self.primary(&self.reqs[i]);
        if self.hard_suspect(node) {
            return self.fail_over(i, view);
        }
        (self.reqs[i].leg, self.reqs[i].next) = (Leg::Ready, NONE);
        let n = &mut self.nodes[node as usize];
        match n.tail {
            NONE => n.head = i as u32,
            tail => self.reqs[tail as usize].next = i as u32,
        }
        n.tail = i as u32;
        n.queued += 1;
        self.queued += 1;
    }

    /// The oldest request still ready on `node`'s list; entries settled
    /// while they waited are dropped on the way.
    fn ready_front(&mut self, node: usize) -> Option<usize> {
        loop {
            let head = self.nodes[node].head;
            if head == NONE || self.reqs[head as usize].leg == Leg::Ready {
                return (head != NONE).then_some(head as usize);
            }
            self.unlink_front(node);
        }
    }

    fn unlink_front(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        n.head = self.reqs[n.head as usize].next;
        if n.head == NONE {
            n.tail = NONE;
        }
        n.queued -= 1;
        self.queued -= 1;
    }

    fn put_on_wire(&mut self, i: usize, node: u32, now: u64, view: &impl View) -> Send {
        let r = &mut self.reqs[i];
        let retry_at = self.opts.timeout.map_or(NEVER, |t| now.saturating_add(t));
        (r.leg, r.sent, r.adopted) = (Leg::Sent { retry_at }, now, false);
        if r.first_sent == NEVER {
            r.first_sent = now;
            if let (true, Some(delay)) = (r.len > 1, view.hedge_delay(node)) {
                r.hedge_at = now.saturating_add(delay);
            }
        }
        let hedge_at = r.hedge_at;
        self.nodes[node as usize].inflight += 1;
        self.arm(retry_at.min(hedge_at));
        Send {
            id: i as u64,
            node,
            hedge: false,
        }
    }

    /// The least suspect of request `i`'s other replicas that `usable`
    /// admits: hard verdicts exclude, phi (counted only while the node has
    /// requests outstanding: an idle node is silent because nothing was
    /// asked of it) orders, ring order breaks ties.
    fn least_suspect(
        &mut self,
        i: usize,
        view: &impl View,
        mut usable: impl FnMut(&mut Node, f64) -> bool,
    ) -> Option<u32> {
        let r = self.reqs[i];
        let own = self.primary(&r);
        let mut best: Option<(u32, f64)> = None;
        for step in 1..r.len {
            let ix = (r.ix + step) % r.len;
            let node = self.replicas[(r.at + ix) as usize];
            if node == own || self.hard_suspect(node) {
                continue;
            }
            let n = &mut self.nodes[node as usize];
            let phi = if n.inflight > 0 { view.phi(node) } else { 0.0 };
            if usable(n, phi) && best.is_none_or(|(_, b)| phi < b) {
                best = Some((ix, phi));
            }
        }
        best.map(|(ix, _)| ix)
    }

    /// Moves request `i` to its least suspect other replica, or settles it
    /// as a miss when none is left. A replica its hedge already waits on
    /// adopts the hedge instead of being sent the request again.
    fn fail_over(&mut self, i: usize, view: &impl View) {
        let Some(ix) = self.least_suspect(i, view, |_, _| true) else {
            return self.settle(i, Some(Miss::NoReplica));
        };
        self.ctr.failovers += 1;
        let r = &mut self.reqs[i];
        (r.ix, r.attempts) = (ix, 1);
        if r.hedge == self.replicas[(r.at + ix) as usize] {
            let retry_at = self
                .opts
                .timeout
                .map_or(NEVER, |t| r.hedge_sent.saturating_add(t));
            (r.leg, r.sent, r.hedge, r.adopted) =
                (Leg::Sent { retry_at }, r.hedge_sent, NONE, true);
            self.arm(retry_at);
        } else {
            self.enqueue(i, view);
        }
    }

    /// Request `i`'s hedge timer came: duplicate it to the least suspect
    /// other replica with credit, unless each is under a verdict or past
    /// the phi threshold — hedging toward a dying node doubles the damage.
    fn hedge(&mut self, i: usize, now: u64, view: &impl View) {
        self.reqs[i].hedge_at = NEVER;
        if self.reqs[i].hedge != NONE {
            return;
        }
        let threshold = self.opts.phi_threshold;
        let target = self.least_suspect(i, view, |n, phi| {
            n.phi_suspect |= phi > threshold;
            phi <= threshold && (n.window == 0 || n.inflight < n.window)
        });
        if let Some(ix) = target {
            let r = &mut self.reqs[i];
            let node = self.replicas[(r.at + ix) as usize];
            (r.hedge, r.hedge_sent) = (node, now);
            self.nodes[node as usize].inflight += 1;
            self.ctr.hedges_sent += 1;
            self.hedges.push_back(Send {
                id: i as u64,
                node,
                hedge: true,
            });
        }
    }

    /// Request `i`'s re-send timer came. After a `Busy` it is ready again
    /// unless its allowance ran out; after a timeout it re-sends to the
    /// same replica within the retry budget. Out of either, the replica is
    /// `exhausted` and the request fails over.
    fn retry(&mut self, i: usize, now: u64, view: &impl View) {
        let r = self.reqs[i];
        let node = self.primary(&r);
        let exhausted = match r.leg {
            Leg::Backoff { expires, .. } => now >= expires,
            _ => {
                self.unsend(i);
                r.attempts > self.opts.max_retries
            }
        };
        if exhausted {
            self.exhaust(node, view);
            return self.fail_over(i, view);
        }
        if let Leg::Backoff { .. } = r.leg {
            self.ctr.busy_retries += 1;
        } else {
            self.ctr.timeout_retries += 1;
            self.reqs[i].attempts += 1;
        }
        self.enqueue(i, view);
    }

    /// `node` ran a request out of its budget: what waits on its list
    /// fails over.
    fn exhaust(&mut self, node: u32, view: &impl View) {
        let n = &mut self.nodes[node as usize];
        n.exhausted = true;
        let mut at = std::mem::replace(&mut n.head, NONE);
        n.tail = NONE;
        self.queued -= std::mem::replace(&mut n.queued, 0);
        while at != NONE {
            let i = at as usize;
            at = self.reqs[i].next;
            if self.reqs[i].leg == Leg::Ready {
                self.fail_over(i, view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MS: u64 = 1_000_000;

    /// No suspicion anywhere, and a fixed hedge delay or none.
    struct Fixed(Option<u64>);

    impl View for Fixed {
        fn phi(&self, _: u32) -> f64 {
            0.0
        }

        fn hedge_delay(&self, _: u32) -> Option<u64> {
            self.0
        }
    }

    fn options() -> ReadOptions {
        ReadOptions {
            policy: ReplicaPolicy::Primary,
            timeout: Some(2_000 * MS),
            max_retries: 8,
            busy_backoff: MS,
            deadline: None,
            phi_threshold: 8.0,
        }
    }

    fn sends(d: &mut Dispatcher, now: u64, view: &impl View) -> Vec<Send> {
        std::iter::from_fn(|| d.next_send(now, view)).collect()
    }

    fn leg(id: u64, node: u32) -> Send {
        Send {
            id,
            node,
            hedge: false,
        }
    }

    #[test]
    fn routes_waiting_for_credit_obey_the_query_deadline() {
        // One node behind a window of 2 that answers a frame every 5 ms,
        // and a 60 ms budget for 80 routes: most still wait for credit
        // when the budget runs out, and end as misses without being sent.
        let (view, mut rng) = (Fixed(None), StdRng::seed_from_u64(1));
        let opts = ReadOptions {
            deadline: Some(60 * MS),
            ..options()
        };
        let mut d = Dispatcher::new(1, opts);
        // A first query learns the window from a `Busy`.
        d.begin(1);
        d.issue(0, &[0], &[], 0, &mut rng, &view);
        assert_eq!(sends(&mut d, 0, &view), [leg(0, 0)]);
        d.busy(0, 0, 2, 0);

        d.begin(80);
        for id in 0..80 {
            d.issue(id, &[0], &[], 0, &mut rng, &view);
        }
        let (mut wire, mut sent, mut answered, mut missed) = (VecDeque::new(), 0u32, 0u32, 0u32);
        for tick in 0..=12u64 {
            let now = tick * 5 * MS;
            d.poll(now, &view);
            while let Some((_, why)) = d.next_miss() {
                assert_eq!((why, now), (Miss::Deadline, 60 * MS));
                missed += 1;
            }
            if tick > 0 {
                if let Some(id) = wire.pop_front() {
                    answered += d.answer(id, 0).is_some() as u32;
                }
            }
            for s in sends(&mut d, now, &view) {
                wire.push_back(s.id);
                sent += 1;
                assert!(
                    sent <= answered + 2,
                    "{sent} frames out for {answered} answers"
                );
            }
        }
        assert_eq!((answered, missed), (11, 69));
        assert!(sent < 80, "{sent} frames for 80 routes");
        assert_eq!(d.open(), 0);
    }

    #[test]
    fn a_failover_onto_the_hedge_node_adopts_the_hedge() {
        // rf 3: the hedge goes to node 1 at 2 ms; at 10 ms the primary is
        // out of retries and the request fails over to node 1, where the
        // hedge already waits.
        let (view, mut rng) = (Fixed(Some(2 * MS)), StdRng::seed_from_u64(1));
        let opts = ReadOptions {
            timeout: Some(10 * MS),
            max_retries: 0,
            ..options()
        };
        let mut d = Dispatcher::new(3, opts);
        d.begin(1);
        d.issue(0, &[0, 1, 2], &[], 0, &mut rng, &view);
        assert_eq!(sends(&mut d, 0, &view), [leg(0, 0)]);
        d.poll(2 * MS, &view);
        let hedge = Send {
            id: 0,
            node: 1,
            hedge: true,
        };
        assert_eq!(sends(&mut d, 2 * MS, &view), [hedge]);
        d.poll(10 * MS, &view);
        assert!(d.hard_suspect(0), "the primary spent its budget");
        assert!(
            sends(&mut d, 10 * MS, &view).is_empty(),
            "node 1 sent it twice"
        );
        // The answer is traced from the frame it answers: the hedge's.
        let done = Done {
            hedge: true,
            sent: 2 * MS,
        };
        assert_eq!(d.answer(0, 1), Some(done));
        let c = d.counters();
        assert_eq!((c.failovers, c.hedges_sent, c.hedges_won), (1, 1, 1));
    }

    #[test]
    fn busy_is_flow_control_never_a_failure() {
        // Fifteen refusals 20 ms apart outlast the 160 ms allowance armed
        // at the first send: each re-arms it, and none spends the budget.
        let (view, mut rng) = (Fixed(None), StdRng::seed_from_u64(1));
        let opts = ReadOptions {
            timeout: Some(80 * MS),
            max_retries: 1,
            busy_backoff: 20 * MS,
            ..options()
        };
        let mut d = Dispatcher::new(1, opts);
        d.begin(1);
        d.issue(0, &[0], &[], 0, &mut rng, &view);
        let mut now = 0;
        for _ in 0..15 {
            assert_eq!(sends(&mut d, now, &view), [leg(0, 0)]);
            d.busy(0, 0, 0, now);
            now += 20 * MS;
            d.poll(now, &view);
        }
        assert_eq!(sends(&mut d, now, &view), [leg(0, 0)]);
        assert!(d.answer(0, 0).is_some());
        let c = d.counters();
        assert_eq!((c.busy_retries, c.timeout_retries, c.failovers), (15, 0, 0));
        assert_eq!(c.retry_wait_ns, 300 * MS);
        assert!(d.suspects().is_empty());
    }

    #[test]
    fn a_dropped_connection_fails_its_requests_over_at_once() {
        let (view, mut rng) = (Fixed(None), StdRng::seed_from_u64(1));
        let mut d = Dispatcher::new(2, options());
        d.begin(3);
        for id in 0..3 {
            d.issue(id, &[0, 1], &[], 0, &mut rng, &view);
        }
        assert_eq!(sends(&mut d, 0, &view), [leg(0, 0), leg(1, 0), leg(2, 0)]);
        d.down(0, &view);
        assert_eq!(sends(&mut d, MS, &view), [leg(0, 1), leg(1, 1), leg(2, 1)]);
        assert_eq!((d.counters().failovers, d.suspects()), (3, vec![0]));
    }
}
