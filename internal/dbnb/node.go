package dbnb

import (
	"math/rand"

	"gossipbnb/internal/code"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// inMsg is a queued incoming message (the paper's processes check pending
// messages only after finishing the current subproblem). at is the virtual
// arrival time — the sort key that makes sharded batch handling canonical.
type inMsg struct {
	from sim.NodeID
	at   float64
	msg  protocol.Msg
}

// node drives one protocol.Core under the virtual-time simulator: one
// instance's execution context on one process. The split of responsibilities
// is strict: every protocol decision — what to expand, when to report, whom to
// probe, when to presume work lost — lives in the shared core; the node owns
// only what the simulated substrate defines: busy periods charged via the
// kernel, timers, modeled CPU costs, metrics and trace accounting, idle spans,
// and crash delivery. A single-instance run is instance 0, whose messages go
// out untagged; a multi-instance run gives every (process, instance) pair its
// own node behind the process's instance.Mux.
type node struct {
	id   sim.NodeID
	h    *harness
	sh   *shardCtx   // owner shard: the kernel/network/accounting this node lives on
	k    *sim.Kernel // == sh.k, the node's scheduling clock
	sp   *spec       // the instance this context solves
	rec  *rec        // the owner shard's record for sp
	core *protocol.Core
	exp  protocol.Expander // this process's own code resolver
	// entry is the node's mux entry in multi-instance runs (nil otherwise):
	// its Core follows restarts, and termination reaps it.
	entry *instance.Entry

	// rng drives every stochastic choice this process makes (timer stagger,
	// report fanout targets, recovery jitter). Legacy mode aliases the
	// single kernel's global stream — the pre-sharding draw order, byte for
	// byte. Every other mode derives an independent stream from (seed,
	// instance, id), so a process's decisions do not depend on how processes
	// are sharded — the root of the shard-count invariance property.
	rng *rand.Rand

	// started marks activation: instance 0 is active from boot, a
	// multi-instance context from its instance's submission time.
	started    bool
	busy       bool
	crashed    bool
	done       bool // observed the core's termination detection
	detectedAt float64
	inbox      []inMsg
	// wake marks a pending same-time wake event (sharded mode). Deliveries
	// there never process the inbox directly: the first arrival at a virtual
	// instant schedules a wake at that same instant, which — because every
	// simultaneous delivery is already in the kernel queue by then (the
	// latency floor is at least the mesh lookahead) — fires after the WHOLE
	// same-time batch has landed, so the batch can be handled in canonical
	// order no matter which shards the senders ran on.
	wake bool

	// incarn is the crash-restart incarnation: every busy-period and pacing
	// callback captures it at schedule time and aborts if the node has been
	// reborn since — a pre-crash expansion finishing after the restart must
	// not leak the dead incarnation's state into the fresh core.
	incarn    int
	crashedAt float64
	// cntPrior accumulates dead incarnations' protocol counters, so the
	// experiment tables count messages a crashed process really sent.
	cntPrior protocol.Counters

	reqWaiting bool // pacing delay between failed load-balancing attempts
	reqTimer   sim.Event
	// reportTimer and tableTimer are the pending periodic ticks, cancelled at
	// crash so a restart can restagger fresh chains without doubling them.
	reportTimer sim.Event
	tableTimer  sim.Event

	// Pre-bound callbacks, created once per node: scheduling through them
	// (plus AfterArg's incarnation argument) costs zero allocations per
	// event, where a per-schedule closure or method value would allocate.
	// The busy-period callbacks read their inputs from the pend* fields
	// below — safe because the busy flag admits at most one outstanding
	// busy period per incarnation, and a stale fire from a dead incarnation
	// bails on the incarnation check before touching them.
	reportTickFn  func()
	tableTickFn   func()
	wakeFn        func()
	expandDoneFn  func(int)
	drainDoneFn   func(int)
	recoverDoneFn func(int)
	paceDoneFn    func(int)
	reqTimeoutFn  func(int)

	pendItem     protocol.Item // expansion in flight
	pendStart    float64       // busy-period start (expand/drain/recover)
	pendComm     float64       // drain: modeled communication cost
	pendContract float64       // drain: modeled contraction cost
	pendPlan     []code.Code   // recovery plan awaiting adoption

	tableOps  int     // sampling counter for storage observation
	idleStart float64 // <0 when not idle
	met       *metrics.Node

	// peersCache is the cached membership view (every process but this one).
	// Without joins the view never changes and this is built once —
	// rebuilding it on every core decision is O(procs), ruinous at the
	// 1000-process stress tier. Elastic runs rebuild it only when the
	// scheduled member count moves past a join epoch; viewSize is the epoch
	// (member count) the cache was built for, 0 = unbuilt.
	peersCache []protocol.NodeID
	viewSize   int

	// bootTimer is a late joiner's pending bootstrap pull (cancelled at
	// crash like the periodic chains).
	bootTimer  sim.Event
	bootTickFn func()
}

// nodeSender transmits the core's canonical messages over the simulated
// network, charging each send's modeled CPU overhead to the activity it
// serves. Event counts (reports, tables, requests, work sent) are NOT
// tallied here — the core counts them at protocol level (so e.g. the
// termination broadcast is not a "work report" in the experiment tables)
// and the result fold copies them into the metrics.
type nodeSender struct{ n *node }

func (s nodeSender) Send(to protocol.NodeID, m protocol.Msg) {
	n := s.n
	n.sh.nw.Send(n.id, sim.NodeID(to), n.wire(m))
	over := n.h.cfg.CommOverhead
	switch m.(type) {
	case protocol.Report, protocol.TableMsg,
		protocol.DigestReport, protocol.SubtreeRequest, protocol.SubtreeReply:
		n.met.Add(metrics.Comm, over)
	case protocol.WorkRequest, protocol.WorkGrant, protocol.WorkDeny:
		n.met.Add(metrics.LB, over)
	}
}

// wire tags a message with the node's instance. Instance 0 goes out
// untagged, so single-instance runs speak the legacy wire format, as in live.
func (n *node) wire(m protocol.Msg) sim.Message {
	if n.sp.id == 0 {
		return m
	}
	return protocol.InstMsg{Instance: n.sp.id, Msg: m}
}

// Broadcast implements protocol.BroadcastSender for the termination
// broadcast of §5.4. Without a mesh it loops Send — exactly what the core
// would do with a plain Sender. Mesh runs route the fan-out through the
// ring-range group path: the static peer view IS the ring minus the sender,
// so the procs² broadcast collapses to one group delivery per destination
// shard instead of procs² pending events.
func (s nodeSender) Broadcast(peers []protocol.NodeID, m protocol.Msg) {
	n := s.n
	if n.h.mesh == nil || n.h.elastic {
		// No mesh (a standalone network has no ring path), and elastic views
		// on any kernel: the ring-range fast path below walks a window of the
		// full static ring, which is wrong the moment the live member set is
		// a prefix of the identity space.
		for _, p := range peers {
			s.Send(p, m)
		}
		return
	}
	n.sh.nw.BroadcastRange(n.id, int(n.id)+1, len(peers), n.wire(m))
	over := n.h.cfg.CommOverhead * float64(len(peers))
	switch m.(type) {
	case protocol.Report, protocol.TableMsg:
		n.met.Add(metrics.Comm, over)
	default:
		n.met.Add(metrics.LB, over)
	}
}

func newNode(id sim.NodeID, h *harness, sh *shardCtx, sp *spec) *node {
	n := &node{id: id, h: h, sh: sh, k: sh.k, sp: sp, rec: &sh.recs[sp.idx],
		exp: sp.w.newExpander(), started: sp.id == 0, idleStart: -1, met: &sp.met.Nodes[id]}
	if sh.legacy {
		n.rng = sh.k.Rand()
	} else {
		n.rng = rand.New(rand.NewSource(sp.rngSeed(h.cfg.Seed, int(id))))
		if !h.elastic {
			// The static peer view is a window into the shared doubled ring:
			// every process but this one, O(1) extra memory per node where
			// the legacy per-node cache is O(procs). Elastic views are
			// epoch-built lazily instead — the window arithmetic assumes
			// full membership.
			n.peersCache = h.ring[int(id)+1 : int(id)+h.cfg.Procs]
		}
	}
	n.reportTickFn = n.reportTick
	n.tableTickFn = n.tableTick
	n.bootTickFn = n.bootstrapTick
	n.wakeFn = n.wakeup
	n.expandDoneFn = n.expandDone
	n.drainDoneFn = n.drainDone
	n.recoverDoneFn = n.recoverDone
	n.paceDoneFn = n.paceDone
	n.reqTimeoutFn = n.reqTimeout
	n.initCore()
	return n
}

// initCore builds a fresh protocol core over the node's current expander —
// at construction and again at every crash-restart (a rebooted process keeps
// nothing but its identity and the initial problem data).
func (n *node) initCore() {
	h := n.h
	cfg := &h.cfg
	n.core = protocol.New(protocol.NodeID(n.id), protocol.Config{
		Select:           cfg.Select,
		Prune:            cfg.Prune,
		ReportBatch:      cfg.ReportBatch,
		ReportFanout:     cfg.ReportFanout,
		ReportTimeout:    cfg.ReportTimeout,
		AdaptiveReports:  cfg.AdaptiveReports,
		MinPoolToShare:   cfg.MinPoolToShare,
		MaxShare:         cfg.MaxShare,
		RecoveryPatience: cfg.RecoveryPatience,
		RecoveryQuiet:    cfg.RecoveryQuiet,
		DisableRecovery:  cfg.DisableRecovery,
		DiffGossip:       cfg.DiffGossip,
	}, protocol.Deps{
		Clock:         n.k,
		Sender:        nodeSender{n},
		Expander:      n.exp,
		Peers:         n.peerView,
		Rand:          func(m int) int { return n.rng.Intn(m) },
		RandFloat:     func() float64 { return n.rng.Float64() },
		OnComplete:    n.noteCompletion,
		OnTableChange: n.observeTable,
	})
	if n.entry != nil {
		n.entry.Core = n.core
	}
}

// peerView adapts the harness's membership view to protocol identifiers. The
// core reads the returned slice without retaining or mutating it, so the
// static (no-membership) view is cached: legacy mode builds the original
// ascending-order per-node cache lazily (bit-identical runs); sharded mode
// pre-assigned a window of the shared ring at construction.
func (n *node) peerView() []protocol.NodeID {
	if !n.h.cfg.UseMembership {
		if n.h.elastic {
			// Predetermined elastic pool: the view is every process scheduled
			// to exist at this node's current clock. The cache is rebuilt
			// only when the clock crosses a join epoch, so between epochs the
			// view read stays O(1) and allocation-free.
			if m := n.h.memberCountAt(n.k.Now()); m != n.viewSize {
				n.peersCache = n.peersCache[:0]
				for i := 0; i < m; i++ {
					if sim.NodeID(i) != n.id {
						n.peersCache = append(n.peersCache, protocol.NodeID(i))
					}
				}
				n.viewSize = m
			}
			return n.peersCache
		}
		if n.peersCache == nil {
			n.peersCache = make([]protocol.NodeID, 0, len(n.h.nodes)-1)
			for i := range n.h.nodes {
				if sim.NodeID(i) != n.id {
					n.peersCache = append(n.peersCache, protocol.NodeID(i))
				}
			}
		}
		return n.peersCache
	}
	peers := n.h.view(n.id)
	out := make([]protocol.NodeID, len(peers))
	for i, p := range peers {
		out[i] = protocol.NodeID(p)
	}
	return out
}

// dead reports whether the node should do nothing further.
func (n *node) dead() bool { return n.crashed || n.done }

// --- the main loop ----------------------------------------------------------

// loop is invoked whenever the node becomes free: after a work unit, after
// processing messages, after a timer. The core decides the next activity;
// the loop charges its cost.
func (n *node) loop() {
	if !n.started || n.busy || n.crashed {
		return
	}
	if len(n.inbox) > 0 {
		n.drainInbox()
		return
	}
	if n.done {
		return
	}
	it, st := n.core.Next()
	switch st {
	case protocol.Expand:
		n.endIdle()
		n.expand(it)
	case protocol.Terminated:
		n.onTerminated()
	case protocol.Starved:
		// Out of work: dynamic load balancing, then (if it keeps failing)
		// failure recovery.
		n.beginIdle()
		n.requestWork()
	}
}

// expand pays the workload's modeled node cost, then reports the branching
// outcome the expander computes to the core. The in-flight item rides in
// pendItem/pendStart rather than a capture closure — the busy flag admits
// only one expansion per incarnation, and expandDone discards stale fires
// from dead incarnations before reading them.
func (n *node) expand(it protocol.Item) {
	cost := n.sp.w.costOf(it) * n.h.cfg.CostFactor
	n.busy = true
	n.pendItem = it
	n.pendStart = n.k.Now()
	n.k.AfterArg(cost, n.expandDoneFn, n.incarn)
}

func (n *node) expandDone(gen int) {
	if n.incarn != gen {
		return // the node was reborn; this expansion died with its incarnation
	}
	n.busy = false
	if n.crashed {
		return
	}
	it, start := n.pendItem, n.pendStart
	now := n.k.Now()
	n.met.Add(metrics.BB, now-start)
	n.h.cfg.Trace.Add(int(n.id), trace.Compute, start, now)
	n.met.Expanded++
	n.noteExpansion(it.Code)
	n.core.OnExpanded(it, n.exp.Outcome(it), now-start)
	n.loop()
}

// --- reporting timers ---------------------------------------------------------

// reportTick flushes a stale outbox on the core's (possibly adaptive)
// schedule. The pending event handle is kept so crash can cancel the chain;
// a restart starts a freshly staggered one.
func (n *node) reportTick() {
	if n.dead() {
		return
	}
	if n.core.ReportOverdue() {
		n.core.FlushReport()
	}
	n.reportTimer = n.k.After(n.h.cfg.ReportTimeout, n.reportTickFn)
}

// startChains staggers the periodic report and table chains so they do not
// synchronize system-wide: at boot, at activation, at a join, and at every
// restart. The handles are kept so a crash can cancel the chains.
func (n *node) startChains() {
	jitter := n.rng.Float64()
	n.reportTimer = n.k.After(jitter*n.h.cfg.ReportTimeout, n.reportTickFn)
	if n.h.cfg.TableInterval > 0 {
		n.tableTimer = n.k.After(jitter*n.h.cfg.TableInterval, n.tableTickFn)
	}
}

// activate brings a multi-instance context up at its instance's submission
// time: fresh activity evidence (a process joining a just-submitted instance
// must not read its empty table as global quiescence), the root seeded at
// the designated process, the periodic chains, and the main loop.
func (n *node) activate() {
	n.started = true
	n.core.NoteRemoteActivity(0)
	if n.sp.seedNode == int(n.id) {
		n.core.Seed(n.exp.Root())
	}
	n.startChains()
	n.loop()
}

// tableTick occasionally pushes the full table to one random member.
func (n *node) tableTick() {
	if n.dead() {
		return
	}
	peers := n.peerView()
	if len(peers) > 0 {
		n.core.SendTable(peers[n.rng.Intn(len(peers))])
	}
	n.tableTimer = n.k.After(n.h.cfg.TableInterval, n.tableTickFn)
}

// bootstrapTick is a late joiner's table-bootstrap chain: while the joiner
// still knows nothing, pull a neighbor's whole completion table through the
// Full-root subtree transfer (the crash-restart rejoin payload), retrying on
// the request-timeout cadence until a reply lands — replies can be lost, and
// under §5.2 membership the first ticks may find the view still empty. The
// chain stops at the first completion learned (after that, ordinary gossip
// converges the table) and never runs for initial processes, so scheduled
// runs without joins are untouched.
func (n *node) bootstrapTick() {
	if n.dead() || n.core.Table().Len() > 0 {
		return
	}
	if peers := n.peerView(); len(peers) > 0 {
		n.core.Bootstrap(peers[n.rng.Intn(len(peers))])
	} else if n.h.cfg.UseMembership && n.id != 0 {
		// View not absorbed yet: pull from the gossip server, the one
		// address a joiner knows before the group knows it. The reply also
		// carries fresh activity evidence, keeping the empty-view joiner
		// from misreading gossip lag as global quiescence.
		n.core.Bootstrap(0)
	}
	n.bootTimer = n.k.After(n.h.cfg.RequestTimeout, n.bootTickFn)
}

// --- load balancing and recovery ---------------------------------------------

// requestWork lets the core run its starvation decision, then arranges the
// substrate side: a timeout for the probe, a pacing delay, or the recovery
// busy period.
func (n *node) requestWork() {
	if n.dead() || n.reqWaiting || n.busy {
		return
	}
	switch n.core.Starve() {
	case protocol.StarveRequested:
		n.reqTimer = n.k.AfterArg(n.h.cfg.RequestTimeout, n.reqTimeoutFn, n.incarn)
	case protocol.StarveRecover:
		n.recover()
	case protocol.StarveWait:
		if !n.core.RequestPending() {
			// Alone inside the quiet window: try again later. (With a
			// request outstanding its timer revives us instead.)
			n.paceRetry()
		}
	}
}

// reqTimeout fires when a work-request answer is overdue; gen is the
// incarnation that issued the request.
func (n *node) reqTimeout(gen int) {
	if n.incarn != gen || n.dead() {
		return
	}
	n.core.RequestFailed()
	n.paceRetry()
}

// paceRetry spaces failed load-balancing attempts RetryDelay apart.
func (n *node) paceRetry() {
	if n.reqWaiting {
		return
	}
	n.reqWaiting = true
	n.k.AfterArg(n.h.cfg.RetryDelay, n.paceDoneFn, n.incarn)
}

func (n *node) paceDone(gen int) {
	if n.incarn != gen {
		return
	}
	n.reqWaiting = false
	if !n.dead() && !n.busy {
		n.loop()
	}
}

// recover charges the table-complement scan as contraction time, then lets
// the core adopt the planned regions (§5.3.2 failure recovery).
func (n *node) recover() {
	if n.h.cfg.DisableRecovery || n.dead() {
		return
	}
	plan := n.core.PlanRecovery()
	if len(plan) == 0 {
		n.loop() // table is complete; loop will detect termination
		return
	}
	scanCost := n.h.cfg.ContractPerCode * float64(n.core.Table().Len()+1)
	n.busy = true
	n.pendPlan = plan
	n.pendStart = n.k.Now()
	n.pendContract = scanCost
	n.endIdle()
	n.k.AfterArg(scanCost, n.recoverDoneFn, n.incarn)
}

func (n *node) recoverDone(gen int) {
	if n.incarn != gen {
		return
	}
	n.busy = false
	if n.crashed {
		return
	}
	plan, start := n.pendPlan, n.pendStart
	n.pendPlan = nil
	n.met.Add(metrics.Contract, n.pendContract)
	n.h.cfg.Trace.Add(int(n.id), trace.Recover, start, n.k.Now())
	n.core.Adopt(plan)
	n.loop()
}

// --- message handling ---------------------------------------------------------

// deliver is the network handler: queue while busy, otherwise process now.
func (n *node) deliver(from sim.NodeID, msg sim.Message) {
	if n.crashed {
		return
	}
	pm, ok := msg.(protocol.Msg)
	if !ok {
		return
	}
	if n.done && !n.sh.legacy {
		// Fast drop at terminated processes (sharded mode): a done node's
		// table is complete, so reports, tables and grants teach it nothing
		// — their merges would all be no-ops — and denials answer requests
		// it no longer has outstanding. Only a WorkRequest still matters: a
		// straggler probing for work needs the root-report answer that tells
		// it the computation is over. This turns the tail of the procs²
		// termination storm from procs² full message handlings into procs²
		// type switches. The legacy path keeps the original handling (the
		// busy-period accounting differs, and legacy runs are pinned
		// bit-identical by the golden tests).
		if _, isReq := pm.(protocol.WorkRequest); !isReq {
			return
		}
	}
	n.inbox = append(n.inbox, inMsg{from: from, at: n.k.Now(), msg: pm})
	if n.sh.legacy {
		if !n.busy {
			n.loop()
		}
		return
	}
	// Sharded mode: defer processing to a wake event at this same virtual
	// instant. Every other delivery at this time is already in the kernel
	// queue (anything a shard fires now can only produce arrivals at least
	// one lookahead in the future, and earlier cross-shard mail was drained
	// at the last barrier), so the wake fires after the full same-time
	// batch — which drainInbox then orders canonically. Processing on the
	// first arrival instead would replay the kernel's tie order, which
	// depends on the shard count.
	if !n.busy && !n.wake {
		n.wake = true
		n.k.After(0, n.wakeFn)
	}
}

// wakeup resumes the loop after the same-time delivery batch has landed.
func (n *node) wakeup() {
	n.wake = false
	if n.busy || n.crashed {
		return
	}
	n.loop()
}

// drainInbox feeds all queued messages to the core, charging their modeled
// CPU cost as one busy period, then resumes the loop.
func (n *node) drainInbox() {
	cfg := &n.h.cfg
	if !n.sh.legacy && len(n.inbox) > 1 {
		// Canonical batch order: (arrival time, sender), stable. Arrival
		// times and per-sender send order are invariant in the shard count;
		// the raw append order is not — it follows kernel tie-breaking,
		// which differs once simultaneous senders live on different shards.
		// The batch is nearly sorted (time-ordered except same-time groups),
		// so a stable insertion sort runs in ~O(n) with zero allocations.
		for i := 1; i < len(n.inbox); i++ {
			m := n.inbox[i]
			j := i - 1
			for j >= 0 && (n.inbox[j].at > m.at || (n.inbox[j].at == m.at && n.inbox[j].from > m.from)) {
				n.inbox[j+1] = n.inbox[j]
				j--
			}
			n.inbox[j+1] = m
		}
	}
	commCost, contractCost, lbCost := 0.0, 0.0, 0.0
	// Handling a message never delivers another one synchronously (sends go
	// through the kernel), so the batch is fixed at entry: walk it by index
	// and reset, reusing the backing array. The previous head-slicing
	// (inbox = inbox[1:]) re-allocated and memmoved the queue constantly —
	// the single largest CPU sink in the 1000-process stress profile.
	for i := 0; i < len(n.inbox); i++ {
		m := n.inbox[i]
		commCost += cfg.CommOverhead
		switch t := m.msg.(type) {
		case protocol.Report:
			contractCost += cfg.ContractPerCode * float64(len(t.Codes))
		case protocol.TableMsg:
			contractCost += cfg.ContractPerCode * float64(len(t.Codes))
		case protocol.DigestReport:
			// Merging the delta plus one digest comparison.
			contractCost += cfg.ContractPerCode * float64(len(t.Codes)+1)
		case protocol.SubtreeRequest:
			// One trie descent to the requested prefix.
			contractCost += cfg.ContractPerCode
		case protocol.SubtreeReply:
			// Merging the pulled subtree frontier (branch replies have no
			// codes and cost the single digest comparison).
			contractCost += cfg.ContractPerCode * float64(len(t.Rel)+1)
		case protocol.WorkGrant:
			lbCost += cfg.CommOverhead * float64(1+len(t.Codes)/8)
		}
		eff := n.core.HandleMessage(protocol.NodeID(m.from), m.msg)
		if eff.Answered {
			n.reqTimer.Cancel()
		}
		if eff.Failed {
			n.paceRetry()
		}
	}
	n.inbox = n.inbox[:0]
	n.met.Add(metrics.LB, lbCost)
	n.busy = true
	n.pendStart = n.k.Now()
	n.pendComm = commCost
	n.pendContract = contractCost
	n.endIdle()
	n.k.AfterArg(commCost+contractCost, n.drainDoneFn, n.incarn)
}

func (n *node) drainDone(gen int) {
	if n.incarn != gen {
		return
	}
	n.busy = false
	if n.crashed {
		return
	}
	commCost, contractCost, start := n.pendComm, n.pendContract, n.pendStart
	n.met.Add(metrics.Comm, commCost)
	n.met.Add(metrics.Contract, contractCost)
	now := n.k.Now()
	if contractCost > 0 {
		n.h.cfg.Trace.Add(int(n.id), trace.Contract, start+commCost, now)
	}
	if commCost > 0 {
		n.h.cfg.Trace.Add(int(n.id), trace.Comm, start, start+commCost)
	}
	n.loop()
}

// noteExpansion tracks redundant work: expansions of tree nodes some process
// already expanded. The key is encoded into the shard's reused scratch
// buffer; the compiler elides the string conversion on lookup, so only
// first-time expansions allocate (their map key). Sharded runs dedup within
// each shard and merge the key sets after the run, so Unique is exact; only
// the per-node Redundant tallies become shard-local approximations there.
func (n *node) noteExpansion(c code.Code) {
	sh := n.sh
	sh.keyBuf = c.EncodeInto(sh.keyBuf)
	if n.rec.expanded[string(sh.keyBuf)] {
		n.met.Redundant++
		return
	}
	n.rec.expanded[string(sh.keyBuf)] = true
}

// noteCompletion maintains the union of completion information; its peak
// wire size is the "one shared copy" baseline against which replicated
// storage is called redundant. Sampled for the same reason as observeTable.
// Sharded runs keep per-shard unions (the metrics sink is shared, so
// mid-run sampling is legacy-only) merged for the final observation.
func (n *node) noteCompletion(c code.Code) {
	r := n.rec
	r.completions++
	r.union.Insert(c)
	r.unionOps++
	if n.sh.legacy && r.unionOps%32 == 0 {
		n.sp.met.ObserveUnique(r.union.WireSize())
	}
}

// observeTable samples the table's wire size for storage accounting.
// Computing the exact size on every mutation would cost O(table) each time,
// so it is sampled every 32 mutations (and at termination).
func (n *node) observeTable() {
	n.tableOps++
	if n.tableOps%32 == 0 {
		n.met.ObserveTable(n.core.Table().WireSize())
	}
}

// --- termination ---------------------------------------------------------------

// onTerminated records the core's termination detection (§5.4): the core
// already broadcast the final root report; the driver settles the books.
// Inside a mux the instance is then reaped from the process: the routing
// tombstone answers straggler work requests, and the core's table arenas
// return to the pool.
func (n *node) onTerminated() {
	n.done = true
	now := n.k.Now()
	n.detectedAt = now
	n.endIdle()
	n.met.ObserveTable(n.core.Table().WireSize())
	n.reqTimer.Cancel()
	r := n.rec
	r.detected++
	if r.detected == 1 || now < r.firstDet {
		r.firstDet = now
	}
	if now > r.lastDet {
		r.lastDet = now
	}
	if n.h.cfg.UseMembership {
		// Leave the group so membership heartbeats quiesce; peers time the
		// process out exactly as they would a failed one (§5.2).
		n.h.members[n.id].Leave()
	}
	if n.entry != nil {
		n.h.muxes[n.id].Reap(n.sp.id)
	}
}

// --- idle accounting -----------------------------------------------------------

func (n *node) beginIdle() {
	if n.idleStart < 0 {
		n.idleStart = n.k.Now()
	}
}

func (n *node) endIdle() {
	if n.idleStart >= 0 {
		now := n.k.Now()
		n.met.Add(metrics.Idle, now-n.idleStart)
		n.h.cfg.Trace.Add(int(n.id), trace.Idle, n.idleStart, now)
		n.idleStart = -1
	}
}

// crash halts the node (crash-stop; a scheduled Restart turns it into
// crash-restart). Every pending timer chain is cancelled so a later rebirth
// can start fresh ones without doubling them.
func (n *node) crash() {
	n.endIdle()
	n.crashed = true
	n.crashedAt = n.k.Now()
	n.inbox = nil
	n.reqTimer.Cancel()
	n.reportTimer.Cancel()
	n.tableTimer.Cancel()
	n.bootTimer.Cancel()
}

// restart reboots a crashed node under its old identity (§5.2 rejoin): an
// empty table, an empty pool, a fresh expander over the initial data, and
// nothing else — the process rebuilds purely from the reports, tables, and
// grants it receives. The incarnation counter orphans every callback the
// dead incarnation left behind.
func (n *node) restart() {
	if !n.crashed || n.done {
		// Never crashed: nothing to do. Crashed after terminating: the
		// process already played its part in §5.4 — rebooting it would
		// re-enter a finished computation; it stays down and is counted
		// crashed like any post-termination failure.
		return
	}
	if !n.started {
		// Restarted before its instance was submitted: nothing ran yet, so
		// the reboot is only the revival — activation starts the chains.
		n.crashed = false
		return
	}
	n.h.cfg.Trace.Add(int(n.id), trace.Dead, n.crashedAt, n.k.Now())
	n.cntPrior = n.cntPrior.Merge(n.core.Counters())
	n.incarn++
	n.crashed = false
	n.busy = false
	n.reqWaiting = false
	n.inbox = nil
	n.idleStart = -1
	n.tableOps = 0
	n.exp = n.sp.w.newExpander()
	n.initCore()
	if n.h.cfg.UseMembership {
		// Rejoin the group through the §5.2 membership path: a brand-new
		// member announces itself to the gossip servers and rebuilds its
		// view from their gossip, exactly like a first join.
		n.h.rejoinMember(n.id)
	}
	// Restagger the periodic chains like at boot and resume the main loop.
	n.startChains()
	n.loop()
}
