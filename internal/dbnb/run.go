package dbnb

import (
	"encoding/binary"
	"math"
	"sort"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/btree"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/member"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
	"gossipbnb/internal/trace"
)

// Result summarizes a simulated run.
type Result struct {
	// Terminated reports whether every non-crashed process detected
	// termination before MaxTime.
	Terminated bool
	// Time is the virtual time at which the last live process detected
	// termination — the paper's "execution time".
	Time float64
	// FirstDetect is when the first process detected termination.
	FirstDetect float64
	// Optimum is the best solution value known to the terminated processes;
	// OptimumOK compares it against the tree's true optimum.
	Optimum   float64
	OptimumOK bool
	// Expanded counts node expansions summed over processes; Unique is the
	// number of distinct tree nodes expanded; Redundant = Expanded − Unique
	// is the paper's redundant work.
	Expanded  int
	Unique    int
	Redundant int
	// DetectTimes holds each process's termination-detection time, indexed
	// by identity — initial processes first, then joiners in join order
	// (NaN = crashed or never entered, +Inf = entered but never detected).
	DetectTimes []float64
	// Joined counts the scheduled joiners that actually entered before the
	// run ended.
	Joined int
	// Completions counts completion events summed over processes.
	Completions int
	// Events is the total simulator events fired — the denominator of the
	// events/sec throughput the CLI reports.
	Events uint64
	// Shards is how many event shards actually ran (0 = the serial
	// single-kernel path).
	Shards int
	// Met carries the per-process breakdowns, counters and storage peaks.
	Met *metrics.System
	// Net carries the network counters.
	Net sim.NetStats
}

// workload is what a simulated run solves: either a recorded basic tree
// (Run) or a code-driven problem expanded from initial data (RunProblem).
// The harness never looks past this struct, so the two modes share every
// line of driver code.
type workload struct {
	// newExpander builds one expander per process — processes re-derive
	// subproblems independently, exactly as the paper's model prescribes.
	newExpander func() protocol.Expander
	// costOf is the modeled CPU seconds charged for expanding it, before
	// the CostFactor granularity knob.
	costOf func(it protocol.Item) float64
	// trueOpt is the single-processor reference optimum.
	trueOpt float64
	// sizeHint estimates distinct subproblems, for map sizing only.
	sizeHint int
}

// spec is one problem instance of a run: what it solves, where its root is
// seeded, and when it starts. A single-instance run (Run, RunProblem) is
// instance 0 — seeded at process 0, active from boot, untagged on the wire.
// RunInstances numbers its instances from 1.
type spec struct {
	id       protocol.InstanceID
	idx      int // 0-based slot: Instances index, record and metrics index
	start    float64
	seed     int64
	seedNode int // the process whose core is seeded with the root
	w        workload
	ref      bnb.Result      // the sequential reference (RunInstances only)
	met      *metrics.System // the instance's per-process breakdowns and counters
}

// rngSeed derives the RNG stream of the instance's context on process id
// (sharded and multi-instance runs). It depends only on the run seed, the
// instance and the process — not on the shard layout or on what other
// instances do — which makes a context's stochastic choices shard-count and
// isolation invariant.
func (s *spec) rngSeed(cfgSeed int64, id int) int64 {
	if s.id == 0 {
		return sim.DeriveSeed(cfgSeed, id)
	}
	return sim.DeriveSeed(sim.DeriveSeed(cfgSeed^s.seed, 1_000_003+s.idx), id)
}

// rec is one shard's bookkeeping for one instance, folded over the shards
// after the run.
type rec struct {
	expanded map[string]bool // tree nodes expanded at least once (shard-local)
	union    *ctree.Table    // completions observed by this shard's processes
	unionOps int
	// completions counts complete() events across processes (a subproblem
	// completed by k processes counts k times).
	completions int
	detected    int
	firstDet    float64
	lastDet     float64
}

// shardCtx is one shard's slice of the harness: the kernel and network the
// shard's processes live on, plus every piece of bookkeeping the driver
// mutates during the run. Nothing here is shared — a node only ever touches
// its owner shard's context, from its owner shard's worker goroutine, which
// is what keeps the parallel run free of driver-level races. The legacy
// single-kernel mode is exactly one shardCtx with legacy set.
type shardCtx struct {
	h      *harness
	legacy bool // the bit-identical pre-sharding path (Run with Shards == 0)
	k      *sim.Kernel
	nw     *sim.Network
	keyBuf []byte // scratch for expansion-map keys
	recs   []rec  // per instance slot
}

// harness owns one simulated run.
type harness struct {
	cfg    Config
	specs  []*spec
	mesh   *sim.Mesh // nil on the serial single-kernel path
	shards []*shardCtx
	// joins is the validated, time-sorted elastic-membership schedule;
	// total is Procs plus every scheduled joiner. elastic marks runs with a
	// non-empty schedule: their peer views are epoch-dependent, so the
	// static-view caches (and the ring broadcast fast path, whose window
	// arithmetic assumes full membership) are off.
	joins   []Join
	total   int
	elastic bool
	// k/nw alias shards[0] on the serial path, for the membership machinery
	// that only runs there.
	k  *sim.Kernel
	nw *sim.Network
	// ring is the doubled process-id ring: node i's static peer view is
	// ring[i+1 : i+procs] — every process but i, one shared backing array
	// for all nodes instead of O(procs²) per-node cached views. The legacy
	// path keeps its original per-node cache (same elements, different
	// order) for bit-identical runs.
	ring []protocol.NodeID
	// nodes holds each process's contexts, one per instance slot; a
	// scheduled joiner's entry stays nil until it enters.
	nodes   [][]*node
	muxes   []*instance.Mux // per process, multi-instance runs only
	members []*member.Member
	end     float64 // virtual time the run stopped
}

// newHarness builds the substrate every instance shares: the legacy kernel
// (Run with Shards == 0), a standalone serial network (RunInstances with
// Shards == 0), or the sharded mesh; the network's fault model; and one
// record per instance on every shard.
func newHarness(cfg Config, specs []*spec) *harness {
	h := &harness{cfg: cfg, specs: specs}
	h.joins = normalizeJoins(cfg.Joins)
	h.elastic = len(h.joins) > 0
	h.total = cfg.Procs
	for _, j := range h.joins {
		h.total += j.Count
	}

	if S := shardCount(cfg); S >= 1 {
		h.mesh = sim.NewMesh(cfg.Seed, S, cfg.Latency, shardLookahead(cfg))
		h.mesh.PlaceBlocks(h.total)
		h.shards = make([]*shardCtx, S)
		for s := range h.shards {
			h.shards[s] = &shardCtx{h: h, k: h.mesh.Kernel(s), nw: h.mesh.Net(s)}
		}
	} else {
		h.k = sim.New(cfg.Seed)
		if cfg.fireHook != nil {
			h.k.SetFireHook(cfg.fireHook)
		}
		h.nw = sim.NewNetwork(h.k, cfg.Latency)
		h.shards = []*shardCtx{{h: h, legacy: specs[0].id == 0, k: h.k, nw: h.nw}}
	}

	for _, sh := range h.shards {
		sh.recs = make([]rec, len(specs))
		for i, sp := range specs {
			sh.recs[i].union = ctree.New()
			sh.recs[i].expanded = make(map[string]bool, sp.w.sizeHint/len(h.shards)+1)
		}
		if cfg.LinkLatency != nil {
			// Legacy serial kernel only (shardCount forces it), so no
			// lookahead bound constrains the per-link delays.
			sh.nw.SetLinkLatency(func(from, to sim.NodeID, bytes int) float64 {
				return cfg.LinkLatency(int(from), int(to), bytes)
			})
		}
		sh.nw.SetLoss(cfg.Loss)
		// Unconditional, like SetLoss: a malformed probability (a sign typo
		// for a knob the user believes is on) must panic, not silently run a
		// well-behaved network.
		sh.nw.SetDuplicate(cfg.Duplicate)
		sh.nw.SetReorder(cfg.Reorder, cfg.ReorderWindow)
		sh.nw.SetReplay(cfg.Replay, cfg.ReplayDelay)
		for _, p := range cfg.Partitions {
			ids := make([]sim.NodeID, len(p.Group))
			for i, g := range p.Group {
				ids[i] = sim.NodeID(g)
			}
			sh.nw.AddPartition(p.Start, p.End, ids)
		}
	}

	if !h.shards[0].legacy && !h.elastic {
		// The shared doubled ring backs the static views and the ring-range
		// broadcast; elastic views are epoch-built per node.
		h.ring = make([]protocol.NodeID, 2*cfg.Procs)
		for i := 0; i < cfg.Procs; i++ {
			h.ring[i] = protocol.NodeID(i)
			h.ring[i+cfg.Procs] = protocol.NodeID(i)
		}
	}
	h.nodes = make([][]*node, h.total)
	if cfg.UseMembership {
		h.members = make([]*member.Member, h.total)
	}
	return h
}

// shardOf returns the context owning process i.
func (h *harness) shardOf(i int) *shardCtx {
	if h.mesh == nil {
		return h.shards[0]
	}
	return h.shards[h.mesh.ShardOf(sim.NodeID(i))]
}

// view returns the members a process may contact under the membership
// protocol (§5.2). Only the legacy path runs membership.
func (h *harness) view(self sim.NodeID) []sim.NodeID {
	return h.members[self].Peers()
}

// memberCountAt is the predetermined-pool membership function: how many
// processes exist at virtual time t under the join schedule. Every process
// derives its peer view from this pure function of its own clock, so views
// converge within one lookahead window without any message exchange — the
// deterministic analogue of §5.2 absorption — and sharded runs stay
// invariant in the shard count.
func (h *harness) memberCountAt(t float64) int {
	m := h.cfg.Procs
	for _, j := range h.joins {
		if j.Time > t {
			break
		}
		m += j.Count
	}
	return m
}

// registerNode wires a node's network handler, routing §5.2 membership
// traffic to its membership agent when the protocol is on. The member is
// looked up per delivery, not captured: a restart replaces it with a
// brand-new one rejoining the group.
func (h *harness) registerNode(n *node) {
	if !h.cfg.UseMembership {
		n.sh.nw.Register(n.id, n.deliver)
		return
	}
	id := n.id
	h.nw.Register(id, func(from sim.NodeID, msg sim.Message) {
		if member.IsProtocolMessage(msg) {
			h.members[id].Deliver(from, msg)
			return
		}
		n.deliver(from, msg)
	})
}

// spawnJoiner brings one scheduled joiner up mid-run: a brand-new process
// under a fresh identity, registered on its owner shard's network, announced
// to the group (§5.2 when membership runs), its periodic chains staggered
// like a boot, and its bootstrap pull chain started. The fresh core is
// seeded with zero-age activity evidence — a process launched into a
// running system must not read its own empty table and view as global
// quiescence and recover the root before the handshake completes.
func (h *harness) spawnJoiner(id int) {
	nid := sim.NodeID(id)
	n := newNode(nid, h, h.shardOf(id), h.specs[0])
	h.nodes[id] = []*node{n}
	if h.cfg.UseMembership {
		h.members[id] = member.New(h.k, h.nw, nid, []sim.NodeID{0}, member.DefaultConfig())
	}
	h.registerNode(n)
	if h.cfg.UseMembership {
		h.members[id].Join()
	}
	n.core.NoteRemoteActivity(0)
	n.startChains()
	n.bootstrapTick()
	n.loop()
}

// rejoinMember replaces a restarted process's membership agent with a fresh
// one that rejoins through the gossip servers (§5.2): the old view died with
// the old incarnation, and peers that timed the process out re-admit it on
// its new join announcement.
func (h *harness) rejoinMember(id sim.NodeID) {
	// Retire the dead incarnation's agent explicitly: its gossip round may
	// not have ticked inside the crash window, and an undead agent would
	// keep gossiping its stale view under the same identity.
	h.members[id].Leave()
	h.members[id] = member.New(h.k, h.nw, id, []sim.NodeID{0}, member.DefaultConfig())
	h.members[id].Join()
}

// Run simulates the algorithm of §5 replaying the given basic tree and
// returns the measured result. Runs are deterministic in (tree, cfg).
func Run(tree *btree.Tree, cfg Config) Result {
	exp := btree.Expander{Tree: tree}
	return run(cfg, workload{
		newExpander: func() protocol.Expander { return exp },
		costOf:      func(it protocol.Item) float64 { return tree.Nodes[it.Ref].Cost },
		trueOpt:     tree.Stats().Optimum,
		sizeHint:    tree.Size(),
	})
}

// RunProblem simulates the algorithm of §5 solving a code-driven problem
// from its initial data only — no recorded tree anywhere. Every process
// re-derives subproblems through its own bnb expander; expansion charges
// the modeled NodeCost (jittered deterministically per code). The
// single-processor reference optimum is established first by the
// sequential engine, so Result.OptimumOK is a real cross-check. Runs are
// deterministic in (problem, cfg).
func RunProblem(p bnb.Problem, cfg Config) Result {
	return RunProblemRef(p, bnb.SolveProblem(p), cfg)
}

// RunProblemRef is RunProblem with a precomputed sequential reference,
// sparing callers that already solved the instance a second solve.
func RunProblemRef(p bnb.Problem, ref bnb.Result, cfg Config) Result {
	base := cfg.withDefaults().NodeCost
	return run(cfg, workload{
		newExpander: func() protocol.Expander { return bnb.NewExpander(p) },
		costOf:      func(it protocol.Item) float64 { return base * costJitter(it.Code) },
		trueOpt:     ref.Value,
		sizeHint:    ref.Expanded,
	})
}

// costJitter maps a code to a deterministic factor in [0.5, 1.5), giving
// code-driven runs irregular per-node costs without a randomness source
// that would break (problem, seed, config) determinism. It streams FNV-1a
// over the code's wire encoding without materializing it — this runs once
// per expansion, and the c.Key() allocation it replaces was a measurable
// slice of the code-driven hot path. The byte stream (and therefore every
// simulated cost) is identical to hashing c.Key().
func costJitter(c code.Code) float64 {
	const (
		fnvOffset = 2166136261
		fnvPrime  = 16777619
	)
	var buf [binary.MaxVarintLen64]byte
	h := uint32(fnvOffset)
	n := binary.PutUvarint(buf[:], uint64(len(c)))
	for _, b := range buf[:n] {
		h = (h ^ uint32(b)) * fnvPrime
	}
	for _, d := range c {
		n = binary.PutUvarint(buf[:], uint64(d.Var)<<1|uint64(d.Branch))
		for _, b := range buf[:n] {
			h = (h ^ uint32(b)) * fnvPrime
		}
	}
	return 0.5 + float64(h%1024)/1024
}

// shardLookahead computes the static safe lookahead of a config: the
// minimum virtual delay any cross-shard message can have. The latency
// model is monotone in size, so its zero-byte value lower-bounds every
// send; replay copies can surface after only ReplayDelay.
func shardLookahead(cfg Config) float64 {
	la := cfg.Latency(0)
	if cfg.Replay > 0 {
		rd := cfg.ReplayDelay
		if rd <= 0 {
			rd = 1 // SetReplay's default floor
		}
		if rd < la {
			la = rd
		}
	}
	return la
}

// shardCount resolves how many shards a run actually uses: 0 is the legacy
// single-kernel path, and features whose state cannot be partitioned —
// membership, tracing, fire hooks, a latency model with no positive floor —
// force it.
func shardCount(cfg Config) int {
	s := cfg.Shards
	if s < 0 {
		s = 0
	}
	if s > cfg.Procs {
		s = cfg.Procs
	}
	if s >= 1 && (cfg.UseMembership || cfg.Trace != nil || cfg.fireHook != nil ||
		cfg.LinkLatency != nil || shardLookahead(cfg) <= 0) {
		s = 0
	}
	return s
}

// normalizeJoins validates and time-sorts the join schedule: joiner
// identities are assigned densely in event-time order, so the sort makes
// memberCountAt monotone and the identity assignment deterministic.
func normalizeJoins(joins []Join) []Join {
	out := make([]Join, 0, len(joins))
	for _, j := range joins {
		if j.Count <= 0 {
			continue
		}
		if j.Time < 0 {
			j.Time = 0
		}
		out = append(out, j)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

func run(cfg Config, w workload) Result {
	cfg = cfg.withDefaults()
	sp := &spec{w: w}
	h := newHarness(cfg, []*spec{sp})
	sp.met = metrics.NewSystem(h.total)

	one := make([]*node, cfg.Procs) // one backing array for every process's single context
	for i := 0; i < cfg.Procs; i++ {
		id := sim.NodeID(i)
		n := newNode(id, h, h.shardOf(i), sp)
		one[i] = n
		h.nodes[i] = one[i : i+1 : i+1]
		if cfg.UseMembership {
			h.members[i] = member.New(h.k, h.nw, id, []sim.NodeID{0}, member.DefaultConfig())
		}
		h.registerNode(n)
		if cfg.UseMembership {
			h.members[i].Join()
		}
	}

	// Elastic membership: scheduled joiners come up mid-run, each on its
	// owner shard's clock, under fresh identities in event-time order.
	nextID := cfg.Procs
	for _, j := range h.joins {
		for c := 0; c < j.Count; c++ {
			id := nextID
			nextID++
			h.shardOf(id).k.At(j.Time, func() { h.spawnJoiner(id) })
		}
	}

	// Process 0 starts with the original problem; everyone else pulls work
	// through the load-balancing mechanism.
	one[0].core.Seed(one[0].exp.Root())
	for _, n := range one {
		n.startChains()
		n.k.At(0, n.loop)
	}

	h.run()
	ir := h.fold(sp)
	res := Result{
		Terminated:  ir.Terminated,
		Time:        ir.Time,
		FirstDetect: ir.FirstDetect,
		Optimum:     ir.Optimum,
		OptimumOK:   ir.OptimumOK,
		Expanded:    ir.Expanded,
		Unique:      ir.Unique,
		Redundant:   ir.Redundant,
		DetectTimes: ir.DetectTimes,
		Completions: ir.Completions,
		Met:         sp.met,
	}
	res.Events, res.Shards, res.Net = h.totals()
	for _, ns := range h.nodes[cfg.Procs:] {
		if ns != nil {
			res.Joined++
		}
	}
	return res
}

// run schedules the failure plan and runs the kernel to completion. Crash
// Instance 0 — and every crash of a single-instance run — fails the whole
// process: its network endpoint and every instance it hosts. Instance k > 0
// fails only that instance's context, leaving the endpoint and the
// process's other instances running.
func (h *harness) run() {
	multi := h.specs[0].id != 0
	for _, c := range h.cfg.Crashes {
		c := c
		if c.Node < 0 || c.Node >= h.total {
			continue
		}
		slot := -1 // the whole process
		if multi {
			if c.Instance < 0 || c.Instance > len(h.specs) {
				continue
			}
			slot = c.Instance - 1
		}
		// Failure events live on the failing process's own shard: crash
		// state is owned by the shard's network, like every delivery check.
		// A scheduled joiner's node may not exist yet when its crash fires
		// (the join is later, or never came); the crash then only marks the
		// network, exactly like crashing a process that never booted.
		sh := h.shardOf(c.Node)
		sh.k.At(c.Time, func() {
			if slot < 0 {
				sh.nw.Crash(sim.NodeID(c.Node))
			}
			for _, n := range h.scope(c.Node, slot) {
				n.crash()
			}
		})
		if c.Restart > c.Time {
			// Crash-restart: the process reboots under its old identity and
			// rebuilds from gossip. Restore first so the rejoin traffic the
			// restart triggers is not swallowed by its own crashed mark.
			sh.k.At(c.Restart, func() {
				if slot < 0 {
					sh.nw.Restore(sim.NodeID(c.Node))
				}
				for _, n := range h.scope(c.Node, slot) {
					n.restart()
				}
			})
		}
	}
	if h.mesh != nil {
		h.end = h.mesh.Run(h.cfg.MaxTime)
	} else {
		h.end = h.k.Run(h.cfg.MaxTime)
	}
}

// scope returns the contexts a crash hits on process i: all of them, or
// instance slot's alone.
func (h *harness) scope(i, slot int) []*node {
	if slot < 0 {
		return h.nodes[i]
	}
	return h.nodes[i][slot : slot+1]
}

// totals returns the run's event count, shard count (0 = serial kernel) and
// network counters.
func (h *harness) totals() (uint64, int, sim.NetStats) {
	if h.mesh != nil {
		return h.mesh.Events(), len(h.shards), h.mesh.Stats()
	}
	return h.k.Events(), 0, h.nw.Stats()
}

// fold assembles one instance's result from its nodes and the per-shard
// records.
func (h *harness) fold(sp *spec) InstanceResult {
	ir := InstanceResult{
		ID:          sp.id,
		Start:       sp.start,
		Optimum:     math.Inf(1),
		SeqOptimum:  sp.w.trueOpt,
		SeqExpanded: sp.ref.Expanded,
		DetectTimes: make([]float64, len(h.nodes)),
		Terminated:  true,
	}
	detected := 0
	for _, sh := range h.shards {
		r := &sh.recs[sp.idx]
		if r.detected > 0 {
			if detected == 0 || r.firstDet < ir.FirstDetect {
				ir.FirstDetect = r.firstDet
			}
			if r.lastDet > ir.Time {
				ir.Time = r.lastDet
			}
			detected += r.detected
		}
		ir.Completions += r.completions
	}
	// Leftover staggered timer events can outlive the computation; clamp the
	// trace window to when the run actually finished.
	traceEnd := h.end
	if detected > 0 && ir.Time < traceEnd {
		traceEnd = ir.Time
	}
	// Distinct expansions: exact in both modes — shard-local dedup sets are
	// merged here, after the run.
	if len(h.shards) == 1 {
		ir.Unique = len(h.shards[0].recs[sp.idx].expanded)
	} else {
		total := 0
		for _, sh := range h.shards {
			total += len(sh.recs[sp.idx].expanded)
		}
		seen := make(map[string]bool, total)
		for _, sh := range h.shards {
			for k := range sh.recs[sp.idx].expanded {
				seen[k] = true
			}
		}
		ir.Unique = len(seen)
	}
	anyDetected := false
	for i, ns := range h.nodes {
		if ns == nil {
			// A scheduled joiner that never entered (its join time lay beyond
			// the run): it never participated, so like a crashed process it
			// neither counts toward nor blocks termination.
			ir.DetectTimes[i] = math.NaN()
			continue
		}
		n := ns[sp.idx]
		// Fold the core's protocol-event tallies into the metrics. The
		// driver accounts only what the substrate defines (time splits,
		// storage peaks, expansions it paid for); event counts are the
		// core's, so a termination broadcast is not a "work report" in the
		// experiment tables. Dead crash-restart incarnations folded their
		// tallies into cntPrior — messages they sent were really sent.
		cnt := n.cntPrior.Merge(n.core.Counters())
		n.met.ReportsSent = cnt.ReportsSent
		n.met.ReportCodes = cnt.ReportCodes
		n.met.ReportedComps = cnt.ReportedComps
		n.met.TablesSent = cnt.TablesSent
		n.met.WorkRequests = cnt.WorkRequests
		n.met.WorkSent = cnt.WorkSent
		n.met.Recoveries = cnt.Recoveries
		n.met.PeakPool = cnt.PeakPool
		switch {
		case n.crashed:
			ir.DetectTimes[i] = math.NaN()
			h.cfg.Trace.Add(i, trace.Dead, n.crashedAt, traceEnd)
		case n.done:
			ir.DetectTimes[i] = n.detectedAt
			anyDetected = true
			if opt := n.core.Incumbent(); opt < ir.Optimum {
				ir.Optimum = opt
			}
		default:
			ir.DetectTimes[i] = math.Inf(1)
			ir.Terminated = false
		}
		ir.Expanded += n.met.Expanded
	}
	ir.Terminated = ir.Terminated && anyDetected
	ir.Redundant = ir.Expanded - ir.Unique
	ir.OptimumOK = ir.Terminated && ir.Optimum == sp.w.trueOpt
	agg := sp.met.AggregateBreakdown()
	ir.Work = agg.Work()
	ir.Overhead = agg.Overhead()
	// Final storage observation (peaks may have been missed by sampling).
	union := h.shards[0].recs[sp.idx].union
	for _, sh := range h.shards[1:] {
		union.Merge(sh.recs[sp.idx].union)
	}
	sp.met.ObserveUnique(union.WireSize())
	return ir
}
