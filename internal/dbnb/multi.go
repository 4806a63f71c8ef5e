package dbnb

import (
	"gossipbnb/internal/bnb"
	"gossipbnb/internal/code"
	"gossipbnb/internal/instance"
	"gossipbnb/internal/metrics"
	"gossipbnb/internal/protocol"
	"gossipbnb/internal/sim"
)

// This file is the multi-instance sim driver: one simulated cluster solving
// several problem instances concurrently, each scoped to its own wire
// InstanceID. The paper's mechanism is per-problem by construction — the
// completion tree and the termination detector scope to one root — so
// multiplexing is namespacing: every process hosts an instance.Mux routing
// inbound messages to one node per instance — the same per-process actor a
// single-instance run drives as instance 0 — and each instance runs the
// unmodified §5 protocol among its peers' same-instance cores.
//
// The execution model gives every instance its own modeled execution context
// per process (an independent worker slice: own busy periods, own timers, own
// randomness stream derived from (seed, instance, process)), while the
// network endpoints are shared. That makes failure-free instances causally
// independent — the basis of the isolation guarantee the chaos tests pin —
// and keeps runs deterministic in (config, seed) and invariant in the shard
// count, by the same wake-event + canonical batch-order discipline as the
// sharded single-instance path. Chaos draws (loss/dup/reorder/replay) come
// from shared network streams, so under chaos only each instance's solved
// optimum — not its event trajectory — is isolation-invariant.

// InstanceResult is one instance's slice of a multi-instance run.
type InstanceResult struct {
	// ID is the instance's wire identifier (its 1-based Instances position).
	ID protocol.InstanceID
	// Terminated reports whether every process that did not fail this
	// instance detected its termination before MaxTime.
	Terminated bool
	// Start is the instance's submission time; Time is when the last live
	// process detected its termination; FirstDetect the first.
	Start       float64
	Time        float64
	FirstDetect float64
	// Optimum is the best solution value known to the instance's terminated
	// processes; OptimumOK compares it against the instance's own sequential
	// solve (SeqOptimum, found in SeqExpanded expansions).
	Optimum     float64
	OptimumOK   bool
	SeqOptimum  float64
	SeqExpanded int
	// Expanded/Unique/Redundant are this instance's expansion counts.
	Expanded  int
	Unique    int
	Redundant int
	// Completions counts completion events summed over processes.
	Completions int
	// DetectTimes is per-process detection, indexed by process identity
	// (NaN = failed for this instance, +Inf = never detected).
	DetectTimes []float64
	// Work and Overhead are the instance's modeled CPU seconds summed over
	// processes: BB expansion vs. communication + contraction + load
	// balancing (Dwork/Halpern/Waarts-style accounting, per tenant).
	Work     float64
	Overhead float64
}

// MultiResult summarizes a multi-instance run.
type MultiResult struct {
	// Terminated reports whether every instance terminated.
	Terminated bool
	// Time is when the last instance finished.
	Time      float64
	Instances []InstanceResult
	// Events is the total simulator events fired; Shards how many event
	// shards ran (0 = the serial single-kernel path).
	Events uint64
	Shards int
	// Met is the instance-labeled metrics registry: Met.At(i) is instance
	// i's per-process breakdowns and counters.
	Met *metrics.Multi
	// Net carries the shared network's counters (all instances together).
	Net sim.NetStats
}

// RunInstances simulates the cluster solving every cfg.Instances problem
// concurrently and returns the per-instance measurements. Each instance's
// optimum is cross-checked against its own sequential solve. Runs are
// deterministic in (cfg, seed); failure-free runs are invariant in the shard
// count. Features whose state is inherently single-instance — §5.2
// membership, tracing, elastic joins, per-link latency — are rejected.
func RunInstances(cfg Config) MultiResult {
	if len(cfg.Instances) == 0 {
		panic("dbnb: RunInstances requires at least one Instance")
	}
	if cfg.UseMembership || cfg.Trace != nil || len(cfg.Joins) > 0 ||
		cfg.LinkLatency != nil || cfg.fireHook != nil {
		panic("dbnb: RunInstances does not support UseMembership, Trace, Joins, or LinkLatency")
	}
	cfg = cfg.withDefaults()
	met := metrics.NewMulti(len(cfg.Instances), cfg.Procs)

	// Sequential references first: they are both the OptimumOK cross-check
	// and the throughput baseline the experiments compare against.
	specs := make([]*spec, len(cfg.Instances))
	base := cfg.NodeCost
	for i, in := range cfg.Instances {
		p := in.Problem
		ref := bnb.SolveProblem(p)
		start := in.StartTime
		if start < 0 {
			start = 0
		}
		specs[i] = &spec{
			id:       protocol.InstanceID(i + 1),
			idx:      i,
			start:    start,
			seed:     in.Seed,
			seedNode: i % cfg.Procs, // spread the roots across processes
			ref:      ref,
			met:      met.At(i),
			w: workload{
				newExpander: func() protocol.Expander { return bnb.NewExpander(p) },
				costOf:      func(it protocol.Item) float64 { return base * costJitter(it.Code) },
				trueOpt:     ref.Value,
				sizeHint:    ref.Expanded,
			},
		}
	}
	h := newHarness(cfg, specs)

	// One mux per process and one node per (process, instance); every node
	// activates at its instance's submission time on its owner shard's clock.
	h.muxes = make([]*instance.Mux, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		sh := h.shardOf(i)
		h.muxes[i] = instance.NewMux()
		h.nodes[i] = make([]*node, len(specs))
		for _, sp := range specs {
			n := newNode(sim.NodeID(i), h, sh, sp)
			h.nodes[i][sp.idx] = n
			e, ok := h.muxes[i].Open(sp.id, n.core, n.exp)
			if !ok {
				panic("dbnb: duplicate instance id")
			}
			e.Data = n
			n.entry = e
			sh.k.At(sp.start, n.activate)
		}
		h.registerMux(sim.NodeID(i))
	}

	h.run()
	res := MultiResult{
		Terminated: true,
		Instances:  make([]InstanceResult, len(specs)),
		Met:        met,
	}
	res.Events, res.Shards, res.Net = h.totals()
	for _, sp := range specs {
		ir := h.fold(sp)
		res.Instances[sp.idx] = ir
		res.Terminated = res.Terminated && ir.Terminated
		if ir.Time > res.Time {
			res.Time = ir.Time
		}
	}
	return res
}

// registerMux wires one process's network handler: demultiplex by instance,
// deliver to the owning node, and answer straggler work requests for reaped
// instances from the tombstone — a root report carrying the final incumbent,
// which terminates the requester's instance too.
func (h *harness) registerMux(id sim.NodeID) {
	mux := h.muxes[id]
	sh := h.shardOf(int(id))
	sh.nw.Register(id, func(from sim.NodeID, msg sim.Message) {
		im, ok := msg.(protocol.InstMsg)
		if !ok {
			return
		}
		e, v := mux.Route(im.Instance)
		switch v {
		case instance.RouteOpen:
			e.Data.(*node).deliver(from, im.Msg)
		case instance.RouteReaped:
			if _, isReq := im.Msg.(protocol.WorkRequest); isReq {
				inc, _ := mux.Reaped(im.Instance)
				sh.nw.Send(id, from, protocol.InstMsg{Instance: im.Instance,
					Msg: protocol.Report{Codes: []code.Code{code.Root()}, Incumbent: inc}})
			}
		}
	})
}
