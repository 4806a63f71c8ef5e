package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/dbnb"
	"gossipbnb/internal/live"
)

// Workload shapes. Every input is pinned to ROADMAP's reference seed 12. The
// tree sizes of qap:9:<s> and knapsack:150:<s> differ up to 5× from one
// instance seed to the next, and one sim-faults scenario's wall and virtual
// time vary with a coefficient of variation near 0.8; no per-solve mean over
// the solves that fit in one run absorbs either within its bound. The
// workload seed is recorded and draws the protocol seed of every live solve.
const (
	refSeed      = 12
	qapSpec      = "qap:9:12"
	knapsackSpec = "knapsack:150:12"

	// liveTimeout bounds one live solve; a solve that hits it counts as
	// failed.
	liveTimeout = 20 * time.Second

	simProcs        = 16
	simCrashStop    = 6
	simCrashRestart = 2
	simFaultWindow  = 10.0 // virtual seconds in which every crash happens
	simLoss         = 0.01
	// simScenarios is the size of the fixed scenario set one sim-faults run
	// solves: large enough that its means stand for the scenario
	// distribution within a few percent.
	simScenarios = 128
	// simTraceScenarios is the prefix of the set the traced run solves twice,
	// untraced and traced.
	simTraceScenarios = 24

	setupReps = 9
)

// workload is one benchmark input: a problem instance and the runtime that
// solves it.
type workload struct {
	name  string
	spec  string
	nodes int  // live cluster size; 0 selects the simulator
	tcp   bool // live over loopback TCP instead of the in-memory transport
}

var workloads = []workload{
	{name: "live-mem-1", spec: qapSpec, nodes: 1},
	{name: "live-tcp-2", spec: qapSpec, nodes: 2, tcp: true},
	{name: "sim-faults", spec: knapsackSpec},
}

func (w workload) sim() bool { return w.nodes == 0 }

// solve is the outcome of one closed-loop solve.
type solve struct {
	seed            int64   // live only: the protocol seed
	wall, cpu, virt float64 // seconds
	memMB           float64 // peak memory held from the OS
	expanded        int
	msgs, bytes     int64
	drops           int64
	kindSent        [live.MsgKinds]int64
	kindBytes       [live.MsgKinds]int64
	ok              bool // terminated with the reference optimum
	timedOut        bool

	// Simulator only.
	events                uint64
	redundant, recoveries int
	idleShare, bbShare    float64
	storageMB             float64
}

// scenario is one sim-faults solve: the protocol seed and the crash schedule.
type scenario struct {
	seed    int64
	crashes []dbnb.Crash
}

// scenarios derives a scenario set from a seed: in each scenario, six
// processes crash-stop and two crash-restart within the first simFaultWindow
// virtual seconds.
func scenarios(seed int64, n int) []scenario {
	r := rand.New(rand.NewSource(seed))
	out := make([]scenario, n)
	for i := range out {
		perm := r.Perm(simProcs)
		sc := scenario{seed: r.Int63()}
		for j := 0; j < simCrashStop+simCrashRestart; j++ {
			c := dbnb.Crash{Node: perm[j], Time: simFaultWindow * r.Float64()}
			if j >= simCrashStop {
				c.Restart = c.Time + 1 + 4*r.Float64()
			}
			sc.crashes = append(sc.crashes, c)
		}
		out[i] = sc
	}
	return out
}

// bench is a workload set up for one run.
type bench struct {
	w      workload
	prob   bnb.Problem
	ref    bnb.Result
	set    []scenario // sim-faults only
	setup  []float64  // seconds per set-up repetition
	seqRef []float64  // seconds per sequential reference solve
	probes []float64  // seconds per host probe, one after each set-up and solve

	// solveSeeds draws each live solve's protocol seed from the workload
	// seed, so a run's solves spread over protocol seeds instead of
	// repeating one.
	solveSeeds *rand.Rand
}

// setUp generates the instance, solves it sequentially and builds the
// runtime, setupReps times, keeping the timings of each repetition.
func setUp(w workload, seed int64) (*bench, error) {
	b := &bench{w: w, solveSeeds: rand.New(rand.NewSource(seed))}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		p, err := bnb.ParseSpec(w.spec)
		if err != nil {
			return nil, err
		}
		seqStart := time.Now()
		ref := bnb.SolveProblem(p)
		b.seqRef = append(b.seqRef, time.Since(seqStart).Seconds())
		if w.sim() {
			b.set = scenarios(refSeed, simScenarios)
		} else {
			nw, err := b.newNet(seed)
			if err != nil {
				return nil, err
			}
			live.NewProblemClusterRef(p, ref, b.liveConfig(nw, seed))
			nw.Close()
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		b.probes = append(b.probes, hostProbe())
		b.prob, b.ref = p, ref
	}
	return b, nil
}

func (b *bench) newNet(seed int64) (live.Net, error) {
	if b.w.tcp {
		t, err := live.NewTCPNetwork(b.w.nodes)
		if err != nil {
			return nil, fmt.Errorf("loopback listeners: %w", err)
		}
		return t, nil
	}
	return live.NewTransport(seed, nil, 0), nil
}

func (b *bench) liveConfig(nw live.Net, seed int64) live.Config {
	return live.Config{
		Nodes:   b.w.nodes,
		Seed:    seed,
		Prune:   true,
		Network: nw,
		Timeout: liveTimeout,
	}
}

// probes are the outside-in tracing hooks of a traced solve.
type probes struct {
	kernel *kernelProbe
	net    []*probedNet
}

// solveLive runs one live solve with the given protocol seed. With pr
// non-nil the problem and the transport are wrapped by probes.
func (b *bench) solveLive(seed int64, pr *probes) (solve, error) {
	nw, err := b.newNet(seed)
	if err != nil {
		return solve{}, err
	}
	p := b.prob
	if pr != nil {
		p = probedProblem{p, pr.kernel}
		pn := newProbedNet(nw)
		pr.net = append(pr.net, pn)
		nw = pn
	}
	cl := live.NewProblemClusterRef(p, b.ref, b.liveConfig(nw, seed))
	debug.FreeOSMemory()
	mem := startMemPeak()
	cpu0, start := cpuSeconds(), time.Now()
	res := cl.Run()
	s := solve{
		seed:      seed,
		wall:      time.Since(start).Seconds(),
		cpu:       cpuSeconds() - cpu0,
		memMB:     mem.mb(),
		expanded:  res.Expanded,
		msgs:      res.MsgsSent,
		bytes:     res.BytesSent,
		drops:     res.Net.Dropped,
		kindSent:  res.Kinds.Sent,
		kindBytes: res.Kinds.Bytes,
		timedOut:  !res.Terminated,
	}
	// Checked against this run's own sequential reference, independently of
	// the cluster's OptimumOK.
	s.ok = res.Terminated && res.Optimum == b.ref.Value
	return s, nil
}

// solveSim runs one simulated scenario.
func (b *bench) solveSim(sc scenario, pr *probes) solve {
	p := b.prob
	if pr != nil {
		p = probedProblem{p, pr.kernel}
	}
	cfg := dbnb.Config{
		Procs:   simProcs,
		Seed:    sc.seed,
		Shards:  1,
		Prune:   true,
		Loss:    simLoss,
		Crashes: sc.crashes,
	}
	debug.FreeOSMemory()
	mem := startMemPeak()
	cpu0, start := cpuSeconds(), time.Now()
	res := dbnb.RunProblemRef(p, b.ref, cfg)
	s := solve{
		wall:      time.Since(start).Seconds(),
		cpu:       cpuSeconds() - cpu0,
		memMB:     mem.mb(),
		virt:      res.Time,
		expanded:  res.Expanded,
		msgs:      res.Net.Sent,
		bytes:     res.Net.Bytes,
		drops:     res.Net.Lost + res.Net.Cut + res.Net.ToDead,
		timedOut:  !res.Terminated,
		events:    res.Events,
		redundant: res.Redundant,
		storageMB: float64(res.Met.TotalStorage()) / 1e6,
	}
	for k := 0; k < live.MsgKinds && k < len(res.Net.KindSent); k++ {
		s.kindSent[k] = res.Net.KindSent[k]
		s.kindBytes[k] = res.Net.KindBytes[k]
	}
	for _, n := range res.Met.Nodes {
		s.recoveries += n.Recoveries
	}
	bd := res.Met.AggregateBreakdown()
	if tot := bd.Total(); tot > 0 {
		s.bbShare = bd.Work() / tot
		s.idleShare = (tot - bd.Work() - bd.Overhead()) / tot
	}
	s.ok = res.Terminated && res.Optimum == b.ref.Value
	return s
}

// loop runs the workload as a closed loop for about the given duration: one
// solve at a time, each started when the previous one returned, after one
// warm-up solve that is checked but not measured. A host probe runs after
// every measured solve, outside its timing. sim-faults solves whole
// passes over its scenario set, so every scenario weighs the same in the
// mean; a pass that would end past the duration is not started.
func (b *bench) loop(d time.Duration) (warm solve, out []solve, err error) {
	if b.w.sim() {
		warm = b.solveSim(b.set[0], nil)
		start := time.Now()
		for {
			passStart := time.Now()
			for _, sc := range b.set {
				out = append(out, b.solveSim(sc, nil))
				b.probes = append(b.probes, hostProbe())
			}
			if time.Since(start)+time.Since(passStart) > d {
				return warm, out, nil
			}
		}
	}
	if warm, err = b.solveLive(b.solveSeeds.Int63(), nil); err != nil {
		return warm, nil, err
	}
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		s, err := b.solveLive(b.solveSeeds.Int63(), nil)
		if err != nil {
			return warm, nil, err
		}
		out = append(out, s)
		b.probes = append(b.probes, hostProbe())
	}
	return warm, out, nil
}

// values maps f over ss.
func values(ss []solve, f func(solve) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

// aggregate folds per-solve values: the median on the live workloads, which
// repeat one input, and the mean on sim-faults, where each solve is its own
// scenario.
func (b *bench) aggregate(ss []solve, f func(solve) float64) float64 {
	if b.w.sim() {
		return mean(values(ss, f))
	}
	return median(values(ss, f))
}

// timing folds per-solve times: the lower quartile on the live workloads and
// the mean on sim-faults. Other tenants of a shared host only ever add time
// to a live solve, and more to a two-node solve, whose nodes wait on each
// other; the lower quartile is the cost of a solve the host left alone. On a
// 2-vCPU VM, one competing busy thread raised the median cpu_s of live-tcp-2
// by 24 % and its lower quartile by 10 %.
func (b *bench) timing(ss []solve, f func(solve) float64) float64 {
	if b.w.sim() {
		return mean(values(ss, f))
	}
	return lowerQuartile(values(ss, f))
}
