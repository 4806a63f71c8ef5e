package main

import (
	"testing"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/live"
)

// The probes must leave the program unchanged: the sequential engine run
// through a probed problem explores exactly the same tree.
func TestProbedProblemMatchesSequential(t *testing.T) {
	for _, spec := range []string{qapSpec, knapsackSpec} {
		p, err := bnb.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := bnb.SolveProblem(p)
		k := &kernelProbe{}
		got := bnb.SolveProblem(probedProblem{p, k})
		if got.Value != want.Value || got.Expanded != want.Expanded ||
			got.Branched != want.Branched || got.Fathomed != want.Fathomed {
			t.Errorf("%s: probed solve %+v, unprobed %+v", spec, got, want)
		}
		if k.calls.Load() == 0 || k.ns.Load() <= 0 {
			t.Errorf("%s: probe recorded %d calls in %d ns", spec, k.calls.Load(), k.ns.Load())
		}
	}
}

// A two-node cluster solving through the Net probe reaches the true
// optimum, and the probe sees its traffic.
func TestProbedNetSolvesTwoNodes(t *testing.T) {
	p, err := bnb.ParseSpec("qap:7:12")
	if err != nil {
		t.Fatal(err)
	}
	ref := bnb.SolveProblem(p)
	tcp, err := live.NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]live.Net{
		"memory": live.NewTransport(1, nil, 0),
		"tcp":    tcp,
	} {
		pn := newProbedNet(inner)
		res := live.NewProblemClusterRef(p, ref, live.Config{
			Nodes: 2, Seed: 1, Prune: true, Network: pn, Timeout: 20 * time.Second,
		}).Run()
		if !res.Terminated || res.Optimum != ref.Value {
			t.Errorf("%s: terminated=%v optimum %g, want %g", name, res.Terminated, res.Optimum, ref.Value)
		}
		sampled := 0
		for _, ms := range pn.sample {
			sampled += len(ms)
		}
		if pn.sends == 0 || pn.sends != res.MsgsSent || sampled == 0 {
			t.Errorf("%s: probe saw %d sends (%d sampled), transport %d", name, pn.sends, sampled, res.MsgsSent)
		}
	}
}
