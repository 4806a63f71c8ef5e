package dbnb

import (
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/btree"
)

// churnTree is a workload big enough that a mid-solve join lands while
// plenty of work remains: ~2000 nodes, ~100 s uniprocessor.
func churnTree(seed int64) *btree.Tree {
	r := rand.New(rand.NewSource(seed))
	return btree.Random(r, btree.RandomConfig{
		Size:         2001,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.5},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
}

// TestJoinDoublesClusterSpeedup is the headline elastic-membership scenario:
// the cluster starts at N processes, doubles to 2N mid-solve via the join
// path, and the speedup follows — the run finishes earlier than the N-process
// baseline, the optimum still matches the sequential reference, and the
// redundancy envelope stays bounded (joiners bootstrap their tables instead
// of re-expanding solved regions).
func TestJoinDoublesClusterSpeedup(t *testing.T) {
	tr := churnTree(21)
	base := Run(tr, Config{Procs: 4, Seed: 7})
	mustTerminate(t, base)
	res := Run(tr, Config{
		Procs: 4, Seed: 7,
		Joins: []Join{{Time: base.Time / 4, Count: 4}},
	})
	mustTerminate(t, res)
	if res.Joined != 4 {
		t.Fatalf("Joined = %d, want 4", res.Joined)
	}
	if len(res.DetectTimes) != 8 {
		t.Fatalf("DetectTimes tracks %d processes, want 8", len(res.DetectTimes))
	}
	for i, d := range res.DetectTimes {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Errorf("process %d never detected termination (%g)", i, d)
		}
	}
	if res.Time >= base.Time {
		t.Errorf("doubling mid-solve did not speed the run up: %.2fs vs baseline %.2fs",
			res.Time, base.Time)
	}
	joinerWork := 0
	for i := 4; i < 8; i++ {
		joinerWork += res.Met.Nodes[i].Expanded
	}
	if joinerWork == 0 {
		t.Error("joiners expanded nothing — they never stole work")
	}
	// Bounded redundancy: a join must cost bootstrap traffic, not re-expanded
	// subtrees. The envelope is deliberately loose (recovery under unlucky
	// timing legitimately re-expands a little) but far below "redo the tree".
	if res.Redundant > res.Unique/5 {
		t.Errorf("redundant work %d exceeds the envelope (unique %d)", res.Redundant, res.Unique)
	}
}

// TestJoinChurnDeterministic: elastic runs are deterministic in the seed,
// chaos and sharding included.
func TestJoinChurnDeterministic(t *testing.T) {
	tr := smallTree(9)
	cfg := Config{
		Procs: 3, Seed: 11, Shards: 2,
		Loss: 0.05, Duplicate: 0.1,
		Joins:         []Join{{Time: 2, Count: 3}},
		Crashes:       []Crash{{Time: 4, Node: 1}},
		RecoveryQuiet: 6,
	}
	a := Run(tr, cfg)
	b := Run(tr, cfg)
	mustTerminate(t, a)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Optimum != b.Optimum ||
		a.Completions != b.Completions || a.Events != b.Events {
		t.Errorf("same seed, different runs:\n a: %+v\n b: %+v", a, b)
	}
}

// TestJoinShardCountInvariance extends the Config.Shards contract to elastic
// runs: peer views are a pure function of each process's own clock and the
// join schedule, so a failure-free churn run's results cannot depend on how
// processes are sharded.
func TestJoinShardCountInvariance(t *testing.T) {
	tr := smallTree(4)
	runAt := func(shards int) Result {
		res := Run(tr, Config{
			Procs: 8, Seed: 6, Shards: shards,
			Joins: []Join{{Time: 1.5, Count: 8}},
		})
		mustTerminate(t, res)
		if res.Unique != tr.Size() {
			t.Fatalf("S=%d expanded %d unique nodes, want %d", shards, res.Unique, tr.Size())
		}
		return res
	}
	base := runAt(1)
	if base.Joined != 8 {
		t.Fatalf("Joined = %d, want 8", base.Joined)
	}
	for _, S := range []int{2, 4} {
		got := runAt(S)
		if got.Shards != S {
			t.Errorf("Shards=%d ran on %d shards", S, got.Shards)
		}
		if got.Optimum != base.Optimum || got.Time != base.Time ||
			got.Expanded != base.Expanded || got.Completions != base.Completions {
			t.Errorf("S=%d diverged from S=1:\n got %+v\nwant %+v", S, got, base)
		}
		for i := range got.Met.Nodes {
			if got.Met.Nodes[i].Expanded != base.Met.Nodes[i].Expanded {
				t.Errorf("S=%d process %d expanded %d, S=1 %d",
					S, i, got.Met.Nodes[i].Expanded, base.Met.Nodes[i].Expanded)
			}
		}
	}
}

// TestJoinWithMembership runs the real §5.2 path: joiners announce to the
// gossip server, are absorbed into live views by heartbeat gossip, bootstrap
// from a neighbor, and work.
func TestJoinWithMembership(t *testing.T) {
	tr := churnTree(22)
	res := Run(tr, Config{
		Procs:         4,
		Seed:          5,
		UseMembership: true,
		RecoveryQuiet: 8,
		Joins:         []Join{{Time: 10, Count: 4}},
	})
	mustTerminate(t, res)
	if res.Joined != 4 {
		t.Fatalf("Joined = %d, want 4", res.Joined)
	}
	joinerWork := 0
	for i := 4; i < 8; i++ {
		joinerWork += res.Met.Nodes[i].Expanded
		if d := res.DetectTimes[i]; math.IsNaN(d) || math.IsInf(d, 0) {
			t.Errorf("joiner %d never detected termination (%g)", i, d)
		}
	}
	if joinerWork == 0 {
		t.Error("membership joiners expanded nothing")
	}
}

// TestChurnJoinCrashMix: joins and crashes interleave — including a joiner
// that crashes and restarts — under loss and duplication, and the system
// still terminates on the exact optimum.
func TestChurnJoinCrashMix(t *testing.T) {
	tr := smallTree(31)
	res := Run(tr, Config{
		Procs:         4,
		Seed:          19,
		Loss:          0.05,
		Duplicate:     0.1,
		RecoveryQuiet: 6,
		Joins:         []Join{{Time: 3, Count: 2}, {Time: 6, Count: 2}},
		Crashes: []Crash{
			{Time: 5, Node: 1},
			{Time: 8, Node: 5, Restart: 12}, // a joiner fails and reboots
		},
	})
	mustTerminate(t, res)
	if res.Joined != 4 {
		t.Fatalf("Joined = %d, want 4", res.Joined)
	}
}

// TestJoinAfterTermination: a process that joins a finished computation must
// converge immediately — its work requests are answered with the root
// report, the §5.4 "computation is over" signal — not hang or redo the tree.
func TestJoinAfterTermination(t *testing.T) {
	tr := smallTree(8)
	res := Run(tr, Config{
		Procs: 2, Seed: 2,
		Joins: []Join{{Time: 500, Count: 1}},
	})
	mustTerminate(t, res)
	if res.Joined != 1 {
		t.Fatalf("Joined = %d, want 1", res.Joined)
	}
	if d := res.DetectTimes[2]; math.IsNaN(d) || math.IsInf(d, 0) || d < 500 {
		t.Fatalf("late joiner detect time = %g, want finite ≥ 500", d)
	}
	if res.Met.Nodes[2].Expanded != 0 {
		t.Errorf("post-termination joiner expanded %d nodes, want 0", res.Met.Nodes[2].Expanded)
	}
}
