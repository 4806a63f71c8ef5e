package dbnb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gossipbnb/internal/btree"
)

// TestPropRandomCrashSchedules is the paper's headline guarantee as a
// property: for ANY schedule that leaves at least one process alive, the run
// terminates with the exact optimum.
func TestPropRandomCrashSchedules(t *testing.T) {
	tr := btree.Tiny(11)
	base := Run(tr, Config{Procs: 4, Seed: 1, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		procs := 2 + r.Intn(4)
		kills := r.Intn(procs) // 0 .. procs-1: at least one survivor
		perm := r.Perm(procs)
		cfg := Config{Procs: procs, Seed: seed, RecoveryQuiet: 3}
		for i := 0; i < kills; i++ {
			cfg.Crashes = append(cfg.Crashes, Crash{
				Time: r.Float64() * 2 * base.Time,
				Node: perm[i],
			})
		}
		res := Run(tr, cfg)
		return res.Terminated && res.OptimumOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropLossySchedules: message loss alone must never break termination
// or the optimum.
func TestPropLossySchedules(t *testing.T) {
	tr := btree.Tiny(12)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Procs:         2 + r.Intn(5),
			Seed:          seed,
			Loss:          r.Float64() * 0.3,
			RecoveryQuiet: 4,
		}
		res := Run(tr, cfg)
		return res.Terminated && res.OptimumOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestChaosEverythingAtOnce combines crashes, loss, a partition, pruning,
// depth-first selection, membership, and adaptive reports in one run.
func TestChaosEverythingAtOnce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         1201,
		Cost:         btree.CostModel{Mean: 0.05, Sigma: 0.5},
		BoundSpread:  2,
		FeasibleProb: 0.1,
	})
	res := Run(tr, Config{
		Procs:           8,
		Seed:            13,
		Prune:           true,
		Select:          DepthFirst,
		Loss:            0.08,
		UseMembership:   true,
		AdaptiveReports: true,
		RecoveryQuiet:   8,
		Crashes: []Crash{
			{Time: 4, Node: 5}, {Time: 6, Node: 6}, {Time: 9, Node: 7},
		},
		Partitions: []Partition{{Start: 3, End: 10, Group: []int{0, 1, 2}}},
	})
	if !res.Terminated {
		t.Fatalf("chaos run did not terminate: %+v", res)
	}
	if !res.OptimumOK {
		t.Fatalf("chaos run lost the optimum: got %g", res.Optimum)
	}
}

// TestPartitionBothSidesProgress: during a partition, both sides keep
// working (recovery re-creates the other side's regions); after healing the
// system converges without double-counting completions in the tables.
func TestPartitionBothSidesProgress(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	tr := btree.Random(r, btree.RandomConfig{
		Size:         801,
		Cost:         btree.CostModel{Mean: 0.05},
		BoundSpread:  1,
		FeasibleProb: 0.1,
	})
	base := Run(tr, Config{Procs: 6, Seed: 14, RecoveryQuiet: 4})
	res := Run(tr, Config{
		Procs: 6, Seed: 14, RecoveryQuiet: 4,
		Partitions: []Partition{{Start: 1, End: base.Time * 2, Group: []int{0, 1, 2}}},
	})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("partitioned run failed: %+v", res)
	}
	// Both sides redo each other's work, so redundancy must appear.
	if res.Redundant == 0 {
		t.Error("long partition caused no redundant work (suspicious)")
	}
}

// TestDepthFirstDeterministic: determinism must hold under the alternate
// selection rule too.
func TestDepthFirstDeterministic(t *testing.T) {
	tr := btree.Tiny(15)
	cfg := Config{Procs: 5, Seed: 99, Select: DepthFirst, Loss: 0.1, RecoveryQuiet: 4}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic under depth-first: %+v vs %+v", a, b)
	}
}

// TestAdaptiveReportsCorrectness: the adaptive flush must not change
// answers, only traffic.
func TestAdaptiveReportsCorrectness(t *testing.T) {
	tr := btree.Tiny(16)
	fixed := Run(tr, Config{Procs: 4, Seed: 5, RecoveryQuiet: 4, CostFactor: 20, ReportTimeout: 2})
	adaptive := Run(tr, Config{Procs: 4, Seed: 5, RecoveryQuiet: 4, CostFactor: 20, ReportTimeout: 2, AdaptiveReports: true})
	if !fixed.Terminated || !adaptive.Terminated {
		t.Fatal("runs did not terminate")
	}
	if fixed.Optimum != adaptive.Optimum {
		t.Errorf("adaptive reporting changed the optimum: %g vs %g",
			adaptive.Optimum, fixed.Optimum)
	}
}

// --- crash-restart (rejoin) ----------------------------------------------------

// TestRestartRejoinDeterministic is the acceptance scenario for
// crash-restart: a run with {Time: t1, Node: k, Restart: t2} terminates with
// the correct optimum, the restarted process itself detects termination, and
// the whole result is identical across repeated runs with the same seed.
func TestRestartRejoinDeterministic(t *testing.T) {
	tr := btree.Tiny(11)
	cfg := Config{Procs: 4, Seed: 1, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 4}}}
	a := Run(tr, cfg)
	if !a.Terminated || !a.OptimumOK {
		t.Fatalf("restart run failed: %+v", a)
	}
	if math.IsNaN(a.DetectTimes[2]) || math.IsInf(a.DetectTimes[2], 1) {
		t.Fatalf("restarted process did not detect termination: %v", a.DetectTimes)
	}
	b := Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Completions != b.Completions || a.Net != b.Net {
		t.Errorf("nondeterministic under restart:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRestartRebuildsFromGossip: a process that crashes late — after
// expanding a large share of the tree — and restarts re-enters with an empty
// table and rebuilds from peers' reports; the run must converge without
// state from its previous life.
func TestRestartRebuildsFromGossip(t *testing.T) {
	tr := btree.Tiny(12)
	base := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	res := Run(tr, Config{Procs: 3, Seed: 7, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.5 * base.Time, Node: 0, Restart: 0.6 * base.Time}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("late-restart run failed: %+v", res)
	}
}

// TestRestartAfterSystemTerminated: a process that comes back after everyone
// else finished must still learn the outcome (terminated peers answer its
// work requests with the root report) and terminate instead of recovering
// the whole tree alone forever.
func TestRestartAfterSystemTerminated(t *testing.T) {
	tr := btree.Tiny(13)
	base := Run(tr, Config{Procs: 3, Seed: 9, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	res := Run(tr, Config{Procs: 3, Seed: 9, RecoveryQuiet: 3,
		Crashes: []Crash{{Time: 0.3 * base.Time, Node: 1, Restart: base.Time * 3}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("post-termination rejoin failed: %+v", res)
	}
	if math.IsInf(res.DetectTimes[1], 1) {
		t.Fatal("rejoined process never detected termination")
	}
}

// TestRestartWithMembership exercises the §5.2 rejoin path: the restarted
// process announces itself to the gossip servers as a brand-new member,
// rebuilds its view, and finishes the computation with the group.
func TestRestartWithMembership(t *testing.T) {
	tr := btree.Tiny(14)
	res := Run(tr, Config{Procs: 5, Seed: 3, RecoveryQuiet: 5, UseMembership: true,
		Crashes: []Crash{{Time: 2, Node: 3, Restart: 8}, {Time: 3, Node: 4}}})
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("membership rejoin run failed: %+v", res)
	}
	if math.IsNaN(res.DetectTimes[3]) {
		t.Fatal("restarted member counted as crashed")
	}
}

// --- adversarial delivery ------------------------------------------------------

// TestChaosSoakDupReorder is the acceptance soak: with Duplicate 0.2 and
// reordering enabled, 50 seeds must all terminate with the correct optimum.
func TestChaosSoakDupReorder(t *testing.T) {
	tr := btree.Tiny(21)
	for seed := int64(0); seed < 50; seed++ {
		res := Run(tr, Config{
			Procs: 3, Seed: seed, RecoveryQuiet: 3,
			Duplicate: 0.2, Reorder: 0.3,
		})
		if !res.Terminated || !res.OptimumOK {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		if res.Net.Duplicated == 0 || res.Net.Reordered == 0 {
			t.Fatalf("seed %d: chaos knobs had no effect: %+v", seed, res.Net)
		}
	}
}

// TestChaosSoakCrossProduct sweeps seeds across the full fault surface —
// restart, duplication, reordering, stale replay, loss, partition, and all
// of them at once — asserting termination, the exact optimum, and a bounded
// redundant-work counter for every cell.
func TestChaosSoakCrossProduct(t *testing.T) {
	tr := btree.Tiny(22)
	base := Run(tr, Config{Procs: 4, Seed: 0, RecoveryQuiet: 3})
	if !base.Terminated {
		t.Fatal("baseline did not terminate")
	}
	half := base.Time / 2
	scenarios := []struct {
		name string
		mut  func(*Config)
	}{
		{"restart", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}}
		}},
		{"dup", func(c *Config) { c.Duplicate = 0.25 }},
		{"reorder", func(c *Config) { c.Reorder = 0.4 }},
		{"replay", func(c *Config) { c.Replay = 0.1; c.ReplayDelay = 2 }},
		{"loss", func(c *Config) { c.Loss = 0.15 }},
		{"partition", func(c *Config) {
			c.Partitions = []Partition{{Start: half / 2, End: half, Group: []int{0, 1}}}
		}},
		{"everything", func(c *Config) {
			c.Crashes = []Crash{{Time: half / 2, Node: 1, Restart: half}, {Time: half, Node: 3}}
			c.Duplicate = 0.2
			c.Reorder = 0.3
			c.Replay = 0.05
			c.ReplayDelay = 2
			c.Loss = 0.1
			c.Partitions = []Partition{{Start: half / 2, End: half, Group: []int{0, 1}}}
		}},
	}
	for _, sc := range scenarios {
		for seed := int64(0); seed < 8; seed++ {
			cfg := Config{Procs: 4, Seed: seed, RecoveryQuiet: 3}
			sc.mut(&cfg)
			res := Run(tr, cfg)
			if !res.Terminated || !res.OptimumOK {
				t.Fatalf("%s/seed %d: %+v", sc.name, seed, res)
			}
			// Redundant work is the price of uncoordinated fault tolerance,
			// but it must stay bounded: a run-away re-expansion loop would
			// redo the tree many times over.
			if res.Redundant > 5*res.Unique {
				t.Fatalf("%s/seed %d: unbounded redundancy: %d redundant vs %d unique",
					sc.name, seed, res.Redundant, res.Unique)
			}
		}
	}
}

// TestChaosDupReorderDeterministic: adversarial delivery draws from the same
// seeded kernel source, so even maximally mangled runs stay reproducible.
func TestChaosDupReorderDeterministic(t *testing.T) {
	tr := btree.Tiny(23)
	cfg := Config{Procs: 4, Seed: 42, RecoveryQuiet: 3,
		Duplicate: 0.3, Reorder: 0.5, Replay: 0.1, ReplayDelay: 1,
		Crashes: []Crash{{Time: 1, Node: 2, Restart: 3}}}
	a, b := Run(tr, cfg), Run(tr, cfg)
	if a.Time != b.Time || a.Expanded != b.Expanded || a.Net != b.Net {
		t.Errorf("nondeterministic under full chaos:\n%+v\nvs\n%+v", a.Net, b.Net)
	}
}

// TestCrashAfterTermination: a process that detected termination and then
// crashes is counted crashed (NaN detection); the survivors' results stand.
func TestCrashAfterTermination(t *testing.T) {
	tr := btree.Tiny(13)
	cfg := Config{Procs: 3, Seed: 9, RecoveryQuiet: 3}
	base := Run(tr, cfg)
	cfg.Crashes = []Crash{{Time: base.Time + 1, Node: 1}}
	res := Run(tr, cfg)
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("run failed: %+v", res)
	}
	for i, d := range res.DetectTimes {
		if i == 1 {
			if !math.IsNaN(d) {
				t.Errorf("crashed process detected at %g, want NaN", d)
			}
		} else if d != base.DetectTimes[i] {
			t.Errorf("process %d detected at %g, want %g", i, d, base.DetectTimes[i])
		}
	}
}
