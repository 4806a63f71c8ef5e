package dbnb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/metrics"
)

// Result fingerprints pin the paths the golden event-order hashes cannot
// reach: those hash the kernel's firing order, which needs the fire hook,
// which forces the legacy serial kernel. The sharded single-instance path and
// the multi-instance path are pinned here instead, by an FNV-1a hash over
// everything a run reports: times, per-process detection, expansion and
// completion counts, events, network totals, and every process's expansions
// and Figure-3 time split. A moved fingerprint means the run's observable
// outcome changed.
const (
	fingerprintMeshShards1 uint64 = 0x9f7b79cc9b2dc65b
	fingerprintMeshShards4 uint64 = 0xeff86315e7540f84
	fingerprintInstances   uint64 = 0x107157479cf9e7e4
)

func fingerprint(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// appendNodes adds each process's expansions and time split.
func appendNodes(v []float64, sys *metrics.System) []float64 {
	for i := range sys.Nodes {
		n := &sys.Nodes[i]
		v = append(v, float64(n.Expanded))
		for a := metrics.BB; a <= metrics.Idle; a++ {
			v = append(v, n.Get(a))
		}
	}
	return v
}

func resultFingerprint(res Result) uint64 {
	v := append([]float64{res.Time}, res.DetectTimes...)
	v = append(v, float64(res.Expanded), float64(res.Unique), float64(res.Redundant),
		float64(res.Completions), float64(res.Events),
		float64(res.Net.Sent), float64(res.Net.Bytes), float64(res.Net.Lost))
	return fingerprint(appendNodes(v, res.Met))
}

func multiFingerprint(res MultiResult) uint64 {
	v := []float64{res.Time, float64(res.Events),
		float64(res.Net.Sent), float64(res.Net.Bytes), float64(res.Net.Lost)}
	for i, ir := range res.Instances {
		v = append(v, ir.Time)
		v = append(v, ir.DetectTimes...)
		v = append(v, float64(ir.Expanded), float64(ir.Unique), float64(ir.Redundant), float64(ir.Completions))
		v = appendNodes(v, res.Met.At(i))
	}
	return fingerprint(v)
}

// meshFaults is a single-instance knapsack on the sharded substrate with a
// crash-stop, a crash-restart, and 1 % loss.
func meshFaults(shards int) Result {
	p := bnb.RandomKnapsack(rand.New(rand.NewSource(41)), 24)
	return RunProblemRef(p, bnb.SolveProblem(p), Config{
		Procs:  8,
		Seed:   5,
		Shards: shards,
		Prune:  true,
		Select: DepthFirst,
		Loss:   0.01,
		Crashes: []Crash{
			{Time: 2, Node: 1, Restart: 6},
			{Time: 4, Node: 2},
		},
	})
}

func TestFingerprintMeshShards1(t *testing.T) {
	checkFingerprint(t, meshFaults(1), fingerprintMeshShards1)
}

func TestFingerprintMeshShards4(t *testing.T) {
	checkFingerprint(t, meshFaults(4), fingerprintMeshShards4)
}

func checkFingerprint(t *testing.T, res Result, want uint64) {
	t.Helper()
	if !res.Terminated || !res.OptimumOK {
		t.Fatalf("run failed: terminated=%v optimumOK=%v", res.Terminated, res.OptimumOK)
	}
	if got := resultFingerprint(res); got != want {
		t.Errorf("result fingerprint = %#x, want %#x — the run's outcome changed", got, want)
	}
}

// TestFingerprintInstances pins RunInstances on one shard through a
// whole-process crash and an instance-scoped crash.
func TestFingerprintInstances(t *testing.T) {
	res := RunInstances(Config{
		Procs:     8,
		Seed:      7,
		Shards:    1,
		Prune:     true,
		Select:    DepthFirst,
		Instances: fourInstances(),
		Crashes: []Crash{
			{Time: 8, Node: 3},
			{Time: 12, Node: 5, Instance: 2},
		},
	})
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	for _, ir := range res.Instances {
		if !ir.OptimumOK {
			t.Fatalf("instance %d: optimum %g, want %g", ir.ID, ir.Optimum, ir.SeqOptimum)
		}
	}
	if got := multiFingerprint(res); got != fingerprintInstances {
		t.Errorf("result fingerprint = %#x, want %#x — the run's outcome changed", got, fingerprintInstances)
	}
}
