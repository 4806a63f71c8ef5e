// Command perfbench is the repository's end-to-end benchmark: time to a
// correct optimum on real problems, in both runtimes, and the per-expansion
// cost of each layer on the way there.
//
//	perfbench --workload live-mem-1|live-tcp-2|sim-faults --seed N --seconds S --trace 0|1
//
// Each workload runs as a closed loop — one client, one solve at a time,
// each started when the previous one returned — and every optimum is checked
// against this run's own sequential solve. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it solves the same inputs untraced and
// traced, replays what the traced solves recorded through each layer, and
// prints the per-layer metrics. The last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "live-mem-1", "workload: live-mem-1, live-tcp-2 or sim-faults")
	seed := flag.Int64("seed", 12, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	b, err := setUp(*w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = b.endToEnd(d)
	} else {
		res, err = b.perLayer(d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, or "unknown" when it
// was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
