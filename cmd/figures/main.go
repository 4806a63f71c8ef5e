// Command figures regenerates every table and figure of the paper's
// evaluation, plus the comparison and ablation experiments listed in
// DESIGN.md.
//
// Usage:
//
//	figures -all                  # everything (the Table 1 sweep takes minutes)
//	figures -fig 3                # one figure (1..6)
//	figures -table 1              # Table 1
//	figures -gran -ft -dib        # selected extra experiments
//	figures -seed 7               # change the deterministic seed
//	figures -quick                # smaller processor counts for Table 1 / Figure 4
package main

import (
	"flag"
	"fmt"
	"os"

	"gossipbnb/internal/exp"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "regenerate figure N (1..6)")
		table   = flag.Int("table", 0, "regenerate table N (1)")
		gran    = flag.Bool("gran", false, "granularity sweep (§6.3.1)")
		ft      = flag.Bool("ft", false, "fault-tolerance scenario matrix")
		dib     = flag.Bool("dib", false, "comparison with DIB (§5.5)")
		central = flag.Bool("central", false, "centralized manager-worker baseline (§3)")
		membr   = flag.Bool("member", false, "membership protocol under churn (§5.2)")
		ablate  = flag.String("ablation", "", "ablation: report, recovery, compress, select, or adaptive")
		all     = flag.Bool("all", false, "run everything")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		quick   = flag.Bool("quick", false, "smaller sweeps for Table 1 / Figure 4")
	)
	flag.Parse()

	out := os.Stdout
	ran := false
	section := func(name string) {
		fmt.Fprintf(out, "\n=== %s ===\n\n", name)
		ran = true
	}

	if *all || *fig == 1 {
		section("Figure 1")
		exp.Figure1(out)
	}
	if *all || *fig == 2 {
		section("Figure 2")
		exp.Figure2(out)
	}
	if *all || *fig == 3 {
		section("Figure 3")
		exp.RenderFigure3(out, exp.Figure3(*seed))
	}
	if *all || *table == 1 {
		section("Table 1")
		procs := exp.Table1Procs
		if *quick {
			procs = []int{10, 30, 50}
		}
		exp.RenderTable1(out, exp.Table1(*seed, procs))
	}
	if *all || *fig == 4 {
		section("Figure 4")
		if *quick {
			exp.RenderFigure4(out, exp.Table1(*seed, []int{10, 20, 40, 70, 100}))
		} else {
			exp.RenderFigure4(out, exp.Figure4(*seed))
		}
	}
	if *all || *fig == 5 {
		section("Figure 5")
		exp.RenderGantt(out, "Figure 5: very small problem, 3 processors, no failures", exp.Figure5(*seed))
	}
	if *all || *fig == 6 {
		section("Figure 6")
		exp.RenderGantt(out,
			"Figure 6: same problem, two processors crash at ~85%; the survivor recovers",
			exp.Figure6(*seed))
	}
	if *all || *gran {
		section("Granularity sweep")
		exp.RenderGranularity(out, exp.Granularity(*seed))
	}
	if *all || *ft {
		section("Fault tolerance")
		exp.RenderFaultTolerance(out, exp.FaultTolerance(*seed))
	}
	if *all || *dib {
		section("DIB comparison")
		exp.RenderDIBComparison(out, exp.DIBComparison(*seed))
	}
	if *all || *central {
		section("Centralized baseline")
		exp.RenderCentralized(out, exp.Centralized(*seed))
	}
	if *all || *membr {
		section("Membership protocol")
		exp.RenderMembership(out, exp.Membership(*seed))
	}
	if *all || *ablate == "report" {
		section("Ablation: report policy")
		exp.RenderAblationReportPolicy(out, exp.AblationReportPolicy(*seed))
	}
	if *all || *ablate == "recovery" {
		section("Ablation: recovery trigger")
		exp.RenderAblationRecoveryPatience(out, exp.AblationRecoveryPatience(*seed))
	}
	if *all || *ablate == "compress" {
		section("Ablation: report compression")
		exp.RenderAblationCompression(out, exp.AblationCompression(*seed))
	}
	if *all || *ablate == "select" {
		section("Ablation: selection rule")
		exp.RenderAblationSelectRule(out, exp.AblationSelectRule(*seed))
	}
	if *all || *ablate == "adaptive" {
		section("Ablation: adaptive reports")
		exp.RenderAblationAdaptiveReports(out, exp.AblationAdaptiveReports(*seed))
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
