package main

import (
	"fmt"
	"os"
	"time"

	"gossipbnb/internal/protocol"
)

// tally counts solves attempted and failed — timed out, not terminated, or
// terminated with another optimum than the sequential reference — and, of
// the failed, those that returned a wrong optimum.
func tally(ss []solve) (attempted, failed, wrong int) {
	for _, s := range ss {
		attempted++
		if !s.ok {
			failed++
			if !s.timedOut {
				wrong++
			}
		}
	}
	return attempted, failed, wrong
}

// sameCounts reports whether two solves of one scenario agree on the counts
// the simulator must repeat exactly.
func sameCounts(a, b solve) bool {
	return a.virt == b.virt && a.expanded == b.expanded && a.msgs == b.msgs
}

// endToEnd measures the workload untraced and returns the end-to-end
// metrics.
func (b *bench) endToEnd(d time.Duration) (result, error) {
	warm, ss, err := b.loop(d)
	if err != nil {
		return result{}, err
	}
	att, failed, wrong := tally(append([]solve{warm}, ss...))
	correct := wrong == 0
	if b.w.sim() {
		// Later passes re-solve the same scenarios: the simulator is
		// deterministic in its inputs, so every count must repeat.
		for i := len(b.set); i < len(ss); i++ {
			if !sameCounts(ss[i], ss[i%len(b.set)]) {
				fmt.Fprintf(os.Stderr, "perfbench: scenario %d did not repeat\n", i%len(b.set))
				correct = false
			}
		}
	}
	seqExp := float64(b.ref.Expanded)
	// A solve's peak memory is bimodal on the live workloads — it depends on
	// where a collection falls — so its median jumps between the modes from
	// run to run; the mean does not.
	mem := mean(values(ss, func(s solve) float64 { return s.memMB }))
	// On a shared host the speed of the whole machine drifts by a quarter
	// over minutes, and every time with it. Times are scaled to the reference
	// VM by the host probe run between set-ups and solves; the probe shares
	// no code with the program, so every change to the program shows in full.
	probe := median(b.probes)
	solveS := b.timing(ss, func(s solve) float64 { return s.wall })
	cpuS := b.timing(ss, func(s solve) float64 { return s.cpu })
	setupS := median(b.setup)
	fmt.Printf("unscaled solve_s=%g cpu_s=%g setup_s=%g host_probe_s=%g\n", solveS, cpuS, setupS, probe)
	return result{
		Correct:   correct,
		Attempted: att,
		Failed:    failed,
		Metrics: map[string]metric{
			"solve_s":     {solveS * probeRefS / probe, "s"},
			"cpu_s":       {cpuS * probeRefS / probe, "s"},
			"work_x":      {b.aggregate(ss, func(s solve) float64 { return float64(s.expanded) / seqExp }), "x"},
			"effort_x":    {b.aggregate(ss, func(s solve) float64 { return float64(int64(s.expanded)+s.msgs) / seqExp }), "x"},
			"setup_s":     {setupS * probeRefS / probe, "s"},
			"peak_mem_mb": {mem, "MB"},
		},
	}, nil
}

// liveKinds are the message kinds whose live byte counts are reported.
var liveKinds = []byte{
	protocol.KindReport, protocol.KindTable, protocol.KindRequest, protocol.KindGrant,
	protocol.KindDeny, protocol.KindDigestReport, protocol.KindSubtreeReply,
}

// tracedPairs solves the same inputs untraced and then traced, returning
// every solve made (for the failure tally), the untraced and the traced ones.
// On sim-faults it also checks that both agree exactly.
func (b *bench) tracedPairs(d time.Duration, pr *probes) (all, un, tr []solve, correct bool, err error) {
	if b.w.sim() {
		set := b.set[:simTraceScenarios]
		all = append(all, b.solveSim(set[0], nil))
		for _, sc := range set {
			un = append(un, b.solveSim(sc, nil))
		}
		for _, sc := range set {
			tr = append(tr, b.solveSim(sc, pr))
		}
	} else {
		warm, ss, err := b.loop(d / 3)
		if err != nil {
			return nil, nil, nil, false, err
		}
		all, un = append(all, warm), ss
		for _, u := range un {
			s, err := b.solveLive(u.seed, pr)
			if err != nil {
				return nil, nil, nil, false, err
			}
			tr = append(tr, s)
		}
	}
	all = append(append(all, un...), tr...)
	_, _, wrong := tally(all)
	correct = wrong == 0
	if b.w.sim() {
		// The probes must measure the very program the untraced run measures.
		for i := range un {
			if !sameCounts(un[i], tr[i]) {
				fmt.Fprintf(os.Stderr, "perfbench: traced scenario %d differs: virtual %g/%g s, expanded %d/%d, msgs %d/%d\n",
					i, un[i].virt, tr[i].virt, un[i].expanded, tr[i].expanded, un[i].msgs, tr[i].msgs)
				correct = false
			}
		}
	}
	return all, un, tr, correct, nil
}

// perLayer runs the traced pairs, replays what the traced solves and the
// benchmark-side single-process loop recorded through each layer, and
// returns the per-layer metrics. A layer the workload does not exercise
// reports 0.
func (b *bench) perLayer(d time.Duration) (result, error) {
	tc := calibrate()
	pr := &probes{kernel: &kernelProbe{}}
	all, un, tr, correct, err := b.tracedPairs(d, pr)
	if err != nil {
		return result{}, err
	}
	att, failed, _ := tally(all)

	// A first, uninstrumented loop solve counts the expansions, so the
	// measured one can spread its samples over the whole search.
	lt, err := runCoreLoop(b.prob, tc, 0)
	if err != nil {
		return result{}, err
	}
	if lt, err = runCoreLoop(b.prob, tc, max(1, lt.expansions/loopSamples)); err != nil {
		return result{}, err
	}
	agg := func(f func(solve) float64) float64 { return b.aggregate(un, f) }
	sum := func(ss []solve, f func(solve) float64) float64 {
		t := 0.0
		for _, s := range ss {
			t += f(s)
		}
		return t
	}
	kind := func(k byte) func(solve) float64 { return func(s solve) float64 { return float64(s.kindSent[k]) } }
	kindBytes := func(k byte) func(solve) float64 { return func(s solve) float64 { return float64(s.kindBytes[k]) } }

	// What the workload's own solves exercised.
	requests, grants := agg(kind(protocol.KindRequest)), agg(kind(protocol.KindGrant))
	reports, tables := agg(kind(protocol.KindReport)), agg(kind(protocol.KindTable))
	recoveries := agg(func(s solve) float64 { return float64(s.recoveries) })
	expanded := agg(func(s solve) float64 { return float64(s.expanded) })
	wall := b.timing(un, func(s solve) float64 { return s.wall })

	// The message stream the replays feed back: what the live transport
	// carried, or — for the simulator, whose network cannot be wrapped from
	// outside — the single-process loop's own reports, pushes and grants.
	var stream []protocol.Msg
	var net probedNet
	for _, pn := range pr.net {
		for k, ms := range pn.sample {
			net.sample[k] = append(net.sample[k], ms...)
			stream = append(stream, ms...)
		}
		net.sendNs += pn.sendNs
		net.sends += pn.sends
		net.sendDur = append(net.sendDur, pn.sendDur...)
		for k := range net.kinds.Bytes {
			net.kinds.Bytes[k] += pn.kinds.Bytes[k]
		}
	}
	if b.w.sim() {
		stream = lt.sent
	}
	var codec codecTimes
	if b.w.tcp {
		// Only the TCP transport encodes: the in-memory one and the simulator
		// pass messages as values.
		if codec, err = replayCodec(&net.sample, func(k byte) float64 { return agg(kind(k)) }); err != nil {
			return result{}, err
		}
	}
	reportNs, tableNs := replayHandlers(b.prob, stream, tc)
	requestNs, grantNs := 0.0, 0.0
	if requests > 0 {
		requestNs = mean(lt.requestNs) - tc.tNow
	}
	if grants > 0 {
		grantNs = mean(lt.grantNs) - tc.tNow
	}
	locateNs := 0.0
	if grants > 0 || recoveries > 0 {
		locateNs = coldLocateNs(b.prob, lt.completions, tc)
	}
	ct := replayCtree(lt.completions)
	cd := replayCode(lt.completions)
	allocs := expanderAllocs(b.prob, lt.items)

	loopExp := float64(lt.expansions)
	nextNs := lt.nextNs/float64(lt.nextCalls) - tc.tNow
	onExpNs := lt.onExpandedNs/loopExp - tc.tNow
	outcomeNs := lt.outcomeNs/loopExp - tc.tNow
	trExp := sum(tr, func(s solve) float64 { return float64(s.expanded) })
	kernelNs := ratio(float64(pr.kernel.ns.Load())-float64(pr.kernel.calls.Load())*tc.tNow, trExp)
	n := float64(len(tr))
	perSolve := func(x float64) float64 { return ratio(x, n) }
	seqS := median(b.seqRef)

	// The layer budget: each layer's cost per expansion of this workload,
	// as a share of the untraced CPU time per expansion.
	cpuPerExp := ratio(b.timing(un, func(s solve) float64 { return s.cpu })*1e9, expanded)
	perExp := func(x float64) float64 { return ratio(x, expanded) }
	codesPerGrant := ratio(float64(lt.grantCodes), float64(len(lt.grantNs)))
	ctreeNs := ct.insertNs*float64(len(lt.completions))/loopExp + ct.codesNs*perExp(tables)
	layers := map[string]float64{
		"kernel":   kernelNs,
		"expander": outcomeNs + locateNs*perExp(grants*codesPerGrant+recoveries),
		"core": max(0, nextNs*float64(lt.nextCalls)/loopExp+onExpNs+
			reportNs*perExp(reports)+tableNs*perExp(tables)+
			requestNs*perExp(requests)+grantNs*perExp(grants)-
			ct.insertNs*float64(len(lt.completions))/loopExp),
		"ctree":     ctreeNs,
		"codec":     (codec.encodeNs + codec.decodeNs) * perExp(agg(func(s solve) float64 { return float64(s.msgs) })),
		"transport": ratio(float64(net.sendNs), trExp) - ratio(float64(net.sends), trExp)*tc.tNow,
	}
	total := 0.0
	for k, v := range layers {
		v = max(0, v)
		layers[k] = v
		total += v
	}
	layers["other"] = max(0, cpuPerExp-total)
	if total < cpuPerExp {
		total = cpuPerExp
	}

	sendNs := 0.0
	if net.sends > 0 {
		sendNs = float64(net.sendNs)/float64(net.sends) - tc.tNow
	}
	m := map[string]metric{
		"trace.overhead_x": {ratio(b.timing(tr, func(s solve) float64 { return s.wall }), wall), "x"},
		"wire_mb":          {agg(func(s solve) float64 { return float64(s.bytes) }) / 1e6, "MB"},
		"msgs":             {agg(func(s solve) float64 { return float64(s.msgs) }), "count"},

		"bnb.kernel_s":     {perSolve(float64(pr.kernel.ns.Load())-float64(pr.kernel.calls.Load())*tc.tNow) / 1e9, "s"},
		"bnb.kernel_calls": {perSolve(float64(pr.kernel.calls.Load())), "count"},
		"bnb.seq_s":        {seqS, "s"},
		"bnb.overhead_x":   {ratio(wall, seqS), "x"},

		"bnb.expander.outcome_ns": {outcomeNs, "ns"},
		"bnb.expander.locate_ns":  {locateNs, "ns"},
		"bnb.expander.allocs":     {allocs, "count"},

		"protocol.core.next_ns":           {nextNs, "ns"},
		"protocol.core.onexpanded_ns":     {onExpNs, "ns"},
		"protocol.core.handle_ns.report":  {reportNs, "ns"},
		"protocol.core.handle_ns.table":   {tableNs, "ns"},
		"protocol.core.handle_ns.request": {requestNs, "ns"},
		"protocol.core.handle_ns.grant":   {grantNs, "ns"},
		"protocol.codec.encode_ns":        {codec.encodeNs, "ns"},
		"protocol.codec.decode_ns":        {codec.decodeNs, "ns"},
		"protocol.codec.bytes_per_msg":    {codec.bytesPerMsg, "B"},
		"protocol.grant_ratio": {ratio(sum(un, kind(protocol.KindGrant)),
			sum(un, kind(protocol.KindRequest))), "ratio"},

		"ctree.insert_ns":      {ct.insertNs, "ns"},
		"ctree.codes_ns":       {ct.codesNs, "ns"},
		"ctree.wiresize_ns":    {ct.wireSizeNs, "ns"},
		"ctree.digest_ns":      {ct.digestNs, "ns"},
		"ctree.complement_ns":  {ct.complementNs, "ns"},
		"ctree.frontier_codes": {ct.frontierCodes, "count"},
		"code.append_ns":       {cd.appendNs, "ns"},
		"code.decode_ns":       {cd.decodeNs, "ns"},
		"code.depth":           {cd.depth, "count"},

		"live.send_ns":     {sendNs, "ns"},
		"live.send_p99_ns": {p99(net.sendDur), "ns"},
		"live.sends":       {perSolve(float64(net.sends)), "count"},
		"live.drops":       {0, "count"},

		"sim.events":        {agg(func(s solve) float64 { return float64(s.events) }), "count"},
		"sim.events_per_s":  {ratio(sum(un, func(s solve) float64 { return float64(s.events) }), sum(un, func(s solve) float64 { return s.wall })), "1/s"},
		"dbnb.virtual_s":    {0, "s"},
		"dbnb.redundant":    {agg(func(s solve) float64 { return float64(s.redundant) }), "count"},
		"dbnb.recoveries":   {recoveries, "count"},
		"dbnb.idle_share":   {agg(func(s solve) float64 { return s.idleShare }), "share"},
		"dbnb.bb_share":     {agg(func(s solve) float64 { return s.bbShare }), "share"},
		"dbnb.storage_mb":   {agg(func(s solve) float64 { return s.storageMB }), "MB"},
		"dbnb.bytes.report": {0, "B"},
		"dbnb.bytes.table":  {0, "B"},
	}
	for _, k := range liveKinds {
		m["live.bytes."+protocol.KindName(k)] = metric{perSolve(float64(net.kinds.Bytes[k])), "B"}
	}
	if b.w.sim() {
		m["dbnb.virtual_s"] = metric{agg(func(s solve) float64 { return s.virt }), "s"}
		m["dbnb.bytes.report"] = metric{agg(kindBytes(protocol.KindReport)), "B"}
		m["dbnb.bytes.table"] = metric{agg(kindBytes(protocol.KindTable)), "B"}
	} else {
		m["live.drops"] = metric{agg(func(s solve) float64 { return float64(s.drops) }), "count"}
	}
	for k, v := range layers {
		m["budget."+k+"_share"] = metric{ratio(v, total), "share"}
	}
	return result{Correct: correct, Attempted: att, Failed: failed, Metrics: m}, nil
}
