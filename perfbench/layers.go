package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/code"
	"gossipbnb/internal/ctree"
	"gossipbnb/internal/live"
	"gossipbnb/internal/protocol"
)

// The benchmark-side single-process loop gives its core one stand-in peer, so
// the core's reports, table pushes and grants leave through a capturing
// sender instead of vanishing: they are the message stream the replays feed
// back. The peer never answers, so the search itself is the single-process
// one.
const (
	loopPeer     = protocol.NodeID(1)
	loopSamples  = 64  // table pushes and work-request round trips per loop solve
	ctreeSamples = 64  // frontier operations sampled over a completion stream
	locateSample = 256 // cold codes located by fresh expanders
)

type wallClock struct{ start time.Time }

func (c wallClock) Now() float64 { return time.Since(c.start).Seconds() }

type captureSender struct{ out *[]protocol.Msg }

func (s captureSender) Send(_ protocol.NodeID, m protocol.Msg) { *s.out = append(*s.out, m) }

// loopTrace is what one single-process solve recorded.
type loopTrace struct {
	expansions, nextCalls           int
	nextNs, onExpandedNs, outcomeNs float64 // totals; outcome is self time
	requestNs, grantNs              []float64
	grantCodes                      int
	completions                     []code.Code
	items                           []protocol.Item // expansion order
	sent                            []protocol.Msg
}

// timerCost calibrates the probes: tNow is what one time.Now/time.Since pair
// adds to the interval it measures, probe the whole wall cost a probedSub adds
// to one Subproblem call.
type timerCost struct{ tNow, probe float64 }

// constSub is a Subproblem that does no work: calibration times the probe
// around it.
type constSub struct{}

func (constSub) Bound() float64                                         { return 1 }
func (constSub) Feasible() (float64, bool)                              { return 0, false }
func (constSub) Branch() (uint32, bnb.Subproblem, bnb.Subproblem, bool) { return 0, nil, nil, false }

// sinkF keeps the calibration loops from being optimised away.
var sinkF float64

func calibrate() timerCost {
	const n = 200000
	var c timerCost
	var tot time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		tot += time.Since(t)
	}
	c.tNow = float64(tot) / n
	var direct, probed bnb.Subproblem = constSub{}, probedSub{constSub{}, &kernelProbe{}}
	t := time.Now()
	for i := 0; i < n; i++ {
		sinkF += direct.Bound()
	}
	d := time.Since(t)
	t = time.Now()
	for i := 0; i < n; i++ {
		sinkF += probed.Bound()
	}
	c.probe = max(0, float64(time.Since(t)-d)/n)
	return c
}

// runCoreLoop solves p in one benchmark-side process: protocol.New over a
// bnb.Expander of the probed problem, driven Next → Outcome → OnExpanded,
// with every call timed. Every `every` expansions (0: never) the core pushes
// its table to the stand-in peer, and a work request from that peer is
// handled and the grant it yields handed straight back, timing both handlers
// on live search state without losing work.
func runCoreLoop(p bnb.Problem, tc timerCost, every int) (*loopTrace, error) {
	k := &kernelProbe{}
	exp := bnb.NewExpander(probedProblem{p, k})
	lt := &loopTrace{}
	rng := rand.New(rand.NewSource(1))
	peers := []protocol.NodeID{loopPeer}
	core := protocol.New(0, protocol.Config{Prune: true}, protocol.Deps{
		Clock:      wallClock{time.Now()},
		Sender:     captureSender{&lt.sent},
		Expander:   exp,
		Peers:      func() []protocol.NodeID { return peers },
		Rand:       rng.Intn,
		OnComplete: func(c code.Code) { lt.completions = append(lt.completions, c.Clone()) },
	})
	core.Seed(exp.Root())
	for {
		t := time.Now()
		it, st := core.Next()
		lt.nextNs += float64(time.Since(t))
		lt.nextCalls++
		if st == protocol.Terminated {
			return lt, nil
		}
		if st != protocol.Expand {
			return nil, fmt.Errorf("single-process loop: unexpected core status %d", st)
		}
		lt.items = append(lt.items, it)
		kNs, kCalls := k.ns.Load(), k.calls.Load()
		t = time.Now()
		out := exp.Outcome(it)
		d := time.Since(t)
		calls := float64(k.calls.Load() - kCalls)
		lt.outcomeNs += float64(d) - float64(k.ns.Load()-kNs) - calls*(tc.probe-tc.tNow)
		t = time.Now()
		core.OnExpanded(it, out, d.Seconds())
		lt.onExpandedNs += float64(time.Since(t))
		lt.expansions++
		if every > 0 && lt.expansions%every == 0 {
			core.SendTable(loopPeer)
			lt.roundTrip(core)
		}
	}
}

func (lt *loopTrace) roundTrip(core *protocol.Core) {
	n := len(lt.sent)
	t := time.Now()
	core.HandleMessage(loopPeer, protocol.WorkRequest{Incumbent: core.Incumbent()})
	lt.requestNs = append(lt.requestNs, float64(time.Since(t)))
	for _, m := range lt.sent[n:] {
		if g, ok := m.(protocol.WorkGrant); ok {
			t = time.Now()
			core.HandleMessage(loopPeer, g)
			lt.grantNs = append(lt.grantNs, float64(time.Since(t)))
			lt.grantCodes += len(g.Codes)
		}
	}
}

// expanderAllocs replays the loop's expansion order through a fresh,
// unprobed expander and returns its heap allocations per Outcome.
func expanderAllocs(p bnb.Problem, items []protocol.Item) float64 {
	exp := bnb.NewExpander(p)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, it := range items {
		exp.Outcome(it)
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(items)))
}

// coldLocateNs locates evenly spaced completed codes, each through a fresh
// expander, so every one replays its decision path from the root.
func coldLocateNs(p bnb.Problem, codes []code.Code, tc timerCost) float64 {
	if len(codes) == 0 {
		return 0
	}
	step := max(1, len(codes)/locateSample)
	var tot float64
	n := 0
	for i := 0; i < len(codes); i += step {
		exp := bnb.NewExpander(p)
		t := time.Now()
		exp.Locate(codes[i])
		tot += float64(time.Since(t)) - tc.tNow
		n++
	}
	return tot / float64(n)
}

// ctreeTimes is the completion table's cost over the loop's completion
// stream, per call.
type ctreeTimes struct {
	insertNs, codesNs, wireSizeNs, digestNs, complementNs float64
	frontierCodes                                         float64
}

// replayCtree inserts the completions into fresh tables, sampling each
// frontier operation at ctreeSamples evenly spaced points of the stream; each
// operation gets its own pass, so none runs on a frontier cache another one
// just filled.
func replayCtree(comps []code.Code) ctreeTimes {
	var ct ctreeTimes
	if len(comps) == 0 {
		return ct
	}
	ops := []struct {
		into *float64
		op   func(*ctree.Table) int
	}{
		{&ct.wireSizeNs, func(t *ctree.Table) int { return t.WireSize() }},
		{&ct.codesNs, func(t *ctree.Table) int { return len(t.Codes()) }},
		{&ct.digestNs, func(t *ctree.Table) int { return int(t.Digest() & 1) }},
		{&ct.complementNs, func(t *ctree.Table) int { return len(t.Complement(8)) }},
	}
	var insertNs, frontier float64
	inserts, samples := 0, 0
	for pass, o := range ops {
		tab := ctree.New()
		var opNs float64
		n := 0
		stride := max(1, len(comps)/ctreeSamples)
		for i := 0; i < len(comps); i += stride {
			batch := comps[i:min(i+stride, len(comps))]
			t := time.Now()
			for _, c := range batch {
				tab.Insert(c)
			}
			insertNs += float64(time.Since(t))
			inserts += len(batch)
			t = time.Now()
			v := o.op(tab)
			opNs += float64(time.Since(t))
			n++
			if pass == 1 {
				frontier += float64(v)
				samples++
			}
		}
		*o.into = opNs / float64(n)
	}
	ct.insertNs = insertNs / float64(inserts)
	ct.frontierCodes = frontier / float64(samples)
	return ct
}

// codeTimes is the cost of the wire encoding of single codes.
type codeTimes struct{ appendNs, decodeNs, depth float64 }

func replayCode(comps []code.Code) codeTimes {
	var ct codeTimes
	if len(comps) == 0 {
		return ct
	}
	enc := make([][]byte, len(comps))
	var buf []byte
	t := time.Now()
	for i, c := range comps {
		buf = c.Append(buf[:0])
		enc[i] = buf
	}
	ct.appendNs = float64(time.Since(t)) / float64(len(comps))
	for i, c := range comps {
		enc[i] = c.Append(nil)
	}
	t = time.Now()
	for _, b := range enc {
		if _, _, err := code.Decode(b); err != nil {
			panic(err) // Append produced the bytes: a decode error is a bug
		}
	}
	ct.decodeNs = float64(time.Since(t)) / float64(len(comps))
	depth := 0
	for _, c := range comps {
		depth += c.Depth()
	}
	ct.depth = float64(depth) / float64(len(comps))
	return ct
}

// codecTimes is the wire codec's cost per message.
type codecTimes struct{ encodeNs, decodeNs, bytesPerMsg float64 }

// replayCodec encodes and decodes each kind's message sample and returns the
// per-message costs weighted by how many messages of each kind were sent.
func replayCodec(sample *[live.MsgKinds][]protocol.Msg, sent func(k byte) float64) (codecTimes, error) {
	var ct codecTimes
	total := 0.0
	for k, msgs := range sample {
		w := sent(byte(k))
		if len(msgs) == 0 || w == 0 {
			continue
		}
		enc := make([][]byte, len(msgs))
		var buf []byte
		var err error
		t := time.Now()
		for _, m := range msgs {
			if buf, err = protocol.Encode(buf[:0], m); err != nil {
				return ct, fmt.Errorf("encode %T: %w", m, err)
			}
		}
		encNs := float64(time.Since(t)) / float64(len(msgs))
		size := 0
		for i, m := range msgs {
			enc[i], _ = protocol.Encode(nil, m)
			size += len(enc[i])
		}
		t = time.Now()
		for _, b := range enc {
			if _, _, err := protocol.Decode(b); err != nil {
				return ct, fmt.Errorf("decode: %w", err)
			}
		}
		decNs := float64(time.Since(t)) / float64(len(msgs))
		ct.encodeNs += w * encNs
		ct.decodeNs += w * decNs
		ct.bytesPerMsg += w * float64(size) / float64(len(msgs))
		total += w
	}
	if total > 0 {
		ct.encodeNs /= total
		ct.decodeNs /= total
		ct.bytesPerMsg /= total
	}
	return ct, nil
}

// replayHandlers feeds the reports and table pushes of a message stream, in
// order, to one fresh core, timing HandleMessage per kind.
func replayHandlers(p bnb.Problem, msgs []protocol.Msg, tc timerCost) (reportNs, tableNs float64) {
	exp := bnb.NewExpander(p)
	var sink []protocol.Msg
	core := protocol.New(0, protocol.Config{Prune: true}, protocol.Deps{
		Clock:    wallClock{time.Now()},
		Sender:   captureSender{&sink},
		Expander: exp,
		Peers:    func() []protocol.NodeID { return nil },
		Rand:     func(int) int { return 0 },
	})
	var rep, tab []float64
	for _, m := range msgs {
		switch m.(type) {
		case protocol.Report, protocol.TableMsg:
		default:
			continue
		}
		t := time.Now()
		core.HandleMessage(loopPeer, m)
		d := float64(time.Since(t)) - tc.tNow
		if _, ok := m.(protocol.Report); ok {
			rep = append(rep, d)
		} else {
			tab = append(tab, d)
		}
	}
	return mean(rep), mean(tab)
}
