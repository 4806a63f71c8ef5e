package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gossipbnb/internal/bnb"
	"gossipbnb/internal/live"
	"gossipbnb/internal/protocol"
)

// kernelProbe times and counts every Subproblem call of one problem: the bnb
// kernel's self time. Live clusters call it from several node goroutines, so
// the tallies are atomic.
type kernelProbe struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (k *kernelProbe) note(start time.Time) {
	k.ns.Add(int64(time.Since(start)))
	k.calls.Add(1)
}

// probedProblem wraps a bnb.Problem so every subproblem it derives is timed.
type probedProblem struct {
	inner bnb.Problem
	k     *kernelProbe
}

func (p probedProblem) Root() bnb.Subproblem {
	return probedSub{p.inner.Root(), p.k}
}

// probedSub forwards each Subproblem call to the wrapped state and charges
// its duration to the kernel probe. Children are wrapped in turn, so a whole
// derived tree stays probed.
type probedSub struct {
	inner bnb.Subproblem
	k     *kernelProbe
}

func (s probedSub) Bound() float64 {
	t := time.Now()
	b := s.inner.Bound()
	s.k.note(t)
	return b
}

func (s probedSub) Feasible() (float64, bool) {
	t := time.Now()
	v, ok := s.inner.Feasible()
	s.k.note(t)
	return v, ok
}

func (s probedSub) Branch() (uint32, bnb.Subproblem, bnb.Subproblem, bool) {
	t := time.Now()
	v, zero, one, ok := s.inner.Branch()
	s.k.note(t)
	if !ok {
		return v, zero, one, ok
	}
	return v, probedSub{zero, s.k}, probedSub{one, s.k}, ok
}

// sampleCap bounds the send durations a probedNet keeps for the p99, and the
// messages of each kind it keeps for the codec and handler replays.
const (
	sampleCap     = 4096
	kindSampleCap = 512
)

// probedNet wraps a live.Net: every method is forwarded, each Send is timed
// and counted per message kind, and a bounded sample of the sent messages and
// of the send durations is kept.
type probedNet struct {
	inner live.Net

	mu      sync.Mutex
	sendNs  int64
	sends   int64
	kinds   live.KindStats
	sample  [live.MsgKinds][]protocol.Msg // a uniform reservoir per kind
	sendDur []int64
	rng     *rand.Rand
}

var _ live.Net = (*probedNet)(nil)

func newProbedNet(inner live.Net) *probedNet {
	return &probedNet{inner: inner, rng: rand.New(rand.NewSource(1))}
}

func (n *probedNet) Register(id live.NodeID) <-chan live.Envelope { return n.inner.Register(id) }
func (n *probedNet) Restart(id live.NodeID) <-chan live.Envelope  { return n.inner.Restart(id) }
func (n *probedNet) Add(id live.NodeID) <-chan live.Envelope      { return n.inner.Add(id) }
func (n *probedNet) Learn(id live.NodeID, addr string)            { n.inner.Learn(id, addr) }
func (n *probedNet) AddrOf(id live.NodeID) string                 { return n.inner.AddrOf(id) }
func (n *probedNet) Crash(id live.NodeID)                         { n.inner.Crash(id) }
func (n *probedNet) Crashed(id live.NodeID) bool                  { return n.inner.Crashed(id) }
func (n *probedNet) Exclude(from, to live.NodeID, down bool)      { n.inner.Exclude(from, to, down) }
func (n *probedNet) Stats() (sent, dropped, bytes int64)          { return n.inner.Stats() }
func (n *probedNet) NetStats() live.NetStats                      { return n.inner.NetStats() }
func (n *probedNet) ByKind() live.KindStats                       { return n.inner.ByKind() }
func (n *probedNet) Close()                                       { n.inner.Close() }

func (n *probedNet) Send(from, to live.NodeID, msg live.Message) {
	t := time.Now()
	n.inner.Send(from, to, msg)
	d := int64(time.Since(t))
	k := msgKind(msg)
	n.mu.Lock()
	n.sendNs += d
	n.sends++
	n.kinds.Sent[k]++
	n.kinds.Bytes[k] += int64(msg.Size())
	if len(n.sendDur) < sampleCap {
		n.sendDur = append(n.sendDur, d)
	}
	if pm, ok := msg.(protocol.Msg); ok {
		if seen := n.kinds.Sent[k]; len(n.sample[k]) < kindSampleCap {
			n.sample[k] = append(n.sample[k], pm)
		} else if i := n.rng.Int63n(seen); i < kindSampleCap {
			n.sample[k][i] = pm
		}
	}
	n.mu.Unlock()
}

// msgKind is the accounting bucket of a sent message: its codec kind byte,
// or 0 for messages that expose none.
func msgKind(msg live.Message) byte {
	if km, ok := msg.(interface{ Kind() byte }); ok && int(km.Kind()) < live.MsgKinds {
		return km.Kind()
	}
	return 0
}
