// Package sim is the closed-loop discrete-event audit simulator: the
// end-to-end deployment story the static experiments cannot measure.
// A seeded kernel advances virtual time over a min-heap of events; the
// module layer wires the existing stack into a loop — traffic
// generators draw per-period alert counts from internal/dist models, a
// policy host drives an Auditor through Observe/Select exactly as the
// serve layer does, a drift injector mutates the generators mid-run,
// and an adaptive attacker best-responds to the installed policy with
// an observation lag. The simulator measures what no static bank can:
// cumulative regret against a per-period reference solve on the true
// model (one CGGS solve at its caps, a heuristic and not an optimum),
// empirical detection cross-checked against the model's Pat, refit
// counts, and time-to-recover after each injected drift.
//
// Determinism contract: one seed ⇒ one bitwise-identical event trace
// and output curves, at any GOMAXPROCS. The kernel dispatches events
// single-threaded in (time, schedule-sequence) order, every random
// draw comes from module-private RNGs seeded by pure functions of the
// scenario seed, and the solver engine underneath is itself
// bitwise-deterministic at every worker count, so nothing in the loop
// observes scheduling noise. TraceHash folds every dispatched event
// into an FNV-64a digest that tests compare across runs and worker
// counts.
package sim

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"auditgame/internal/telemetry"
)

// Event is one scheduled occurrence: a virtual-time instant, a kind
// label (folded into the trace hash, so traces are comparable across
// refactors that keep event semantics), and the action to run.
type Event struct {
	// Time is the virtual time the event fires at.
	Time float64
	// Kind labels the event for the trace ("traffic", "refit", ...).
	Kind string
	// Run is the event body, executed when the event is dispatched.
	Run func()

	seq uint64 // schedule order, the tie-breaker
}

// eventHeap orders events by (Time, seq): virtual time first, then the
// order they were scheduled in. The sequence tie-break makes dispatch
// order a pure function of the schedule calls — two events at the same
// instant always fire in scheduling order, never in heap-internal
// order.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is the discrete-event core: a clock, the pending-event heap,
// and the dispatch trace. It is deliberately single-threaded — events
// run one at a time in deterministic order, and any parallelism lives
// inside an event body (the solver engine), where it is already
// bitwise-deterministic.
type Kernel struct {
	now        float64
	seq        uint64
	queue      eventHeap
	dispatched int
	trace      uint64
	events     *telemetry.Counter
}

// NewKernel returns an empty kernel at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{trace: fnv.New64a().Sum64()}
}

// Now returns the current virtual time: the timestamp of the event
// being dispatched, or of the last dispatched one between events.
func (k *Kernel) Now() float64 { return k.now }

// Schedule enqueues an event at virtual time at. Scheduling into the
// past is a bug in the calling module, reported as an error rather
// than silently reordering history.
func (k *Kernel) Schedule(at float64, kind string, run func()) error {
	if at < k.now {
		return fmt.Errorf("sim: event %q scheduled at %v, before current time %v", kind, at, k.now)
	}
	if run == nil {
		return fmt.Errorf("sim: event %q has no body", kind)
	}
	e := &Event{Time: at, Kind: kind, Run: run, seq: k.seq}
	k.seq++
	heap.Push(&k.queue, e)
	return nil
}

// Instrument attaches a dispatch counter that Run increments once per
// event. The counter is outside the trace fold, so instrumented and
// uninstrumented runs produce identical trace hashes; a nil counter
// (telemetry disabled) costs one nil check per dispatch.
func (k *Kernel) Instrument(events *telemetry.Counter) { k.events = events }

// Run dispatches events in (time, schedule-order) until the queue is
// empty, returning the number dispatched. Event bodies may schedule
// further events.
func (k *Kernel) Run() int {
	start := k.dispatched
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*Event)
		k.now = e.Time
		k.fold(e)
		k.dispatched++
		k.events.Inc()
		e.Run()
	}
	return k.dispatched - start
}

// Dispatched returns the total number of events dispatched so far.
func (k *Kernel) Dispatched() int { return k.dispatched }

// TraceHash returns the FNV-64a digest of every dispatched event's
// (time, sequence, kind) — the reproducibility fingerprint: equal
// hashes mean the two runs dispatched the identical event sequence.
func (k *Kernel) TraceHash() uint64 { return k.trace }

// fold mixes one dispatched event into the trace digest.
func (k *Kernel) fold(e *Event) {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], k.trace)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(e.Time))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], e.seq)
	h.Write(buf[:])
	h.Write([]byte(e.Kind))
	k.trace = h.Sum64()
}

// subSeed derives a module-private RNG seed from the scenario seed and
// a label, so every module gets an independent deterministic stream
// and adding a module never perturbs the draws of the others.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// subRNG is subSeed materialized as a stream.
func subRNG(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, label)))
}
