// Package tiers simulates the SDSS multi-tier archive topology of the
// paper's Figure 2: telescope data (T) ships on tape to the Operational
// Archive (OA), calibrated data publishes to the Master Science Archive
// (MSA), replicates to Local Archives (LA), and after one to two years of
// science verification reaches the public archives (MPA/PA) behind a WWW
// server.
//
// The simulation runs on a virtual clock driven by an event queue, so five
// years of survey operations replay in microseconds while preserving every
// latency relationship the figure draws.
package tiers

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"sdss/internal/stats"
)

// Tier is one stage of the archive pipeline.
type Tier int

// The pipeline tiers, in data-flow order.
const (
	Telescope Tier = iota
	Operational
	MasterScience
	Local
	Public
	numTiers
)

// String names the tier as in Figure 2.
func (t Tier) String() string {
	switch t {
	case Telescope:
		return "T"
	case Operational:
		return "OA"
	case MasterScience:
		return "MSA"
	case Local:
		return "LA"
	case Public:
		return "MPA/PA"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Delays holds the per-hop latencies. Defaults follow the paper: tapes
// reach FNAL in a day, reduction takes a week, publication to the science
// archive two weeks, replication to local archives a month, and science
// verification one to two years.
type Delays struct {
	ShipToOA        time.Duration // T → OA (tape shipping + ingest)
	ReduceAtOA      time.Duration // pipeline processing before publishing
	PublishToMSA    time.Duration // OA → MSA
	ReplicateToLA   time.Duration // MSA → LA
	VerifyForPublic time.Duration // MSA → MPA/PA (science verification)
}

// Day approximates one day of survey operations.
const Day = 24 * time.Hour

// DefaultDelays returns the paper's Figure 2 latencies.
func DefaultDelays() Delays {
	return Delays{
		ShipToOA:        1 * Day,
		ReduceAtOA:      6 * Day, // "1 week" including the shipping day
		PublishToMSA:    14 * Day,
		ReplicateToLA:   30 * Day,
		VerifyForPublic: 540 * Day, // 1.5 years
	}
}

// Chunk is one night's data product moving through the tiers.
type Chunk struct {
	ID       int
	Bytes    int64
	Observed time.Time
	// ArrivedAt records when the chunk reached each tier.
	ArrivedAt [numTiers]time.Time
}

// event is one pending tier arrival.
type event struct {
	at    time.Time
	chunk int
	tier  Tier
}

type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at.Before(q[j].at) }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Sim is the archive pipeline simulation.
type Sim struct {
	delays Delays
	now    time.Time
	chunks []*Chunk
	queue  eventQueue
}

// NewSim creates a simulation starting at the given epoch.
func NewSim(delays Delays, epoch time.Time) *Sim {
	return &Sim{delays: delays, now: epoch}
}

// Now returns the virtual clock.
func (s *Sim) Now() time.Time { return s.now }

// Observe records one night of telescope data entering the pipeline at the
// virtual time `at`.
func (s *Sim) Observe(at time.Time, bytes int64) *Chunk {
	c := &Chunk{ID: len(s.chunks), Bytes: bytes, Observed: at}
	c.ArrivedAt[Telescope] = at
	s.chunks = append(s.chunks, c)
	heap.Push(&s.queue, event{at: at.Add(s.delays.ShipToOA), chunk: c.ID, tier: Operational})
	return c
}

// RunUntil advances the virtual clock, delivering every event up to t.
func (s *Sim) RunUntil(t time.Time) {
	for len(s.queue) > 0 && !s.queue[0].at.After(t) {
		ev := heap.Pop(&s.queue).(event)
		s.now = ev.at
		c := s.chunks[ev.chunk]
		c.ArrivedAt[ev.tier] = ev.at
		switch ev.tier {
		case Operational:
			heap.Push(&s.queue, event{
				at:    ev.at.Add(s.delays.ReduceAtOA + s.delays.PublishToMSA),
				chunk: ev.chunk, tier: MasterScience,
			})
		case MasterScience:
			heap.Push(&s.queue, event{
				at:    ev.at.Add(s.delays.ReplicateToLA),
				chunk: ev.chunk, tier: Local,
			})
			heap.Push(&s.queue, event{
				at:    ev.at.Add(s.delays.VerifyForPublic),
				chunk: ev.chunk, tier: Public,
			})
		}
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// Drain runs the simulation until no events remain.
func (s *Sim) Drain() {
	for len(s.queue) > 0 {
		s.RunUntil(s.queue[0].at)
	}
}

// Holdings returns, at the current virtual time, the number of chunks and
// total bytes present at a tier.
func (s *Sim) Holdings(t Tier) (chunks int, bytes int64) {
	for _, c := range s.chunks {
		if !c.ArrivedAt[t].IsZero() && !c.ArrivedAt[t].After(s.now) {
			chunks++
			bytes += c.Bytes
		}
	}
	return chunks, bytes
}

// TierLatency summarizes observation-to-tier latencies over all chunks that
// have reached the tier.
func (s *Sim) TierLatency(t Tier) (mean, min, max time.Duration, n int) {
	var w stats.Welford
	for _, c := range s.chunks {
		if c.ArrivedAt[t].IsZero() {
			continue
		}
		w.Add(c.ArrivedAt[t].Sub(c.Observed).Seconds())
	}
	if w.N() == 0 {
		return 0, 0, 0, 0
	}
	toDur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	return toDur(w.Mean()), toDur(w.Min()), toDur(w.Max()), int(w.N())
}

// Tiers lists the pipeline tiers in flow order.
func Tiers() []Tier {
	out := make([]Tier, 0, numTiers)
	for t := Telescope; t < numTiers; t++ {
		out = append(out, t)
	}
	return out
}

// Chunks returns the chunks in observation order.
func (s *Sim) Chunks() []*Chunk {
	out := append([]*Chunk(nil), s.chunks...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
