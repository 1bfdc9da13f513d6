package segment

import (
	"context"
	"sync/atomic"
)

// Stats aggregates one segmentation run's fork counts. A caller that
// wants them attaches a sink with WithStats before SegmentContext; the
// extraction pipeline publishes them on its segment span and in the
// segment.forks counter.
type Stats struct {
	// Spawned counts subtree recursions (and direction searches)
	// forked onto the worker pool.
	Spawned atomic.Int64
	// Inline counts forks the gate denied, which then ran inline on
	// the requesting goroutine. Inline work is the designed fallback,
	// not an error — it is what guarantees progress under saturation.
	Inline atomic.Int64
}

func (st *Stats) addSpawned() {
	if st != nil {
		st.Spawned.Add(1)
	}
}

func (st *Stats) addInline() {
	if st != nil {
		st.Inline.Add(1)
	}
}

// StealGateForTest occupies every free slot of the segmenter's branch
// gate, simulating a pool exhausted by concurrent runs; it reports
// false for sequential segmenters (no gate). Test hook only — the path
// it exercises (gate denial → inline recursion → Stats.Inline) cannot be
// triggered deterministically from outside.
func (s *Segmenter) StealGateForTest() bool {
	if s.gate == nil {
		return false
	}
	n := 0
	for s.gate.TryAcquire() {
		n++
	}
	s.stolen += n
	return n > 0
}

// ReleaseGateForTest returns the slots StealGateForTest took.
func (s *Segmenter) ReleaseGateForTest() {
	for ; s.stolen > 0; s.stolen-- {
		s.gate.Release()
	}
}

type statsKey struct{}

// WithStats derives a context carrying a fresh Stats sink that the next
// SegmentContext call on it will fill.
func WithStats(ctx context.Context) (context.Context, *Stats) {
	st := &Stats{}
	return context.WithValue(ctx, statsKey{}, st), st
}

// statsFrom returns the run's stats sink, or nil when none is attached.
func statsFrom(ctx context.Context) *Stats {
	st, _ := ctx.Value(statsKey{}).(*Stats)
	return st
}
