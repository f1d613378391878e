// Package qe is the dropmark fixture: a structural double of the engine's
// streaming tree with marked and unmarked drop points.
package qe

import (
	"context"
	"sync/atomic"
)

type Result struct{ ObjID uint64 }

type Batch []Result

// Rows carries the interrupted flag; its presence scopes the analyzer to
// this package.
type Rows struct {
	C           <-chan Batch
	interrupted atomic.Bool
}

// badDoneDrop abandons a batch send in a Done case without marking: the
// timeout vanishes.
func badDoneDrop(ctx context.Context, out chan<- Batch, b Batch, rows *Rows) {
	select {
	case out <- b:
	case <-ctx.Done(): // want `without rows.interrupted.Store`
	}
}

// badDoneDropWindow sends an unnamed window over a sorted slice: the
// channel's element type, not the value's, makes it a batch send.
func badDoneDropWindow(ctx context.Context, out chan<- Batch, all []Result, rows *Rows) {
	select {
	case out <- all[:1:1]:
	case <-ctx.Done(): // want `without rows.interrupted.Store`
		return
	}
}

// badErrReturn abandons a batch stream without marking.
func badErrReturn(ctx context.Context, in <-chan Batch, rows *Rows) {
	for range in {
		if ctx.Err() != nil { // want `context-cancelled early return`
			return
		}
	}
}

// goodDoneDrop is the engine's sanctioned shape.
func goodDoneDrop(ctx context.Context, out chan<- Batch, b Batch, rows *Rows) {
	select {
	case out <- b:
	case <-ctx.Done():
		rows.interrupted.Store(true)
	}
}

// goodErrReturn marks before bailing.
func goodErrReturn(ctx context.Context, in <-chan Batch, rows *Rows) {
	for range in {
		if ctx.Err() != nil {
			rows.interrupted.Store(true)
			return
		}
	}
}

// nonProducer early-exits without touching batches: no stream is cut, no
// mark needed.
func nonProducer(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return 1
}

// doneWithoutBatch stops cleanly without dropping a batch send.
func doneWithoutBatch(ctx context.Context, tick <-chan int) {
	select {
	case <-tick:
	case <-ctx.Done():
	}
}

// suppressedDrop documents a deliberate post-completion drop.
func suppressedDrop(ctx context.Context, out chan<- Batch, b Batch, rows *Rows) {
	select {
	case out <- b:
	//lint:skylint-ignore dropmark limit already reached; the stream is complete as delivered
	case <-ctx.Done():
	}
}
