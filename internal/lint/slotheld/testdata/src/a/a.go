// Package a is the slotheld fixture: a miniature of the morsel scheduler,
// with slot-held code that parks (bad) and code that honors the
// release-before-blocking discipline (good).
package a

import (
	"b"
	"sync"
)

// unit and poolJob mirror the scheduler's work-item shapes; the run fields
// are the slot-held roots.
type unit struct {
	id  int
	run func()
}

type poolJob struct {
	run    func(u unit)
	finish func(steals int64)
}

type pool struct {
	mu       sync.Mutex
	slotFree *sync.Cond
	running  int
}

// blockingSend is the sanctioned escape: release the slot, block, reacquire.
func (p *pool) blockingSend(send func() bool) bool {
	p.mu.Lock()
	p.running--
	p.mu.Unlock()
	ok := send()
	p.mu.Lock()
	for p.running >= 4 {
		p.slotFree.Wait()
	}
	p.running++
	p.mu.Unlock()
	return ok
}

type job struct {
	out chan int
	sum int
	// mu guards sum in bounded leaf sections only: safe to take on a slot.
	mu sync.Mutex
	// badMu is held across a blocking send in holdAcrossSend: tainted.
	badMu sync.Mutex
}

// holdAcrossSend parks while holding badMu — off the pool, so slotheld
// stays quiet here (lockheld's territory), but it taints badMu.
func (j *job) holdAcrossSend(v int) {
	j.badMu.Lock()
	j.out <- v
	j.badMu.Unlock()
}

// badDirectSend blocks on the slot: the channel send can park the worker.
func (j *job) badDirectSend(u unit) {
	j.out <- u.id // want `blocking channel send while holding a pool slot`
}

// badReceive parks waiting for input on the slot.
func (j *job) badReceive(u unit) {
	j.sum += <-j.out // want `blocking channel receive while holding a pool slot`
}

// badDrain ranges over a channel on the slot.
func (j *job) badDrain(u unit) {
	for v := range j.out { // want `blocking range over channel while holding a pool slot`
		j.sum += v
	}
}

// badTakesTainted acquires a lock someone parks under.
func (j *job) badTakesTainted(u unit) {
	j.badMu.Lock() // want `acquires a.job.badMu while holding a pool slot`
	j.sum += u.id
	j.badMu.Unlock()
}

// goodLeafLock is a bounded critical section: permitted on a slot.
func (j *job) goodLeafLock(u unit) {
	j.mu.Lock()
	j.sum += u.id
	j.mu.Unlock()
}

// goodTrySend never parks: the select has a default.
func (j *job) goodTrySend(u unit) {
	select {
	case j.out <- u.id:
	default:
		j.sum++
	}
}

// goodEscalate is the scheduler's emit discipline: try non-blocking, then
// route the parking send through blockingSend.
func (j *job) goodEscalate(p *pool, u unit) {
	select {
	case j.out <- u.id:
		return
	default:
	}
	p.blockingSend(func() bool {
		j.out <- u.id
		return true
	})
}

// emitTo mirrors scanJob.emitTo: the returned closure runs on the slot.
func (j *job) emitTo() func(int) bool {
	return func(v int) bool {
		j.out <- v // want `blocking channel send while holding a pool slot`
		return true
	}
}

func dispatchMethods(j *job, p *pool) {
	_ = &poolJob{run: j.badDirectSend, finish: func(int64) {}}
	_ = &poolJob{run: j.badReceive}
	_ = &poolJob{run: j.badDrain}
	_ = &poolJob{run: j.badTakesTainted}
	_ = &poolJob{run: j.goodLeafLock}
	_ = &poolJob{run: j.goodTrySend}
	_ = &poolJob{run: func(u unit) { j.goodEscalate(p, u) }}
}

func dispatchEmit(j *job) {
	_ = &poolJob{run: func(u unit) {
		emit := j.emitTo()
		emit(u.id)
	}}
}

func dispatchUnits(j *job) []unit {
	us := make([]unit, 2)
	us[0] = unit{id: 0, run: func() {
		j.out <- 0 // want `blocking channel send while holding a pool slot`
	}}
	us[1] = unit{id: 1, run: func() {
		// A goroutine spawned from slot-held code runs off the slot.
		go func() { j.sum++ }()
	}}
	return us
}

// finish hooks run on their own goroutine, never on a slot: a blocking
// completion signal there is fine.
func dispatchFinish(j *job, done chan struct{}) {
	_ = &poolJob{
		run:    j.goodLeafLock,
		finish: func(int64) { done <- struct{}{} },
	}
}

// dispatchCross queues work that calls across a package boundary: the
// may-block verdict comes from b's imported function summaries.
func dispatchCross(ch chan int) {
	_ = &poolJob{run: func(u unit) {
		b.Fine(ch)
		b.Blocks(ch) // want `call to b.Blocks may block`
	}}
}
