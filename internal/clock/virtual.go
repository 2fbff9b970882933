package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a discrete-event clock. Its actors are the goroutines
// started with Go. Time advances only when every actor is parked — and
// a ring hands its parked target straight back to the running set, so
// no ring is outstanding then either. It then jumps to the earliest
// pending deadline and wakes every park due at that instant. Periodic
// deadlines fire in order on the way, but while only periodic ones are
// pending the clock is idle and stays put (WaitIdle returns).
//
// Ringing a bell whose owner is running, and parking with a ring
// pending, are one atomic operation each; only a park that really
// blocks, and a ring that wakes a parked owner, take the clock's lock.
type Virtual struct {
	now atomic.Int64 // read lock-free by Now

	mu      sync.Mutex
	running int      // actors not parked
	hard    int      // parked with a finite, non-periodic deadline
	parked  parkHeap // every parked bell, by deadline
	closed  bool
	idle    sync.Cond // signalled when running == 0 && hard == 0
}

// Resolution is a Virtual clock's tick: every finite deadline rounds
// up to a multiple of it, as a scheduler counts whole ticks. Rounding
// only lengthens a wait. It keeps actors together: computation takes
// no simulated time, so an actor that wakes alone can run all work left
// in the present while the rest wait for a deadline that cannot pass
// until it parks. Without the tick, backoff jitter makes every wake a
// lone one, and a run that could use every CPU uses one.
const Resolution = time.Millisecond

// NewVirtual returns a virtual clock at time 0 with no actors.
func NewVirtual() *Virtual {
	v := &Virtual{}
	v.idle.L = &v.mu
	return v
}

// Now returns the simulated time since the clock started.
func (v *Virtual) Now() time.Duration { return time.Duration(v.now.Load()) }

// Go runs f as a tracked actor. The actor counts as running from this
// call, so time cannot pass between Go and the actor's first park.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.running++
	v.mu.Unlock()
	go func() {
		defer v.exit()
		f()
	}()
}

func (v *Virtual) exit() {
	v.mu.Lock()
	v.running--
	v.settleLocked()
	v.mu.Unlock()
}

// NewBell returns a bell for one tracked actor.
func (v *Virtual) NewBell() Bell { return &vbell{v: v, ch: make(chan bool, 1), idx: -1} }

// WaitIdle blocks until every actor is parked with no finite
// non-periodic deadline pending — nothing can happen again until
// someone rings — or until the clock is closed.
func (v *Virtual) WaitIdle() {
	v.mu.Lock()
	for !v.closed && (v.running > 0 || v.hard > 0) {
		v.idle.Wait()
	}
	v.mu.Unlock()
}

// Close ends simulated time: every parked actor wakes unrung, later
// parks with a finite non-periodic deadline return at once, periodic
// and Never parks wait only for a ring, and WaitIdle stops blocking.
// It is the harness's way out when a real-time watchdog fires.
func (v *Virtual) Close() {
	v.mu.Lock()
	v.closed = true
	for len(v.parked) > 0 {
		v.wakeLocked(v.parked[0], false)
	}
	v.idle.Broadcast()
	v.mu.Unlock()
}

// settleLocked runs whenever an actor parks or exits. Once nothing
// runs it either jumps to the earliest deadline and wakes everything
// due then, or — with no hard deadline left — reports idle.
func (v *Virtual) settleLocked() {
	if v.running > 0 || v.closed {
		return
	}
	if v.hard == 0 {
		v.idle.Broadcast()
		return
	}
	t := v.parked[0].deadline
	v.now.Store(int64(t))
	for len(v.parked) > 0 && v.parked[0].deadline <= t {
		v.wakeLocked(v.parked[0], false)
	}
}

// wakeLocked hands a parked bell's owner back to the running set.
// Callers hold v.mu.
func (v *Virtual) wakeLocked(b *vbell, rung bool) {
	heap.Remove(&v.parked, b.idx)
	if b.hard {
		v.hard--
	}
	b.state.Store(bellIdle)
	v.running++
	b.ch <- rung
}

// Bell states. Idle and Rung flip lock-free; Parked is entered and left
// only under the clock's lock.
const (
	bellIdle   int32 = iota // owner running, no ring pending
	bellRung                // owner running, one ring pending
	bellParked              // owner parked in the heap
)

type vbell struct {
	v     *Virtual
	state atomic.Int32
	ch    chan bool // one send per blocking park: whether it was rung

	// Guarded by v.mu while parked.
	deadline time.Duration
	hard     bool
	idx      int
}

func (b *vbell) Ring() {
	for {
		switch b.state.Load() {
		case bellRung:
			return
		case bellIdle:
			if b.state.CompareAndSwap(bellIdle, bellRung) {
				return
			}
		case bellParked:
			v := b.v
			v.mu.Lock()
			if b.state.Load() == bellParked {
				v.wakeLocked(b, true)
				v.mu.Unlock()
				return
			}
			// Woken by a deadline meanwhile: leave the ring pending.
			v.mu.Unlock()
		}
	}
}

func (b *vbell) Park(deadline time.Duration, periodic bool) bool {
	if b.state.CompareAndSwap(bellRung, bellIdle) {
		return true
	}
	v := b.v
	v.mu.Lock()
	if !b.state.CompareAndSwap(bellIdle, bellParked) {
		// Rung between the check above and the lock.
		b.state.Store(bellIdle)
		v.mu.Unlock()
		return true
	}
	b.hard = !periodic && deadline != Never
	if deadline <= v.Now() || (v.closed && b.hard) {
		b.state.Store(bellIdle)
		v.mu.Unlock()
		return false
	}
	if deadline != Never {
		deadline = (deadline + Resolution - 1) / Resolution * Resolution
	}
	b.deadline = deadline
	heap.Push(&v.parked, b)
	if b.hard {
		v.hard++
	}
	v.running--
	v.settleLocked()
	v.mu.Unlock()
	return <-b.ch
}

// parkHeap orders parked bells by deadline (container/heap).
type parkHeap []*vbell

func (h parkHeap) Len() int           { return len(h) }
func (h parkHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h parkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *parkHeap) Push(x any) {
	b := x.(*vbell)
	b.idx = len(*h)
	*h = append(*h, b)
}
func (h *parkHeap) Pop() any {
	old := *h
	b := old[len(old)-1]
	old[len(old)-1] = nil
	b.idx = -1
	*h = old[:len(old)-1]
	return b
}
