// Package clock is the fleet stack's one source of time. Every timer,
// sleep and periodic tick in the node agent, the transport, the
// collector and the fleet harness waits through a Clock:
//
//   - Real is wall time. It is the default of every zero-value config,
//     so a collector or agent built outside the fleet harness behaves
//     exactly as plain timers would.
//   - Virtual is a discrete-event clock. Time stands still while any
//     tracked actor runs; once every actor is parked, it jumps to the
//     earliest deadline and wakes whoever waits on it. fleet.Run always
//     uses it, so a chaos run is bound by work, not by timers.
//
// The DP-Box already counts time in cycles; Virtual carries a
// simulated time base from the box out to the whole fleet.
package clock

import (
	"math"
	"time"
)

// Never is a Park deadline that never passes: the park ends only on a
// Ring (or when a Virtual clock closes).
const Never = time.Duration(math.MaxInt64)

// Clock is a time source and the parking primitives that wait on it.
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// NewBell returns a bell for one parking goroutine at a time.
	NewBell() Bell
	// Go runs f on a new goroutine that the clock tracks as an actor.
	// Only tracked actors may park on a Virtual clock's bells.
	Go(f func())
}

// Bell parks one goroutine until it is rung or a deadline passes.
type Bell interface {
	// Ring ends the current park, or the next one if the owner is not
	// parked. Rings do not queue: several rings before a park end just
	// that one park. Any goroutine may ring.
	Ring()
	// Park blocks until Ring or until Now reaches deadline, and reports
	// whether it was rung. A ring pending from before the call returns
	// at once. A periodic deadline (a ticker's next tick) fires in
	// order like any other, but never advances a Virtual clock by
	// itself: an idle system with only tickers left stays put.
	Park(deadline time.Duration, periodic bool) bool
}

// Or returns c, or Real when c is nil: the zero-value default of every
// config that takes a Clock.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// Real is wall time. Its Go is a plain go statement.
var Real Clock = realClock{}

// epoch anchors Real.Now; time.Since reads the monotonic clock.
var epoch = time.Now()

type realClock struct{}

func (realClock) Now() time.Duration { return time.Since(epoch) }

func (realClock) Go(f func()) { go f() }

func (realClock) NewBell() Bell { return &realBell{ch: make(chan struct{}, 1)} }

// realBell is a cap-1 doorbell channel plus one reusable timer, so a
// steady-state park allocates nothing. The timer stays armed across a
// ring: a reactor parking again for the same next tick neither reads
// the time nor re-arms. When a ring and the deadline are both due, the
// select picks either, so a busy owner's deadline still fires.
type realBell struct {
	ch    chan struct{}
	t     *time.Timer
	armed time.Duration // the deadline t is set for
	live  bool          // t is set and its fire not yet consumed
}

func (b *realBell) Ring() {
	select {
	case b.ch <- struct{}{}:
	default:
	}
}

func (b *realBell) Park(deadline time.Duration, _ bool) bool {
	if deadline == Never {
		<-b.ch
		return true
	}
	if !b.live || deadline != b.armed {
		d := deadline - Real.Now()
		if d <= 0 {
			return false
		}
		if b.t == nil {
			b.t = time.NewTimer(d)
		} else {
			// Stop, and drain a fire of the old deadline so it cannot
			// end this park (pre-1.23 timer channels keep it).
			if !b.t.Stop() {
				select {
				case <-b.t.C:
				default:
				}
			}
			b.t.Reset(d)
		}
		b.armed, b.live = deadline, true
	}
	select {
	case <-b.ch:
		return true
	case <-b.t.C:
		b.live = false
		return false
	}
}
