package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualDeadlinesFireInOrder(t *testing.T) {
	v := NewVirtual()
	var (
		mu  sync.Mutex
		got []time.Duration
	)
	deadlines := []time.Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}
	// Start the actors from one actor, so time cannot pass before the
	// last one exists.
	v.Go(func() {
		for _, d := range deadlines {
			d := d
			v.Go(func() {
				if v.NewBell().Park(d, false) {
					t.Errorf("park until %v reported a ring", d)
				}
				if now := v.Now(); now != d {
					t.Errorf("woke at %v, deadline %v", now, d)
				}
				mu.Lock()
				got = append(got, d)
				mu.Unlock()
			})
		}
	})
	v.WaitIdle()
	want := []time.Duration{time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("woke %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake order %v, want %v", got, want)
		}
	}
	if v.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v after the last deadline, want 5ms", v.Now())
	}
}

// TestVirtualStandsStillWhileAnyActorRuns: a parked deadline must not
// fire while another actor is busy, nor while that actor's ring is
// on its way to the parked one.
func TestVirtualStandsStillWhileAnyActorRuns(t *testing.T) {
	v := NewVirtual()
	waiter := v.NewBell()
	parked := make(chan struct{})
	release := make(chan struct{})
	result := make(chan bool, 1)
	v.Go(func() {
		v.Go(func() {
			<-parked
			<-release // busy: time may not pass
			waiter.Ring()
		})
		close(parked) // about to park; the busy actor above keeps time still
		result <- waiter.Park(time.Millisecond, false)
	})
	<-parked
	// Give the waiter every chance to park and a broken clock every
	// chance to advance.
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Microsecond)
		if v.Now() != 0 {
			t.Fatalf("clock advanced to %v while an actor was running", v.Now())
		}
	}
	close(release)
	if !<-result {
		t.Fatal("the waiter timed out although it was rung before any time passed")
	}
	v.WaitIdle()
	if v.Now() != 0 {
		t.Fatalf("clock at %v, want 0: the ring must beat the deadline", v.Now())
	}
}

// TestVirtualPeriodicAloneNeverAdvances: a ticker with nothing else
// pending leaves the clock idle; a hard deadline then drives it, and
// the ticker fires at each of its instants on the way.
func TestVirtualPeriodicAloneNeverAdvances(t *testing.T) {
	v := NewVirtual()
	const period = 2 * Resolution
	tickBell := v.NewBell()
	var (
		mu    sync.Mutex
		ticks []time.Duration
		stop  bool
	)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		next := period
		for {
			rung := tickBell.Park(next, true)
			mu.Lock()
			if stop {
				mu.Unlock()
				return
			}
			if !rung {
				ticks = append(ticks, v.Now())
				next = v.Now() + period
			}
			mu.Unlock()
		}
	})
	v.WaitIdle()
	if v.Now() != 0 || len(ticks) != 0 {
		t.Fatalf("ticker alone advanced the clock to %v (ticks %v)", v.Now(), ticks)
	}

	v.Go(func() { v.NewBell().Park(5*period+Resolution, false) })
	v.WaitIdle()
	mu.Lock()
	got := append([]time.Duration(nil), ticks...)
	stop = true
	mu.Unlock()
	want := []time.Duration{period, 2 * period, 3 * period, 4 * period, 5 * period}
	if len(got) != len(want) {
		t.Fatalf("ticks at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", got, want)
		}
	}
	if v.Now() != 5*period+Resolution {
		t.Fatalf("clock at %v, want %v", v.Now(), 5*period+Resolution)
	}
	tickBell.Ring()
	<-done
}

func TestVirtualRingBeforeParkIsKept(t *testing.T) {
	v := NewVirtual()
	b := v.NewBell()
	b.Ring()
	b.Ring() // rings do not queue
	res := make(chan [2]bool, 1)
	v.Go(func() {
		first := b.Park(time.Millisecond, false)
		second := b.Park(time.Millisecond, false)
		res <- [2]bool{first, second}
	})
	if got := <-res; got != [2]bool{true, false} {
		t.Fatalf("parks after two early rings = %v, want [true false]", got)
	}
	v.WaitIdle()
	if v.Now() != time.Millisecond {
		t.Fatalf("clock at %v, want 1ms", v.Now())
	}
}

func TestVirtualCloseReleasesParkedActors(t *testing.T) {
	v := NewVirtual()
	results := make(chan bool, 3)
	parkedAll := make(chan struct{}, 3)
	for _, d := range []time.Duration{Never, time.Hour} {
		d := d
		periodic := d == time.Hour
		v.Go(func() {
			parkedAll <- struct{}{}
			results <- v.NewBell().Park(d, periodic)
		})
	}
	<-parkedAll
	<-parkedAll
	v.WaitIdle() // both parked, neither can fire
	v.Close()
	for i := 0; i < 2; i++ {
		if <-results {
			t.Fatal("a park released by Close reported a ring")
		}
	}
	// After Close a hard deadline returns at once instead of waiting
	// for time that will never pass.
	v.Go(func() { results <- v.NewBell().Park(time.Hour, false) })
	select {
	case r := <-results:
		if r {
			t.Fatal("post-close park reported a ring")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-close hard park blocked")
	}
	v.WaitIdle() // must not block once closed
}

func TestRealBell(t *testing.T) {
	b := Real.NewBell()
	start := Real.Now()
	if b.Park(start+2*time.Millisecond, false) {
		t.Fatal("unrung park reported a ring")
	}
	if el := Real.Now() - start; el < 2*time.Millisecond {
		t.Fatalf("park returned after %v, before its 2ms deadline", el)
	}
	if b.Park(Real.Now()-time.Millisecond, false) {
		t.Fatal("past deadline reported a ring")
	}
	go b.Ring()
	if !b.Park(Never, false) {
		t.Fatal("rung park reported a timeout")
	}
	b.Ring()
	if !b.Park(Real.Now()+time.Hour, true) {
		t.Fatal("pending ring was lost")
	}
	if Or(nil) != Real {
		t.Fatal("Or(nil) is not Real")
	}
}

// TestVirtualRoundsDeadlinesToResolution: deadlines between ticks fire
// together on the next tick, never before their own time.
func TestVirtualRoundsDeadlinesToResolution(t *testing.T) {
	v := NewVirtual()
	woke := make(chan time.Duration, 2)
	v.Go(func() {
		for _, d := range []time.Duration{Resolution / 3, Resolution / 2} {
			d := d
			v.Go(func() {
				v.NewBell().Park(d, false)
				woke <- v.Now()
			})
		}
	})
	v.WaitIdle()
	for i := 0; i < 2; i++ {
		if got := <-woke; got != Resolution {
			t.Fatalf("woke at %v, want the next tick %v", got, Resolution)
		}
	}
}
