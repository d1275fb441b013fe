package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitClosed fails the test unless ch closes within 10 s.
func waitClosed(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Done never closed", what)
	}
}

// TestDeadlineContext holds the request deadline to the context
// contract: Err is nil while Done is open; Done closes at the deadline and
// when the parent ends, and is closed by the time Err first reports the
// end, whether or not anyone asked for it before; the first reason
// sticks; Deadline is the earlier of the two deadlines; and a timer or
// hook of an earlier arm ends nothing once the context is armed again.
func TestDeadlineContext(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		var d deadline
		start := time.Now()
		d.arm(context.Background(), 30*time.Millisecond)
		defer d.disarm()
		done := d.Done()
		if err := d.Err(); err != nil || closed(done) {
			t.Fatalf("before the deadline: Err %v, Done closed %v", err, closed(done))
		}
		waitClosed(t, "deadline", done)
		if waited := time.Since(start); waited < 30*time.Millisecond {
			t.Fatalf("Done closed after %v, before the 30ms deadline", waited)
		}
		if err := d.Err(); err != context.DeadlineExceeded {
			t.Fatalf("after the deadline Err = %v, want DeadlineExceeded", err)
		}
	})
	t.Run("parent cancel", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		var d deadline
		d.arm(parent, time.Hour)
		defer d.disarm()
		done := d.Done()
		if err := d.Err(); err != nil || closed(done) {
			t.Fatalf("before the cancel: Err %v, Done closed %v", err, closed(done))
		}
		cancel()
		waitClosed(t, "parent cancel", done)
		if err := d.Err(); err != context.Canceled {
			t.Fatalf("after the parent's cancel Err = %v, want Canceled", err)
		}
	})
	t.Run("parent cancel, polled", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		var d deadline
		d.arm(parent, time.Hour)
		defer d.disarm()
		cancel()
		if err := d.Err(); err != context.Canceled {
			t.Fatalf("Err = %v, want Canceled", err)
		}
		if !closed(d.Done()) {
			t.Fatal("Err reported the end, and Done is open")
		}
	})
	t.Run("Err closes Done", func(t *testing.T) {
		var d deadline
		d.arm(context.Background(), 20*time.Millisecond)
		defer d.disarm()
		done := d.Done()
		for {
			// Whatever the timer's progress, Err never reports the end
			// with Done open.
			if err := d.Err(); err != nil {
				if !closed(done) {
					t.Fatalf("Err = %v with Done open", err)
				}
				break
			}
		}
	})
	t.Run("first reason sticks", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		var d deadline
		d.arm(parent, time.Millisecond)
		defer d.disarm()
		time.Sleep(5 * time.Millisecond)
		if err := d.Err(); err != context.DeadlineExceeded {
			t.Fatalf("Err = %v, want DeadlineExceeded", err)
		}
		cancel()
		if err := d.Err(); err != context.DeadlineExceeded {
			t.Fatalf("after a later cancel Err = %v, want DeadlineExceeded still", err)
		}
		if !closed(d.Done()) {
			t.Fatal("Done asked for after the end is open")
		}
	})
	t.Run("Deadline is the earlier", func(t *testing.T) {
		soon, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		parentAt, _ := soon.Deadline()
		var d deadline
		d.arm(soon, time.Hour)
		if at, ok := d.Deadline(); !ok || !at.Equal(parentAt) {
			t.Fatalf("under a parent ending first, Deadline = %v %v, want the parent's %v", at, ok, parentAt)
		}
		d.disarm()
		before := time.Now()
		d.arm(soon, time.Second)
		if at, ok := d.Deadline(); !ok || at.Before(before.Add(time.Second)) || !at.Before(parentAt) {
			t.Fatalf("ending before its parent, Deadline = %v %v, want about a second from now", at, ok)
		}
		d.disarm()
		d.arm(context.Background(), time.Second)
		if _, ok := d.Deadline(); !ok {
			t.Fatal("under a parent with no deadline, Deadline reports none")
		}
		d.disarm()
	})
	t.Run("rearmed", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		var d deadline
		d.arm(parent, time.Millisecond)
		d.Done() // arms a timer and a hook on the parent
		d.disarm()
		d.arm(context.Background(), time.Hour)
		defer d.disarm()
		done := d.Done()
		cancel()
		time.Sleep(20 * time.Millisecond)
		if err := d.Err(); err != nil || closed(done) {
			t.Fatalf("an earlier arm's timer or hook ended the next: Err %v, Done closed %v", err, closed(done))
		}
	})
	t.Run("concurrent polls", func(t *testing.T) {
		var d deadline
		d.arm(context.Background(), 10*time.Millisecond)
		defer d.disarm()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(blocks bool) {
				defer wg.Done()
				if blocks {
					<-d.Done()
				}
				for d.Err() == nil {
				}
				if !errors.Is(d.Err(), context.DeadlineExceeded) || !closed(d.Done()) {
					t.Errorf("Err %v, Done closed %v", d.Err(), closed(d.Done()))
				}
			}(i%2 == 0)
		}
		wg.Wait()
	})
}

// TestDeadlineArmAllocs: a request that neither waits for a slot nor
// overruns — the deadline armed, polled, disarmed — allocates nothing for
// its deadline.
func TestDeadlineArmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var d deadline
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := testing.AllocsPerRun(100, func() {
		d.arm(parent, time.Minute)
		for i := 0; i < 128; i++ {
			if d.Err() != nil {
				t.Fatal("a minute passed")
			}
		}
		d.disarm()
	})
	if allocs != 0 {
		t.Fatalf("arm, 128 polls and disarm allocate %.0f, want 0", allocs)
	}
}
