package sim

import (
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if end := e.Run(); end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySubmissionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.Schedule(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("nested event fired at %d, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Events() != 0 {
		t.Fatalf("events run = %d, want 0", e.Events())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(12)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("got %v, want [5 10]", got)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("after Run got %v", got)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for past ScheduleAt")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var maxd Time
		for _, d := range delays {
			d := Time(d)
			if d > maxd {
				maxd = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		if len(delays) == 0 {
			return end == 0
		}
		return end == maxd
	}
	if err := quick.Check(prop, quickseed.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var order []int
	var times []Time
	for i := 0; i < 3; i++ {
		i := i
		s.Submit(10, func() {
			order = append(order, i)
			times = append(times, e.Now())
		})
	}
	e.Run()
	for i, want := range []Time{10, 20, 30} {
		if order[i] != i || times[i] != want {
			t.Fatalf("order=%v times=%v", order, times)
		}
	}
	if s.Busy != 30 {
		t.Fatalf("busy = %d, want 30", s.Busy)
	}
}

func TestServerInterleavedSubmission(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var done []Time
	e.Schedule(0, func() { s.Submit(10, func() { done = append(done, e.Now()) }) })
	// Arrives while the first job is in service.
	e.Schedule(5, func() { s.Submit(10, func() { done = append(done, e.Now()) }) })
	// Arrives while the server is idle again.
	e.Schedule(25, func() { s.Submit(10, func() { done = append(done, e.Now()) }) })
	e.Run()
	want := []Time{10, 20, 35}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done=%v want=%v", done, want)
		}
	}
}

// Property: a single-server queue finishes all n jobs at exactly the sum of
// their costs when they are all submitted at time zero.
func TestServerMakespanProperty(t *testing.T) {
	prop := func(costs []uint8) bool {
		e := NewEngine()
		s := NewServer(e)
		var sum Time
		for _, c := range costs {
			sum += Time(c)
			s.Submit(Time(c), nil)
		}
		return e.Run() == sum
	}
	if err := quick.Check(prop, quickseed.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAtAbsolute(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(10, func() {
		e.ScheduleAt(25, func() { got = append(got, e.Now()) })
		e.ScheduleAt(10, func() { got = append(got, e.Now()) }) // same instant
	})
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 25 {
		t.Fatalf("got %v, want [10 25]", got)
	}
}

func TestCancelInsideEvent(t *testing.T) {
	e := NewEngine()
	var ev *Event
	fired := false
	e.Schedule(5, func() { ev.Cancel() })
	ev = e.Schedule(10, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestServerIdleAndQueueLen(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	if !s.Idle() {
		t.Fatal("fresh server busy")
	}
	s.Submit(10, nil)
	s.Submit(10, nil)
	if s.Idle() || s.QueueLen() != 1 {
		t.Fatalf("idle=%v queue=%d", s.Idle(), s.QueueLen())
	}
	e.Run()
	if !s.Idle() || s.QueueLen() != 0 {
		t.Fatal("server not drained")
	}
}
