package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunAll()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(5, func() { fired++ })
	s.Schedule(10, func() { fired++ })
	s.Run(5)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at t<=5)", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("now = %v, want 5", s.Now())
	}
	s.Run(100)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestDeliverBeforeNowPanics(t *testing.T) {
	s := New()
	s.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a delivery before now")
		}
	}()
	s.Deliver(4, func() {})
}

// TestProcessHold: a process is a chain of continuations, each of which
// schedules the next one a delay later.
func TestProcessHold(t *testing.T) {
	s := New()
	var marks []Time
	s.Schedule(0, func() {
		marks = append(marks, s.Now())
		s.Schedule(10, func() {
			marks = append(marks, s.Now())
			s.Schedule(5, func() {
				marks = append(marks, s.Now())
			})
		})
	})
	s.RunAll()
	want := []Time{0, 10, 15}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

// TestNegativeHoldPanics: a negative service time on a resource is a bug.
func TestNegativeHoldPanics(t *testing.T) {
	s := New()
	r := s.NewResource("dev", 1)
	s.Schedule(0, func() { r.Use(-1, func() {}) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative hold")
		}
	}()
	s.RunAll()
}

func TestSpawnDelay(t *testing.T) {
	s := New()
	var started Time = -1
	s.Schedule(7, func() { started = s.Now() })
	s.RunAll()
	if started != 7 {
		t.Fatalf("started = %v, want 7", started)
	}
}

func TestEqualTimeProcessesRunInSpawnOrder(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		s.Schedule(1, func() { order = append(order, name) })
	}
	s.RunAll()
	if got := strings.Join(order, ""); got != "abcd" {
		t.Fatalf("order = %q", got)
	}
}

func TestShutdownDropsPendingEvents(t *testing.T) {
	s := New()
	fired := 0
	for i := 0; i < 5; i++ {
		s.Schedule(0, func() {
			s.Schedule(100, func() { fired++ })
		})
	}
	s.Run(10)
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.Shutdown()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after shutdown", s.Pending())
	}
	s.RunAll()
	if fired != 0 {
		t.Fatalf("fired = %d: continuations must not survive Shutdown", fired)
	}
}

func TestShutdownWithNeverStartedProcess(t *testing.T) {
	s := New()
	s.Schedule(1000, func() { t.Error("body must not run") })
	s.Run(1) // before the first event
	s.Shutdown()
	s.RunAll()
}

func TestProcessPanicSurfacesInRun(t *testing.T) {
	s := New()
	s.Schedule(1, func() { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("recover = %v, want panic containing boom", r)
		}
	}()
	s.RunAll()
}

// Determinism: two identical simulations visit events in exactly the same
// order and produce the same trace.
func TestDeterminism(t *testing.T) {
	build := func() string {
		var log []string
		s := New()
		for i := 0; i < 10; i++ {
			i := i
			name := fmt.Sprintf("w%d", i)
			j := 0
			var step func()
			step = func() {
				if j >= 4 {
					return
				}
				d := Time((i*7+j*3)%5) + 0.5
				j++
				s.Schedule(d, func() {
					log = append(log, fmt.Sprintf("%s@%.1f", name, s.Now()))
					step()
				})
			}
			s.Schedule(Time(i%3), step)
		}
		s.RunAll()
		return strings.Join(log, ",")
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("runs diverged:\n%s\n%s", a, b)
	}
}

func TestNestedSpawn(t *testing.T) {
	s := New()
	var childTime Time = -1
	s.Schedule(0, func() {
		s.Schedule(3, func() {
			s.Schedule(2, func() { childTime = s.Now() })
			s.Schedule(10, func() {})
		})
	})
	s.RunAll()
	if childTime != 5 {
		t.Fatalf("child ran at %v, want 5", childTime)
	}
}
