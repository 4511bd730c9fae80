package trace

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func timelineTrace() *Trace {
	tr := &Trace{FilePages: []int64{100}}
	// 8 transactions with reference volumes 1..8: total 36.
	for i := 1; i <= 8; i++ {
		tx := workload.Tx{Type: 0}
		for j := 0; j < i; j++ {
			tx.Accesses = append(tx.Accesses, workload.Access{Partition: 0, Object: int64(j)})
		}
		tr.Txs = append(tr.Txs, tx)
	}
	return tr
}

// TestLoadTimelineShape: buckets split the recorded sequence evenly and the
// multipliers are the normalized per-slice reference volumes.
func TestLoadTimelineShape(t *testing.T) {
	mult, err := LoadTimeline(timelineTrace(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Slices of 2 txs: volumes 3, 7, 11, 15 of total 36 → ×4/36.
	want := []float64{12.0 / 36, 28.0 / 36, 44.0 / 36, 60.0 / 36}
	if len(mult) != 4 {
		t.Fatalf("got %d buckets, want 4", len(mult))
	}
	mean := 0.0
	for i := range mult {
		if math.Abs(mult[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, mult[i], want[i])
		}
		mean += mult[i]
	}
	if math.Abs(mean/4-1) > 1e-12 {
		t.Fatalf("multipliers average %v, want 1", mean/4)
	}
}

// TestLoadTimelineFeedsReplay: a derived timeline passes the replay spec's
// validation (all multipliers positive).
func TestLoadTimelineFeedsReplay(t *testing.T) {
	mult, err := LoadTimeline(GenerateRealLife(42), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(mult) != 16 {
		t.Fatalf("got %d buckets", len(mult))
	}
	for i, m := range mult {
		if m <= 0 {
			t.Fatalf("bucket %d multiplier %v <= 0", i, m)
		}
	}
}

// TestLoadTimelineErrors covers the failure modes.
func TestLoadTimelineErrors(t *testing.T) {
	tr := timelineTrace()
	if _, err := LoadTimeline(tr, 0); err == nil {
		t.Error("0 buckets accepted")
	}
	if _, err := LoadTimeline(tr, 9); err == nil {
		t.Error("more buckets than transactions accepted")
	}
	if _, err := LoadTimeline(&Trace{}, 1); err == nil {
		t.Error("invalid trace accepted")
	}
}
