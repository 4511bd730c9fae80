package trace

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func TestSourceByTypeReplaysPerType(t *testing.T) {
	tr := &Trace{
		FilePages: []int64{100},
		TypeNames: []string{"query", "update"},
		Txs: []workload.Tx{
			{Type: 0, Accesses: []workload.Access{{Object: 1}}},
			{Type: 1, Accesses: []workload.Access{{Object: 2, Write: true}}},
			{Type: 0, Accesses: []workload.Access{{Object: 3}}},
			{Type: 1, Accesses: []workload.Access{{Object: 4, Write: true}}},
			{Type: 0, Accesses: []workload.Access{{Object: 5}}},
		},
	}
	src, err := NewSourceByType(tr, []float64{30, 10})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumTypes() != 2 {
		t.Fatalf("NumTypes = %d", src.NumTypes())
	}
	name, rate := src.TypeInfo(0)
	if name != "query" || rate != 30 {
		t.Fatalf("type 0 = %q %v", name, rate)
	}
	name, rate = src.TypeInfo(1)
	if name != "update" || rate != 10 {
		t.Fatalf("type 1 = %q %v", name, rate)
	}
	s := rng.NewStream(1, "t")
	// Type 0 stream yields its transactions in original order, wrapping.
	wantPages := []int64{1, 3, 5, 1}
	for k, want := range wantPages {
		tx := src.Next(0, s)
		if tx.Type != 0 || tx.Accesses[0].Object != want {
			t.Fatalf("type-0 draw %d: got type %d page %d, want page %d",
				k, tx.Type, tx.Accesses[0].Object, want)
		}
	}
	// Type 1 stream independent of type 0's position.
	tx := src.Next(1, s)
	if tx.Type != 1 || tx.Accesses[0].Object != 2 || !tx.Accesses[0].Write {
		t.Fatalf("type-1 draw = %+v", tx)
	}
	// A rewound copy restarts every type's stream; the original and the
	// copy then advance independently.
	rew := src.Rewound()
	if name, rate := rew.TypeInfo(1); rew.NumTypes() != 2 || name != "update" || rate != 10 {
		t.Fatalf("rewound type 1 = %q %v of %d types", name, rate, rew.NumTypes())
	}
	draws := []struct {
		src        *Source
		typ        int
		wantPage   int64
		sourceName string
	}{
		{rew, 0, 1, "rewound"}, {rew, 1, 2, "rewound"}, {rew, 0, 3, "rewound"},
		{src, 0, 3, "original"}, {src, 1, 4, "original"},
		{rew, 1, 4, "rewound"}, {rew, 0, 5, "rewound"},
	}
	for k, d := range draws {
		if tx := d.src.Next(d.typ, s); tx.Type != d.typ || tx.Accesses[0].Object != d.wantPage {
			t.Fatalf("draw %d from the %s source's type-%d stream: got page %d, want %d",
				k, d.sourceName, d.typ, tx.Accesses[0].Object, d.wantPage)
		}
	}
}

func TestSourceByTypeValidation(t *testing.T) {
	tr := tinyTrace() // types 0 and 1
	if _, err := NewSourceByType(tr, []float64{10}); err == nil {
		t.Fatal("missing rate for type 1 must error")
	}
	if _, err := NewSourceByType(tr, []float64{10, -1}); err == nil {
		t.Fatal("negative rate must error")
	}
	if _, err := NewSourceByType(tr, []float64{10, 10, 10}); err == nil {
		t.Fatal("rate for a type with no transactions must error")
	}
	// Zero rate for an absent type is fine.
	if _, err := NewSourceByType(tr, []float64{10, 10, 0}); err != nil {
		t.Fatal(err)
	}
	empty := &Trace{FilePages: []int64{10}}
	if _, err := NewSourceByType(empty, []float64{1}); err == nil {
		t.Fatal("empty trace must error")
	}
	bad := tinyTrace()
	bad.Txs[0].Accesses[0].Object = 1000
	if _, err := NewSourceByType(bad, []float64{1, 1}); err == nil {
		t.Fatal("invalid trace must error")
	}
}

func TestSourceByTypeZeroRateDisablesType(t *testing.T) {
	tr := tinyTrace()
	src, err := NewSourceByType(tr, []float64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, rate := src.TypeInfo(1); rate != 0 {
		t.Fatalf("type 1 rate = %v, want 0 (disabled)", rate)
	}
}
