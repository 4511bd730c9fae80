package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func tinyTrace() *Trace {
	return &Trace{
		FilePages: []int64{100, 50},
		TypeNames: []string{"query", "update"},
		Txs: []workload.Tx{
			{Type: 0, Accesses: []workload.Access{{Partition: 0, Object: 3}, {Partition: 1, Object: 7}}},
			{Type: 1, Accesses: []workload.Access{{Partition: 0, Object: 99, Write: true}}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]func(*Trace){
		"no files":      func(tr *Trace) { tr.FilePages = nil },
		"zero pages":    func(tr *Trace) { tr.FilePages[0] = 0 },
		"neg type":      func(tr *Trace) { tr.Txs[0].Type = -1 },
		"type range":    func(tr *Trace) { tr.Txs[0].Type = 5 },
		"no refs":       func(tr *Trace) { tr.Txs[0].Accesses = nil },
		"bad file":      func(tr *Trace) { tr.Txs[0].Accesses[0].Partition = 9 },
		"neg file":      func(tr *Trace) { tr.Txs[0].Accesses[0].Partition = -1 },
		"page overflow": func(tr *Trace) { tr.Txs[0].Accesses[0].Object = 100 },
		"neg page":      func(tr *Trace) { tr.Txs[0].Accesses[0].Object = -1 },
		// File 1 has 50 pages: an object inside file 0's 100 pages is
		// still outside its own file.
		"page outside its file": func(tr *Trace) { tr.Txs[0].Accesses[1].Object = 50 },
	}
	for name, mutate := range cases {
		tr := tinyTrace()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestComputeStats(t *testing.T) {
	s := tinyTrace().ComputeStats()
	if s.NumTxs != 2 || s.NumTypes != 2 || s.NumAccesses != 3 || s.NumWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.UpdateTxs != 1 || s.DistinctPages != 3 || s.MaxTxSize != 2 || s.TotalPages != 150 {
		t.Fatalf("stats = %+v", s)
	}
	if s.WriteFrac() != 1.0/3.0 || s.UpdateTxFrac() != 0.5 {
		t.Fatalf("fracs = %v %v", s.WriteFrac(), s.UpdateTxFrac())
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := tinyTrace()
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Txs) != len(orig.Txs) || got.NumFiles() != orig.NumFiles() {
		t.Fatalf("shape mismatch: %+v", got)
	}
	for i := range orig.Txs {
		if got.Txs[i].Type != orig.Txs[i].Type || len(got.Txs[i].Accesses) != len(orig.Txs[i].Accesses) {
			t.Fatalf("tx %d mismatch", i)
		}
		for j := range orig.Txs[i].Accesses {
			if got.Txs[i].Accesses[j] != orig.Txs[i].Accesses[j] {
				t.Fatalf("ref %d/%d mismatch: %+v vs %+v", i, j, got.Txs[i].Accesses[j], orig.Txs[i].Accesses[j])
			}
		}
	}
	if got.TypeNames[1] != "update" {
		t.Fatalf("type names lost: %v", got.TypeNames)
	}
}

func TestRoundTripSynthetic(t *testing.T) {
	spec := DefaultRealLifeSpec()
	// Shrink for test speed: a few hundred transactions.
	for i := range spec.Types {
		spec.Types[i].Count = (spec.Types[i].Count + 49) / 50
	}
	orig := GenerateFromSpec(spec, 7)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	so, sg := orig.ComputeStats(), got.ComputeStats()
	if so != sg {
		t.Fatalf("stats changed in round trip:\n%+v\n%+v", so, sg)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "NOT-A-TRACE\n",
		"no files":     "TPSIM-TRACE 1\n",
		"files zero":   "TPSIM-TRACE 1\nFILES 0\nEND\n",
		"file order":   "TPSIM-TRACE 1\nFILES 2\nFILE 1 10\nFILE 0 10\nEND\n",
		"bad tx":       "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX x y\nEND\n",
		"truncated tx": "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 2\nR 0 1\nEND\n",
		"bad ref op":   "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1\nX 0 1\nEND\n",
		"page range":   "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1\nR 0 10\nEND\n",
		"missing end":  "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1\nR 0 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\nTPSIM-TRACE 1\n\nFILES 1\nFILE 0 10\n# another\nTX 0 1\nR 0 5\nEND\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Txs) != 1 {
		t.Fatalf("txs = %d", len(tr.Txs))
	}
}

func TestSourceReplay(t *testing.T) {
	tr := tinyTrace()
	src, err := NewSource(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumTypes() != 1 || src.Len() != 2 {
		t.Fatalf("source shape wrong")
	}
	name, rate := src.TypeInfo(0)
	if name != "trace-replay" || rate != 100 {
		t.Fatalf("TypeInfo = %q %v", name, rate)
	}
	s := rng.NewStream(1, "t")
	first := src.Next(0, s)
	if first.Type != 0 || len(first.Accesses) != 2 {
		t.Fatalf("first tx = %+v", first)
	}
	if first.Accesses[0].Object != 3 || first.Accesses[0].Partition != 0 {
		t.Fatalf("first access = %+v", first.Accesses[0])
	}
	second := src.Next(0, s)
	if !second.Accesses[0].Write {
		t.Fatal("write flag lost")
	}
	// Wrap-around.
	third := src.Next(0, s)
	if third.Type != 0 || &third.Accesses[0] != &first.Accesses[0] {
		t.Fatal("source did not wrap")
	}
}

// TestSourceNextReturnsTraceTx pins the replay contract: Next hands out
// the trace's own transactions, access slice and all, and allocates
// nothing, in common-rate and in per-type mode.
func TestSourceNextReturnsTraceTx(t *testing.T) {
	tr := tinyTrace()
	common, err := NewSource(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	byType, err := NewSourceByType(tr, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for k := range 2 * len(tr.Txs) {
		want := &tr.Txs[k%len(tr.Txs)]
		for _, got := range []workload.Tx{common.Next(0, nil), byType.Next(want.Type, nil)} {
			if got.Type != want.Type || len(got.Accesses) != len(want.Accesses) ||
				&got.Accesses[0] != &want.Accesses[0] {
				t.Fatalf("draw %d = %+v, not trace transaction %d", k, got, k%len(tr.Txs))
			}
		}
	}
	for _, c := range []struct {
		name string
		next func()
	}{
		{"common rate", func() { common.Next(0, nil) }},
		{"per type", func() { byType.Next(0, nil); byType.Next(1, nil) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.next); allocs != 0 {
			t.Errorf("%s: Next allocates %v times per call, want 0", c.name, allocs)
		}
	}
}

func TestSourceErrors(t *testing.T) {
	if _, err := NewSource(tinyTrace(), 0); err == nil {
		t.Fatal("zero rate must error")
	}
	bad := tinyTrace()
	bad.Txs[0].Accesses[0].Partition = 42
	if _, err := NewSource(bad, 10); err == nil {
		t.Fatal("invalid trace must error")
	}
	empty := &Trace{FilePages: []int64{10}}
	if _, err := NewSource(empty, 10); err == nil {
		t.Fatal("empty trace must error")
	}
}

func TestSourcePartitions(t *testing.T) {
	src, _ := NewSource(tinyTrace(), 10)
	parts := src.Partitions()
	if len(parts) != 2 || parts[0].NumObjects != 100 || parts[1].NumObjects != 50 {
		t.Fatalf("partitions = %+v", parts)
	}
	for _, p := range parts {
		if p.BlockFactor != 1 {
			t.Fatal("trace partitions must be page-granular")
		}
	}
}

func TestTypeHistogram(t *testing.T) {
	tr := tinyTrace()
	h := tr.TypeHistogram()
	if len(h) != 2 || h[0] != 1 || h[1] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestHottestPages(t *testing.T) {
	tr := &Trace{
		FilePages: []int64{10},
		Txs: []workload.Tx{
			{Type: 0, Accesses: []workload.Access{{Object: 5}, {Object: 5}, {Object: 5}, {Object: 2}, {Object: 2}, {Object: 9}}},
		},
	}
	top := tr.HottestPages(2)
	if len(top) != 2 || top[0].Object != 5 || top[1].Object != 2 {
		t.Fatalf("hottest = %+v", top)
	}
}

// TestReadSplitsOnUnicodeSpace pins Read's field splitting to
// strings.Fields: any unicode.IsSpace run separates fields, and an invalid
// UTF-8 byte does not.
func TestReadSplitsOnUnicodeSpace(t *testing.T) {
	body := "FILES 2\nFILE 0 10\nFILE 1 20\nTX 0 2\nR 0 9\nW 1 19\nEND\n"
	want, err := Read(strings.NewReader(formatHeader + "\n" + body))
	if err != nil {
		t.Fatal(err)
	}
	for _, sep := range []string{"\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", " \t\u00a0 "} {
		got, err := Read(strings.NewReader(formatHeader + "\n" + strings.ReplaceAll(body, " ", sep)))
		if err != nil {
			t.Errorf("separator %q: %v", sep, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("separator %q: trace %+v, want %+v", sep, got, want)
		}
	}
	if _, err := Read(strings.NewReader(formatHeader + "\n" + strings.ReplaceAll(body, " ", "\xa0"))); err == nil {
		t.Error("an invalid UTF-8 byte separated fields")
	}
}

// TestReadAllocsPerTransaction pins that Read allocates per transaction,
// not per reference line: a transaction of 1,000 references costs no more
// allocations than one of 2.
func TestReadAllocsPerTransaction(t *testing.T) {
	traceOf := func(refs int) []byte {
		var b strings.Builder
		b.WriteString(formatHeader + "\nFILES 1\nFILE 0 100000\n")
		fmt.Fprintf(&b, "TX 0 %d\n", refs)
		for i := range refs {
			fmt.Fprintf(&b, "R 0 %d\n", i*97)
		}
		b.WriteString("END\n")
		return []byte(b.String())
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(traceOf(2)), allocs(traceOf(1000))
	if large != small {
		t.Fatalf("Read allocates %v times for 1,000 references and %v for 2", large, small)
	}
}

// TestReadRecordsValidation pins that a trace Read returns carries the
// record of its closing Validate, so its replay sources skip the walk.
func TestReadRecordsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyTrace()); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.valid.Load() {
		t.Fatal("Read returned a trace without the validation record")
	}
}

// TestValidationRecordShared builds replay sources and timelines from 8
// goroutines at once over one fresh shared trace, valid and invalid: they
// all set or read the record, and all must agree.
func TestValidationRecordShared(t *testing.T) {
	bad := tinyTrace()
	bad.Txs[1].Accesses[0].Object = 100
	for _, tr := range []*Trace{tinyTrace(), bad} {
		wantErr := tr.check()
		errs := make([][3]error, 8)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g][0] = NewSource(tr, 10)
				_, errs[g][1] = NewSourceByType(tr, []float64{10, 10})
				_, errs[g][2] = LoadTimeline(tr, 2)
			}()
		}
		wg.Wait()
		for g := range errs {
			for k, err := range errs[g] {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("goroutine %d call %d: error %v, want %v", g, k, err, wantErr)
				}
			}
		}
		if tr.valid.Load() != (wantErr == nil) {
			t.Errorf("record %v after the calls, want %v", tr.valid.Load(), wantErr == nil)
		}
	}
}

// TestValidationRecordFollowsValidate pins the record's life: a failed
// walk leaves it clear, so a fixed trace is walked and passes; a passed
// walk lets sources skip the walk until Validate runs again and fails.
func TestValidationRecordFollowsValidate(t *testing.T) {
	tr := tinyTrace()
	tr.Txs[0].Accesses[1].Partition = 2
	if _, err := NewSource(tr, 10); err == nil {
		t.Fatal("NewSource accepted an access to file 2 of 2")
	}
	tr.Txs[0].Accesses[1].Partition = 1
	if _, err := NewSource(tr, 10); err != nil {
		t.Fatalf("NewSource rejected the fixed trace: %v", err)
	}

	tr.Txs[1].Accesses[0].Object = -1
	// The record holds, so sources do not walk the edited trace...
	if _, err := NewSource(tr, 10); err != nil {
		t.Fatalf("NewSource walked a validated trace: %v", err)
	}
	// ...until the caller validates it again, as Trace's contract asks.
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted a negative page")
	}
	if _, err := NewSource(tr, 10); err == nil {
		t.Fatal("NewSource accepted a trace whose last Validate failed")
	}
	if _, err := LoadTimeline(tr, 1); err == nil {
		t.Fatal("LoadTimeline accepted a trace whose last Validate failed")
	}
}
