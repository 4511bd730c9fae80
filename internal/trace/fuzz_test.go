package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzTraceRead fuzzes the line-oriented trace parser. Read must never
// panic and never allocate proportionally to header-declared counts. It
// must accept and reject what the reference parser (referenceRead) does,
// with the same error, and return the same trace. Every input it accepts
// must satisfy the trace invariants and round-trip byte-stably through
// Write → Read. A replay source over an accepted trace must rewind: a
// rewound copy of an advanced source replays what a fresh source does.
func FuzzTraceRead(f *testing.F) {
	// A well-formed trace with every section present.
	full := strings.Join([]string{
		"TPSIM-TRACE 1",
		"FILES 2",
		"FILE 0 100",
		"FILE 1 50",
		"TYPES 2",
		"TYPE 0 debit credit",
		"TYPE 1 query",
		"TX 0 2",
		"R 0 5",
		"W 1 49",
		"TX 1 1",
		"R 1 0",
		"END",
	}, "\n") + "\n"
	f.Add([]byte(full))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1\nW 0 9\nEND\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 10\n# comment\n\nEND\n"))
	// Adversarial seeds: truncations, huge declared counts, trailing junk,
	// sign confusion, wrong ids.
	f.Add([]byte(""))
	f.Add([]byte("TPSIM-TRACE 1"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 999999999\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 2147483647\nR 0 1\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1 junk\nFILE 0 10\nEND\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 10 junk\nEND\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 1 10\nEND\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 -5\nEND\n"))
	f.Add([]byte("TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTYPES 1\nTYPE 0 t\nTX 9 1\nR 0 1\nEND\n"))
	// Fields separated by white space other than ' ' and '\t', which
	// strings.Fields, and so the reference, accepts; and an invalid UTF-8
	// byte, which is not white space.
	for _, sep := range []string{"\v", "\f", "\u00a0", "\u0085", "\xa0"} {
		f.Add([]byte("TPSIM-TRACE 1\n" + strings.ReplaceAll("FILES 1\nFILE 0 10\nTX 0 1\nW 0 9\nEND\n", " ", sep)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		ref, refErr := referenceRead(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Read error %v, reference parser error %v", err, refErr)
		}
		if err != nil {
			return // rejected by both, with the same error
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("Read and the reference parser disagree:\nRead:      %+v\nreference: %+v", tr, ref)
		}
		// Accepted input must satisfy the trace invariants…
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Read accepted a trace that fails Validate: %v", verr)
		}
		// …and round-trip: what Write emits, Read must accept and parse to
		// the same value.
		var buf bytes.Buffer
		if werr := Write(&buf, tr); werr != nil {
			t.Fatalf("Write failed on accepted trace: %v", werr)
		}
		tr2, rerr := Read(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round-trip re-read failed: %v\nserialized:\n%s", rerr, buf.String())
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round-trip mismatch:\nfirst:  %+v\nsecond: %+v", tr, tr2)
		}
		if len(tr.Txs) == 0 {
			return // no source replays an empty trace
		}
		advanced, err := NewSource(tr, 1)
		if err != nil {
			t.Fatalf("NewSource rejected an accepted trace: %v", err)
		}
		for range len(tr.Txs) + 1 {
			advanced.Next(0, nil)
		}
		rewound := advanced.Rewound()
		fresh, _ := NewSource(tr, 1)
		for i := range 2 * len(tr.Txs) {
			if got, want := rewound.Next(0, nil), fresh.Next(0, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("rewound draw %d = %+v, fresh source = %+v", i, got, want)
			}
		}
	})
}

// TestReadRejectsTrailingGarbage pins the strict-parsing contract the old
// fmt.Sscanf-based parser violated: counts and numeric fields followed by
// junk must be rejected, not silently truncated.
func TestReadRejectsTrailingGarbage(t *testing.T) {
	bad := map[string]string{
		"files count junk": "TPSIM-TRACE 1\nFILES 1 junk\nFILE 0 10\nEND\n",
		"file line junk":   "TPSIM-TRACE 1\nFILES 1\nFILE 0 10 junk\nEND\n",
		"types count junk": "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTYPES 1 junk\nTYPE 0 t\nEND\n",
		"tx line junk":     "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1 junk\nR 0 1\nEND\n",
		"ref line junk":    "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1\nR 0 1 junk\nEND\n",
		"hex count":        "TPSIM-TRACE 1\nFILES 0x1\nFILE 0 10\nEND\n",
	}
	for name, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadHugeDeclaredCountsBounded ensures header-declared sizes cannot
// force allocations before their entries actually parse: a tiny input
// claiming a billion files must fail fast and cheaply.
func TestReadHugeDeclaredCountsBounded(t *testing.T) {
	huge := "TPSIM-TRACE 1\nFILES 1000000000\nFILE 0 10\n"
	if _, err := Read(strings.NewReader(huge)); err == nil {
		t.Fatal("truncated huge-count trace accepted")
	}
	hugeTx := "TPSIM-TRACE 1\nFILES 1\nFILE 0 10\nTX 0 1000000000\nR 0 1\n"
	if _, err := Read(strings.NewReader(hugeTx)); err == nil {
		t.Fatal("truncated huge-tx trace accepted")
	}
}
