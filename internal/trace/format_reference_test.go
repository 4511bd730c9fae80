package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// referenceRead is Read as it was before Read parsed lines in the
// scanner's buffer: a string per line and strings.Fields to split it. It
// is kept unchanged as the reference FuzzTraceRead compares Read against.

// referenceCountLine strictly parses "<keyword> <n>" — exactly two fields, nothing
// trailing (fmt.Sscanf would silently accept garbage after the count).
func referenceCountLine(s, keyword string) (int, bool) {
	fields := strings.Fields(s)
	if len(fields) != 2 || fields[0] != keyword {
		return 0, false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, false
	}
	return n, true
}

// referenceRead parses a trace and validates it. The parser is strict:
// every line must have exactly its format's fields, so trailing garbage is
// rejected rather than silently dropped.
func referenceRead(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	next := func() (string, error) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, nil
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", line, fmt.Sprintf(format, args...))
	}

	hdr, err := next()
	if err != nil {
		return nil, fail("missing header: %v", err)
	}
	if hdr != formatHeader {
		return nil, fail("bad header %q", hdr)
	}

	tr := &Trace{}
	s, err := next()
	if err != nil {
		return nil, fail("missing FILES: %v", err)
	}
	nFiles, ok := referenceCountLine(s, "FILES")
	if !ok || nFiles <= 0 {
		return nil, fail("bad FILES line %q", s)
	}
	tr.FilePages = make([]int64, 0, prealloCap(nFiles))
	for i := 0; i < nFiles; i++ {
		s, err := next()
		if err != nil {
			return nil, fail("missing FILE: %v", err)
		}
		fields := strings.Fields(s)
		if len(fields) != 3 || fields[0] != "FILE" {
			return nil, fail("bad FILE line %q", s)
		}
		id, err1 := strconv.Atoi(fields[1])
		pages, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fail("bad FILE line %q", s)
		}
		if id != i {
			return nil, fail("FILE id %d out of order, want %d", id, i)
		}
		tr.FilePages = append(tr.FilePages, pages)
	}

	s, err = next()
	if err != nil {
		return nil, fail("truncated after files: %v", err)
	}
	if strings.HasPrefix(s, "TYPES ") {
		nTypes, ok := referenceCountLine(s, "TYPES")
		if !ok || nTypes <= 0 {
			return nil, fail("bad TYPES line %q", s)
		}
		tr.TypeNames = make([]string, 0, prealloCap(nTypes))
		for i := 0; i < nTypes; i++ {
			s, err := next()
			if err != nil {
				return nil, fail("missing TYPE: %v", err)
			}
			parts := strings.SplitN(s, " ", 3)
			if len(parts) != 3 || parts[0] != "TYPE" {
				return nil, fail("bad TYPE line %q", s)
			}
			id, err := strconv.Atoi(parts[1])
			if err != nil || id != i {
				return nil, fail("TYPE id %q out of order", parts[1])
			}
			tr.TypeNames = append(tr.TypeNames, parts[2])
		}
		s, err = next()
		if err != nil {
			return nil, fail("truncated after types: %v", err)
		}
	}

	for s != "END" {
		fields := strings.Fields(s)
		if len(fields) != 3 || fields[0] != "TX" {
			return nil, fail("bad TX line %q", s)
		}
		typ, err1 := strconv.Atoi(fields[1])
		nRefs, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, fail("bad TX line %q", s)
		}
		if nRefs <= 0 {
			return nil, fail("TX with %d refs", nRefs)
		}
		tx := workload.Tx{Type: typ, Accesses: make([]workload.Access, 0, prealloCap(nRefs))}
		for i := 0; i < nRefs; i++ {
			s, err := next()
			if err != nil {
				return nil, fail("truncated tx: %v", err)
			}
			fields := strings.Fields(s)
			if len(fields) != 3 || (fields[0] != "R" && fields[0] != "W") {
				return nil, fail("bad ref line %q", s)
			}
			file, err1 := strconv.Atoi(fields[1])
			page, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fail("bad ref numbers %q", s)
			}
			tx.Accesses = append(tx.Accesses, workload.Access{Partition: file, Object: page, Write: fields[0] == "W"})
		}
		tr.Txs = append(tr.Txs, tx)
		s, err = next()
		if err != nil {
			return nil, fail("missing END: %v", err)
		}
	}

	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
