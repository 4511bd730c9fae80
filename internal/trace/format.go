package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/workload"
)

// The on-disk trace format is line-oriented text:
//
//	TPSIM-TRACE 1
//	FILES <n>
//	FILE <id> <pages>           (n lines)
//	TYPES <k>                   (optional; followed by k TYPE lines)
//	TYPE <id> <name>
//	TX <type> <nrefs>
//	R <file> <page>             (or W <file> <page>), nrefs lines
//	END
//
// It is easy to produce from any real DBMS trace and diffs cleanly.

const formatHeader = "TPSIM-TRACE 1"

// Write serializes the trace.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "FILES %d\n", len(tr.FilePages))
	for id, pages := range tr.FilePages {
		fmt.Fprintf(bw, "FILE %d %d\n", id, pages)
	}
	if len(tr.TypeNames) > 0 {
		fmt.Fprintf(bw, "TYPES %d\n", len(tr.TypeNames))
		for id, name := range tr.TypeNames {
			fmt.Fprintf(bw, "TYPE %d %s\n", id, name)
		}
	}
	for i := range tr.Txs {
		tx := &tr.Txs[i]
		fmt.Fprintf(bw, "TX %d %d\n", tx.Type, len(tx.Accesses))
		for _, a := range tx.Accesses {
			op := byte('R')
			if a.Write {
				op = 'W'
			}
			fmt.Fprintf(bw, "%c %d %d\n", op, a.Partition, a.Object)
		}
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}

// maxPrealloc caps slice capacity reserved from header-declared counts.
// Declared sizes are untrusted input: a tiny file claiming a billion
// entries must not allocate gigabytes before a single entry is parsed.
// Larger traces still load — growth just falls back to append.
const maxPrealloc = 1 << 16

// prealloCap clamps an untrusted count to a safe initial capacity.
func prealloCap(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// countLine strictly parses "<keyword> <n>" — exactly two fields, nothing
// trailing (fmt.Sscanf would silently accept garbage after the count).
func countLine(s []byte, keyword string) (int, bool) {
	key, rest := cutField(s)
	count, rest := cutField(rest)
	if len(count) == 0 || len(rest) > 0 || string(key) != keyword {
		return 0, false
	}
	n, err := strconv.Atoi(string(count))
	if err != nil {
		return 0, false
	}
	return n, true
}

// fields3 splits a trimmed line into its first three fields; ok reports
// that it has exactly three, as len(strings.Fields(line)) == 3 would.
func fields3(line []byte) (f0, f1, f2 []byte, ok bool) {
	f0, rest := cutField(line)
	f1, rest = cutField(rest)
	f2, rest = cutField(rest)
	return f0, f1, f2, len(f2) > 0 && len(rest) == 0
}

// cutField returns s up to its first white space and the rest of s after
// that run of white space. White space is what unicode.IsSpace accepts,
// as for strings.Fields, and an invalid UTF-8 byte is not white space.
func cutField(s []byte) (field, rest []byte) {
	end := -1 // where the white space after the field starts
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(s[i:])
		}
		switch space := unicode.IsSpace(r); {
		case space && end < 0:
			end = i
		case !space && end >= 0:
			return s[:end], s[i:]
		}
		i += n
	}
	if end < 0 {
		return s, nil
	}
	return s[:end], nil
}

// Read parses a trace and validates it, so replay sources over the result
// do not walk it again (Trace). The parser is strict: every line must have
// exactly its format's fields, so trailing garbage is rejected rather than
// silently dropped. Reference and transaction lines are parsed in the
// scanner's buffer: a trace allocates one access slice per transaction,
// not a string per line.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	// next returns the next line that is neither blank nor a comment,
	// trimmed. It aliases the scanner's buffer until the following call.
	next := func() ([]byte, error) {
		for sc.Scan() {
			line++
			s := bytes.TrimSpace(sc.Bytes())
			if len(s) == 0 || s[0] == '#' {
				continue
			}
			return s, nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", line, fmt.Sprintf(format, args...))
	}

	hdr, err := next()
	if err != nil {
		return nil, fail("missing header: %v", err)
	}
	if string(hdr) != formatHeader {
		return nil, fail("bad header %q", hdr)
	}

	tr := &Trace{}
	s, err := next()
	if err != nil {
		return nil, fail("missing FILES: %v", err)
	}
	nFiles, ok := countLine(s, "FILES")
	if !ok || nFiles <= 0 {
		return nil, fail("bad FILES line %q", s)
	}
	tr.FilePages = make([]int64, 0, prealloCap(nFiles))
	for i := 0; i < nFiles; i++ {
		s, err := next()
		if err != nil {
			return nil, fail("missing FILE: %v", err)
		}
		key, idField, pagesField, ok := fields3(s)
		if !ok || string(key) != "FILE" {
			return nil, fail("bad FILE line %q", s)
		}
		id, err1 := strconv.Atoi(string(idField))
		pages, err2 := strconv.ParseInt(string(pagesField), 10, 64)
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
	if bytes.HasPrefix(s, []byte("TYPES ")) {
		nTypes, ok := countLine(s, "TYPES")
		if !ok || nTypes <= 0 {
			return nil, fail("bad TYPES line %q", s)
		}
		tr.TypeNames = make([]string, 0, prealloCap(nTypes))
		for i := 0; i < nTypes; i++ {
			s, err := next()
			if err != nil {
				return nil, fail("missing TYPE: %v", err)
			}
			parts := strings.SplitN(string(s), " ", 3)
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

	for string(s) != "END" {
		key, typField, nField, ok := fields3(s)
		if !ok || string(key) != "TX" {
			return nil, fail("bad TX line %q", s)
		}
		typ, err1 := strconv.Atoi(string(typField))
		nRefs, err2 := strconv.Atoi(string(nField))
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
			op, fileField, pageField, ok := fields3(s)
			if !ok || len(op) != 1 || (op[0] != 'R' && op[0] != 'W') {
				return nil, fail("bad ref line %q", s)
			}
			file, err1 := strconv.Atoi(string(fileField))
			page, err2 := strconv.ParseInt(string(pageField), 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fail("bad ref numbers %q", s)
			}
			tx.Accesses = append(tx.Accesses, workload.Access{Partition: file, Object: page, Write: op[0] == 'W'})
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
