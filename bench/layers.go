package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// internalLayers are the repro/internal packages reported as layers.
var internalLayers = []string{
	"sim", "storage", "buffer", "lru", "cc", "core", "workload",
	"trace", "rng", "stats", "experiments", "recovery",
}

// layers are the units host self time is attributed to: the internal
// packages, the PDES coordinator (split out of core), the benchmark itself,
// background GC, the scheduler, and everything else.
var layers = append(slices.Clone(internalLayers), "pdes", "bench", "gc", "sched", "other")

// classify maps a sample's stack (function names, innermost first) to a
// layer. The innermost repro frame owns the sample, so standard-library
// calls count against the repro code that made them. Stacks with no repro
// frame are background GC, scheduler work, or other.
func classify(stack []string) string {
	for _, fn := range stack {
		if l, ok := reproLayer(fn); ok {
			return l
		}
	}
	if slices.ContainsFunc(stack, isGC) {
		return "gc"
	}
	if slices.ContainsFunc(stack, isSched) {
		return "sched"
	}
	return "other"
}

// reproLayer reports the layer of fn if fn is repro code: "bench" for the
// benchmark's own main package, the package name for a known internal
// package, "pdes" for the PDES coordinator, barrier and coherence bus in
// core, and "other" for any other repro package.
func reproLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "other", strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/")
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch {
	case pkg == "core" && isPDES(sym):
		return "pdes", true
	case slices.Contains(internalLayers, pkg):
		return pkg, true
	}
	return "other", true
}

// isPDES reports whether a core symbol belongs to pdesState, pdesBarrier or
// pdesNVEMBus (methods and their closures) or constructs one.
func isPDES(sym string) bool {
	recv := strings.TrimPrefix(sym, "(*")
	recv, _, _ = strings.Cut(recv, ")")
	recv, _, _ = strings.Cut(recv, ".")
	recv, _, _ = strings.Cut(recv, "[")
	switch recv {
	case "pdesState", "pdesBarrier", "pdesNVEMBus":
		return true
	}
	return strings.HasPrefix(sym, "newPDES")
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime._GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSched(fn string) bool {
	for _, p := range []string{
		"runtime.mstart", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.gopark", "runtime.gosched", "runtime.goschedImpl",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep",
		"runtime.futex", "runtime.mPark", "runtime.procyield", "runtime.osyield",
		"runtime.usleep", "runtime.stealWork", "runtime.runqgrab", "runtime.sysmon",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// stackSample is one CPU-profile sample: its stack, innermost frame first,
// and the CPU time it stands for.
type stackSample struct {
	stack []string
	ns    int64
}

// decodeProfile reads the samples of a gzipped profile.proto as written by
// runtime/pprof, using only the fields attribution needs.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeStrs  []uint64                // sample_type[i].type string index
		funcName  = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		sampleLoc [][]uint64
		sampleVal [][]uint64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			})
			typeStrs = append(typeStrs, typ)
			return err
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			sampleLoc, sampleVal = append(sampleLoc, locs), append(sampleVal, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; use the cpu one.
	valIdx := len(typeStrs) - 1
	for i, t := range typeStrs {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	out := make([]stackSample, 0, len(sampleLoc))
	for i, locs := range sampleLoc {
		var s stackSample
		if valIdx >= 0 && valIdx < len(sampleVal[i]) {
			s.ns = int64(sampleVal[i][valIdx])
		}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(buf) < w {
				return errTruncated
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
