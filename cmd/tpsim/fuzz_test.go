package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzConfig feeds hostile configuration files through load and, when
// load accepts one, through the engine's validation: each step returns or
// fails with an error, never a panic. The target runs no simulation, since
// the engine reserves its buffer frames up front and a fuzzed buffer size
// would exhaust memory. It skips inputs that name a trace file, which load
// would open whatever path it names, and clusters of more than 64 nodes:
// load rejects a count above tpsim.MaxNodes before it builds anything, but
// below the cap it builds one generator per node, which makes such an
// input too slow for a fuzz run.
// Its seeds are the pinned inputs that name no trace file.
func FuzzConfig(f *testing.F) {
	for _, in := range pinInputs() {
		if !strings.Contains(in.json, "traceFile") {
			f.Add([]byte(in.json))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode as load does; a failed decode may have set fields too.
		var fc fileConfig
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&fc)
		if fc.Workload.TraceFile != "" || fc.Cluster != nil && fc.Cluster.NumNodes > 64 {
			t.Skip()
		}
		cfg, cluster, err := load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A rejection is as good an outcome as acceptance; a panic is not.
		if cluster != nil {
			_ = cluster.Validate()
		} else {
			_ = cfg.Validate()
		}
	})
}
