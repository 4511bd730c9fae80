package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAllocationLayouts pins the disk units and buffer allocation every
// setup builds, field for field, in testdata/allocations.txt: the DC and
// trace setups over every database and log kind, sized and unsized (a
// kind the trace rejects records its error), the cluster's shared,
// private and disk-only layouts, the three contention allocations and the
// class mix. The goldens cover only the combinations the figures use;
// this covers the rest. Regenerate with:
//
//	go test ./internal/experiments -run TestAllocationLayouts -update
func TestAllocationLayouts(t *testing.T) {
	dbKinds := []string{"regular", "disk-cache-wb", "vol-cache", "nv-cache", "ssd",
		"nvem-resident", "mm-resident", "nvem-wb", "nvem-cache"}
	logKinds := []string{"disk", "disk-wb", "ssd", "nvem", "nvem-wb"}
	var b strings.Builder
	layout := func(label string, cfg core.Config, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: error %v\n", label, err)
			return
		}
		fmt.Fprintf(&b, "%s: units %+v buffer %+v\n", label, cfg.DiskUnits, cfg.Buffer)
	}
	sizes := []struct{ db, log, disks int }{{0, 0, 0}, {700, 300, 3}}
	for _, sz := range sizes {
		for d, dbName := range dbKinds {
			for l, logName := range logKinds {
				db := DBSpec{Kind: DBKind(d), Size: sz.db}
				log := LogSpec{Kind: LogKind(l), Disks: sz.disks, Size: sz.log}
				label := fmt.Sprintf("%s size %d / log %s size %d disks %d", dbName, sz.db, logName, sz.log, sz.disks)
				cfg, err := DCSetup{Rate: 100, MMBuffer: 500, DB: db, Log: log}.Build(quick)
				layout("dc "+label, cfg, err)
				cfg, err = TraceSetup{MMBuffer: 500, DB: db, Log: log}.Build(quick)
				layout("trace "+label, cfg, err)
			}
		}
	}
	clusters := []struct {
		label string
		setup ClusterSetup
	}{
		{"shared-nvem", ClusterSetup{SharedNVEM: 1500, CheckpointMS: 2_000}},
		{"private-nvem", ClusterSetup{PrivateNVEM: 400, DBControllers: 3, DBDisks: 9, LogControllers: 1, LogDisks: 2}},
		{"disk-only", ClusterSetup{CheckpointMS: 5_000, DBControllers: 4, LogDisks: 1}},
	}
	for _, c := range clusters {
		c.setup.Nodes, c.setup.AggregateRate = 2, 100
		cfg, err := c.setup.Build(quick)
		layout("cluster "+c.label, cfg.Base, err)
	}
	for _, alloc := range []ContentionAlloc{ContDisk, ContMixed, ContNVEM} {
		cfg, err := ContentionSetup{Rate: 100, Alloc: alloc}.Build(quick)
		layout("contention "+alloc.String(), cfg, err)
	}
	cfg, err := MixSetup{UpdateTPS: 10, ReadTPS: 10, ScanTPS: 1}.Build(quick)
	layout("mix", cfg, err)

	got := b.String()
	path := filepath.Join("testdata", "allocations.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
