package trace

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/workload"
)

// RealLifeSpec describes the synthetic stand-in for the paper's real-life
// trace (section 4.6). The defaults reproduce the published aggregate
// characteristics: >17,500 transactions of twelve types, ~1M page accesses,
// ~66,000 distinct pages in 13 files, ~4 GB database, ~20% update
// transactions, ~1.6% write accesses, and one ad-hoc query type with more
// than 11,000 accesses.
type RealLifeSpec struct {
	FilePages   []int64 // sizes of the 13 database files (pages)
	ActivePages []int64 // per-file actively referenced region (pages)
	Types       []RealLifeType
}

// RealLifeType describes one transaction type of the synthetic trace.
type RealLifeType struct {
	Name      string
	Count     int     // transactions of this type
	MeanSize  float64 // mean page references per transaction
	FixedSize bool    // size is exact rather than exponential
	WriteProb float64 // per-access write probability (update types)
	Update    bool    // update type: at least one write per transaction
	Scan      bool    // sequential scan instead of skewed random access
	FileBias  []float64
}

// DefaultRealLifeSpec returns the calibrated specification.
func DefaultRealLifeSpec() RealLifeSpec {
	// 13 files totalling ~1M 4KB pages ≈ 4 GB.
	filePages := []int64{
		300_000, 200_000, 150_000, 100_000, 80_000, 60_000, 40_000,
		30_000, 20_000, 10_000, 5_000, 3_000, 2_000,
	}
	// Actively referenced regions: ~51,500 pages; the ad-hoc scans add
	// ~23,000 more distinct pages beyond the active regions.
	active := []int64{
		12_000, 9_000, 7_500, 6_000, 5_000, 4_000, 2_500,
		2_000, 1_500, 1_000, 500, 300, 200,
	}
	// File bias vectors concentrate each type on a few files, giving the
	// inter-transaction-type locality a reference matrix would express.
	big := []float64{5, 4, 3, 2, 1, 1, 0.5, 0.5, 0.2, 0.2, 0.1, 0.1, 0.1}
	mid := []float64{1, 2, 4, 4, 2, 1, 1, 0.5, 0.5, 0.2, 0.1, 0.1, 0.1}
	sml := []float64{0.2, 0.5, 1, 1, 2, 3, 3, 2, 2, 1, 0.5, 0.3, 0.2}
	adm := []float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 2}
	return RealLifeSpec{
		FilePages:   filePages,
		ActivePages: active,
		Types: []RealLifeType{
			{Name: "adhoc-query", Count: 2, MeanSize: 11_500, FixedSize: true, Scan: true,
				FileBias: []float64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
			{Name: "lookup-a", Count: 4_000, MeanSize: 20, FileBias: big},
			{Name: "lookup-b", Count: 3_000, MeanSize: 40, FileBias: mid},
			{Name: "report-a", Count: 2_400, MeanSize: 60, FileBias: big},
			{Name: "report-b", Count: 2_000, MeanSize: 80, FileBias: mid},
			{Name: "analysis-a", Count: 1_200, MeanSize: 100, FileBias: sml},
			{Name: "analysis-b", Count: 800, MeanSize: 150, FileBias: mid},
			{Name: "batch-scan", Count: 400, MeanSize: 200, Scan: true, FileBias: big},
			{Name: "misc-query", Count: 278, MeanSize: 60, FileBias: sml},
			{Name: "update-small", Count: 2_000, MeanSize: 25, WriteProb: 0.14, Update: true, FileBias: adm},
			{Name: "update-med", Count: 1_000, MeanSize: 40, WriteProb: 0.14, Update: true, FileBias: mid},
			{Name: "update-large", Count: 520, MeanSize: 50, WriteProb: 0.13, Update: true, FileBias: sml},
		},
	}
}

// GenerateRealLife builds the synthetic real-life trace from the default
// spec and the given seed. The result is shuffled into a single interleaved
// arrival order and ready for simulation or serialization. It is not
// validated here: its first replay source walks it once (Trace).
func GenerateRealLife(seed int64) *Trace {
	return GenerateFromSpec(DefaultRealLifeSpec(), seed)
}

// GenerateFromSpec builds a synthetic trace from an explicit specification.
func GenerateFromSpec(spec RealLifeSpec, seed int64) *Trace {
	s := rng.NewStream(seed, "trace-synth")
	tr := &Trace{FilePages: spec.FilePages}
	for _, tt := range spec.Types {
		tr.TypeNames = append(tr.TypeNames, tt.Name)
	}

	// Two-level 90/10 skew within each file's active region (the paper's
	// generalized b/c rule, section 3.1): 81% of accesses go to the hottest
	// 1% of pages, 9% to the next 9%, 10% to the remaining 90%. This yields
	// the ~84% main-memory hit ratio at a 2000-page buffer the paper
	// reports for its real-life trace (section 4.6). Each file draws
	// through its own instance, which keeps its region's layout.
	rule := []workload.Subpartition{
		{SizeFrac: 0.01, AccessProb: 0.81},
		{SizeFrac: 0.09, AccessProb: 0.09},
		{SizeFrac: 0.90, AccessProb: 0.10},
	}
	skew := make([]workload.AccessDist, len(spec.ActivePages))
	for f := range skew {
		var err error
		if skew[f], err = workload.SlicedAccess(rule); err != nil {
			panic(err)
		}
	}

	// Ad-hoc scans read outside the active regions, so they contribute
	// fresh distinct pages like the paper's one-off ad-hoc query.
	adhocNext := spec.ActivePages[0]

	for typeID, tt := range spec.Types {
		bias := rng.MustDiscrete(tt.FileBias)
		for c := 0; c < tt.Count; c++ {
			n := int(tt.MeanSize + 0.5)
			if !tt.FixedSize {
				n = s.ExpInt(tt.MeanSize, 1)
			}
			tx := workload.Tx{Type: typeID, Accesses: make([]workload.Access, 0, n)}
			switch {
			case tt.Scan && tt.FixedSize:
				// Ad-hoc query: scan fresh pages of file 0.
				file := 0
				for i := 0; i < n; i++ {
					page := adhocNext % spec.FilePages[file]
					adhocNext++
					tx.Accesses = append(tx.Accesses, workload.Access{Partition: file, Object: page})
				}
			case tt.Scan:
				// Batch scan: consecutive pages within the active region.
				file := bias.Sample(s)
				start := s.Int63n(spec.ActivePages[file])
				for i := 0; i < n; i++ {
					page := (start + int64(i)) % spec.ActivePages[file]
					tx.Accesses = append(tx.Accesses, workload.Access{Partition: file, Object: page})
				}
			default:
				for i := 0; i < n; i++ {
					write := tt.Update && s.Bool(tt.WriteProb)
					// Intra-transaction locality: real transactions
					// re-reference their own recent pages (index → record →
					// index patterns), which is what keeps even very small
					// main-memory buffers useful in Fig 4.6.
					if !write && len(tx.Accesses) > 0 && s.Bool(0.35) {
						back := s.Intn(min(len(tx.Accesses), 8)) + 1
						prev := tx.Accesses[len(tx.Accesses)-back]
						tx.Accesses = append(tx.Accesses, workload.Access{Partition: prev.Partition, Object: prev.Object})
						continue
					}
					file := bias.Sample(s)
					var page int64
					if write {
						// Updates hit individual records spread across the
						// active region rather than the read-hot pages the
						// query types convoy on; with only 1.6% writes this
						// keeps lock contention as modest as the paper's
						// trace runs show (FORCE ≈ NOFORCE, section 4.6).
						page = s.Int63n(spec.ActivePages[file])
					} else {
						page = skew[file].Draw(spec.ActivePages[file], s)
					}
					tx.Accesses = append(tx.Accesses, workload.Access{Partition: file, Object: page, Write: write})
				}
			}
			if tt.Update && !tx.Update() {
				// Update transactions always write at least one page.
				tx.Accesses[s.Intn(len(tx.Accesses))].Write = true
			}
			tr.Txs = append(tr.Txs, tx)
		}
	}

	shuffleTxs(tr.Txs, s)
	return tr
}

// shuffleTxs interleaves transaction types into one arrival order
// (Fisher-Yates on a deterministic stream).
func shuffleTxs(txs []workload.Tx, s *rng.Stream) {
	for i := len(txs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		txs[i], txs[j] = txs[j], txs[i]
	}
}

// TypeHistogram counts transactions per type, sorted by type id; useful for
// reporting and tests.
func (tr *Trace) TypeHistogram() []int {
	maxType := -1
	for i := range tr.Txs {
		if tr.Txs[i].Type > maxType {
			maxType = tr.Txs[i].Type
		}
	}
	counts := make([]int, maxType+1)
	for i := range tr.Txs {
		counts[tr.Txs[i].Type]++
	}
	return counts
}

// HottestPages returns the n most-referenced (file, page) pairs as read
// accesses; used by diagnostics in cmd/tracegen.
func (tr *Trace) HottestPages(n int) []workload.Access {
	counts := map[workload.Access]int{}
	for i := range tr.Txs {
		for _, a := range tr.Txs[i].Accesses {
			a.Write = false
			counts[a]++
		}
	}
	keys := make([]workload.Access, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ca, cb := counts[keys[a]], counts[keys[b]]
		if ca != cb {
			return ca > cb
		}
		if keys[a].Partition != keys[b].Partition {
			return keys[a].Partition < keys[b].Partition
		}
		return keys[a].Object < keys[b].Object
	})
	return keys[:min(n, len(keys))]
}
