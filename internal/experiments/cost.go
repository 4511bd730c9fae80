package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// Table21 reproduces Table 2.1 and extends it with the cost-effectiveness
// analysis the paper's conclusions sketch: for each Fig 4.2 database
// allocation scheme, the storage cost of the configuration is estimated
// (Debit-Credit database: 5M ACCOUNT pages ≈ 20 GB, 500 BRANCH/TELLER
// pages, a 1 GB HISTORY/log budget) alongside its measured response time at
// the given rate — showing the price of each millisecond saved.
func Table21(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(costmodel.RenderTable21())
	b.WriteString("\n")

	const (
		accountPages = 5_000_000
		btPages      = 500
		histLogMB    = 1024.0
		dbMB         = float64(accountPages+btPages)*costmodel.PageMB + histLogMB
		mmBufPages   = 2000
	)
	rate := 200.0
	if o.Quick {
		rate = 100
	}

	b.WriteString(fmt.Sprintf("Cost-effectiveness of the Fig 4.2 allocation schemes (Debit-Credit, %.0f TPS):\n\n", rate))
	schemes := dbSchemes42()
	cells, err := sweep(o, dcLabels(schemes), nil, func(si, _ int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return DCSetup{Rate: rate, DB: sc.db, Log: sc.log}.Run(o)
	})
	if err != nil {
		return "", err
	}
	for si, sc := range schemes {
		br := costmodel.Breakdown{Label: sc.label}
		br.AddPages("main-memory buffer", costmodel.MainMemory, mmBufPages)
		switch sc.db.Kind {
		case DBRegular:
			br.Add("database on disk", costmodel.Disk, dbMB)
		case DBDiskCacheWB:
			br.Add("database on disk", costmodel.Disk, dbMB)
			br.AddPages("nv disk-cache write buffer", costmodel.DiskCache, int64(2*sc.db.Size))
		case DBNVEMWB:
			br.Add("database on disk", costmodel.Disk, dbMB)
			br.AddPages("NVEM write buffer", costmodel.ExtendedMemory, int64(sc.db.Size))
		case DBSSD:
			br.Add("database on SSD", costmodel.SolidStateDisk, dbMB)
		case DBNVEMResident:
			br.Add("database in NVEM", costmodel.ExtendedMemory, dbMB)
		case DBMMResident:
			br.Add("database in main memory", costmodel.MainMemory, dbMB)
			br.Add("log on disk", costmodel.Disk, histLogMB)
		}
		b.WriteString(br.Render())
		c := cells[si][0]
		b.WriteString(fmt.Sprintf("  -> measured response time %s ms (%s TPS)\n\n",
			c.fmtMeanCI("%.2f", respMean), c.fmtMeanCI("%.1f", throughput)))
	}
	b.WriteString("The orderings confirm section 5: full NVEM residence buys the best\n")
	b.WriteString("response times at by far the highest cost; a small write buffer\n")
	b.WriteString("captures most of the improvement at a tiny fraction of the price.\n\n")

	if err := downtimeCost(o, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// downtimeCostPerMin prices one minute of a node outage (lost work,
// penalties, reputation — the high-availability literature's canonical
// justification for redundant hardware). The absolute number only scales
// the column; the break-even comparison against the NVEM premium is the
// point.
const downtimeCostPerMin = 10_000.0

// downtimeCost extends the cost-effectiveness analysis with the ROADMAP's
// downtime-cost item: the recovery.availability outage lengths priced at
// $/min of unavailability against the NVEM price premium that buys the
// shorter restart. It reruns the shared availability scenario (recovery.go:
// node 0 of 4 crashes mid-window) without timelines; the crashed node's
// restart time is the outage.
func downtimeCost(o Options, b *strings.Builder) error {
	schemes := availSchemes()
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, nil, func(si, _ int, o Options) (*core.Result, error) {
		return availSetup(schemes[si], 0).Run(o)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(b, "Downtime cost vs. NVEM premium (%d-node crash, $%.0f/min of unavailability):\n\n",
		availNodes, downtimeCostPerMin)
	fmt.Fprintf(b, "  %-14s %12s %14s %14s %16s\n",
		"scheme", "outage-ms", "$-per-crash", "nvem-premium-$", "break-even-crashes")
	outage := make([]float64, len(schemes))
	baseline := 0.0
	for si, sc := range schemes {
		outage[si], _ = cells[si][0].meanCI(restartMS)
		if sc.label == "disk-only" {
			baseline = outage[si]
		}
	}
	if baseline == 0 {
		return fmt.Errorf("table2.1 downtime: no disk-only baseline in the availability schemes")
	}
	for si, sc := range schemes {
		// The premium is the extended-memory price of the NVEM frames the
		// scheme adds over disk-only (the NVEM-resident log budget rides
		// along as cache-sized in this sizing, so frames alone price it).
		frames := sc.shared + sc.private*availNodes
		premium := float64(frames) * costmodel.PageMB * costmodel.Table21()[costmodel.ExtendedMemory].PricePerMB.Mid()
		perCrash := outage[si] / 60_000 * downtimeCostPerMin
		fmt.Fprintf(b, "  %-14s %12.1f %14.2f %14.0f", sc.label, outage[si], perCrash, premium)
		if saved := (baseline - outage[si]) / 60_000 * downtimeCostPerMin; saved > 0 && premium > 0 {
			fmt.Fprintf(b, " %18.0f", premium/saved)
		} else {
			fmt.Fprintf(b, " %18s", "-")
		}
		fmt.Fprintf(b, "\n")
	}
	b.WriteString("\nOutage length is the crashed node's simulated restart; the premium is\n")
	b.WriteString("amortized once the crash count reaches the break-even column — and the\n")
	b.WriteString("same NVEM frames buy the steady-state response-time gains above for free.\n")
	return nil
}
