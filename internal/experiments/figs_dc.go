package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// dcScheme is one labelled database and log allocation of a Debit-Credit
// experiment.
type dcScheme struct {
	label string
	db    DBSpec
	log   LogSpec
}

// dcLabels returns the schemes' labels in order.
func dcLabels(schemes []dcScheme) []string {
	return labelsOf(len(schemes), func(i int) string { return schemes[i].label })
}

// Fig41 reproduces Fig 4.1: influence of log file allocation on Debit-Credit
// response time (NOFORCE). Four allocations: a single log disk, a single log
// disk with a 500-page non-volatile cache write buffer, SSD, and NVEM.
func Fig41(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.1: Influence of log file allocation (Debit-Credit, NOFORCE)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	schemes := []struct {
		label string
		log   LogSpec
	}{
		{"log-single-disk", LogSpec{Kind: LogDisk, Disks: 1}},
		{"log-disk+nv-cache", LogSpec{Kind: LogDiskWB, Disks: 1, Size: 500}},
		{"log-ssd", LogSpec{Kind: LogSSD}},
		{"log-nvem", LogSpec{Kind: LogNVEM}},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, fig.X, func(si, xi int, o Options) (*core.Result, error) {
		return DCSetup{Rate: fig.X[xi], DB: DBSpec{Kind: DBRegular}, Log: schemes[si].log}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	plot(fig, labels, cells, respMean)
	return fig, nil
}

// dbSchemes42 are the six database allocations of Fig 4.2. Database
// partitions and log use the same device type to emphasize the relative
// differences (section 4.3).
func dbSchemes42() []dcScheme {
	return []dcScheme{
		{"disk", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"disk-cache-wb", DBSpec{Kind: DBDiskCacheWB, Size: 500}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-wb", DBSpec{Kind: DBNVEMWB, Size: 1000}, LogSpec{Kind: LogNVEMWB}},
		{"ssd", DBSpec{Kind: DBSSD}, LogSpec{Kind: LogSSD}},
		{"nvem-resident", DBSpec{Kind: DBNVEMResident}, LogSpec{Kind: LogNVEM}},
		{"mm-resident", DBSpec{Kind: DBMMResident}, LogSpec{Kind: LogDisk}},
	}
}

// Fig42 reproduces Fig 4.2: impact of database allocation (Debit-Credit,
// NOFORCE).
func Fig42(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.2: Impact of database allocation (Debit-Credit, NOFORCE)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	schemes := dbSchemes42()
	labels := dcLabels(schemes)
	cells, err := sweep(o, labels, fig.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return DCSetup{Rate: fig.X[xi], DB: sc.db, Log: sc.log}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	plot(fig, labels, cells, respMean)
	return fig, nil
}

// Fig43 reproduces Fig 4.3: FORCE vs NOFORCE for three storage allocations
// (disk-based, disk-cache write buffer, NVEM-resident).
func Fig43(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.3: FORCE vs. NOFORCE (Debit-Credit)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	schemes := []dcScheme{
		{"disk", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"disk-cache-wb", DBSpec{Kind: DBDiskCacheWB, Size: 500}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-resident", DBSpec{Kind: DBNVEMResident}, LogSpec{Kind: LogNVEM}},
	}
	// Row 2i runs scheme i under FORCE, row 2i+1 under NOFORCE.
	force := func(row int) bool { return row%2 == 0 }
	labels := labelsOf(2*len(schemes), func(row int) string {
		if force(row) {
			return "FORCE:" + schemes[row/2].label
		}
		return "NOFORCE:" + schemes[row/2].label
	})
	cells, err := sweep(o, labels, fig.X, func(row, xi int, o Options) (*core.Result, error) {
		sc := schemes[row/2]
		return DCSetup{Rate: fig.X[xi], Force: force(row), DB: sc.db, Log: sc.log}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	plot(fig, labels, cells, respMean)
	return fig, nil
}

// cachingSchemes are the second-level-cache configurations of Fig 4.4 and
// Tables 4.2a/b. In configurations with non-volatile disk caches or NVEM,
// those storage types are also used for logging (section 4.5).
func cachingSchemes() []dcScheme {
	return []dcScheme{
		{"mm-only", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"vol-cache-1000", DBSpec{Kind: DBVolCache, Size: 1000}, LogSpec{Kind: LogDisk}},
		{"wb-in-nv-cache", DBSpec{Kind: DBDiskCacheWB, Size: 500}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nv-cache-1000", DBSpec{Kind: DBNVCache, Size: 1000}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-cache-500", DBSpec{Kind: DBNVEMCache, Size: 500}, LogSpec{Kind: LogNVEM}},
		{"nvem-cache-1000", DBSpec{Kind: DBNVEMCache, Size: 1000}, LogSpec{Kind: LogNVEM}},
	}
}

// mmSizes is the main-memory buffer sweep of Fig 4.4 and Tables 4.2a/b.
func (o Options) mmSizes() []float64 {
	if o.Quick {
		return []float64{500, 2000}
	}
	return []float64{200, 500, 1000, 2000, 5000}
}

// Fig44 reproduces Fig 4.4: impact of caching for different main-memory
// buffer sizes (NOFORCE, 500 TPS).
func Fig44(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.4: Impact of caching vs. main memory buffer size (NOFORCE, 500 TPS)",
		XLabel: "MM buffer [pages]",
		YLabel: "mean response time [ms]",
		X:      o.mmSizes(),
	}
	schemes := cachingSchemes()
	labels := dcLabels(schemes)
	cells, err := sweep(o, labels, fig.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return DCSetup{Rate: 500, MMBuffer: int(fig.X[xi]), DB: sc.db, Log: sc.log}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	plot(fig, labels, cells, respMean)
	return fig, nil
}

// Table42 reproduces Table 4.2a (NOFORCE) or 4.2b (FORCE): main-memory and
// second-level cache hit ratios for different buffer sizes at 500 TPS.
// The first row is the main-memory hit ratio of the cacheless configuration;
// the remaining rows are the ADDITIONAL hits in each second-level cache.
func Table42(o Options, force bool) (*stats.Table, error) {
	sizes := o.mmSizes()
	variant, name := "a", "NOFORCE"
	if force {
		variant, name = "b", "FORCE"
	}
	rows := []dcScheme{
		{"main memory", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"vol. disk cache 1000", DBSpec{Kind: DBVolCache, Size: 1000}, LogSpec{Kind: LogDisk}},
		{"nv disk cache 1000", DBSpec{Kind: DBNVCache, Size: 1000}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"NVEM cache 1000", DBSpec{Kind: DBNVEMCache, Size: 1000}, LogSpec{Kind: LogNVEM}},
	}
	if !force {
		rows = append(rows, dcScheme{"NVEM cache 500", DBSpec{Kind: DBNVEMCache, Size: 500}, LogSpec{Kind: LogNVEM}})
	}
	labels := dcLabels(rows)
	tbl := stats.NewTable(
		fmt.Sprintf("Table 4.2%s: MM and 2nd-level cache hit ratios in %% (%s, 500 TPS)", variant, name),
		"cache \\ MM size", labels, labelsOf(len(sizes), func(i int) string { return fmt.Sprint(sizes[i]) }))
	cells, err := sweep(o, labels, sizes, func(r, c int, o Options) (*core.Result, error) {
		spec := rows[r]
		return DCSetup{Rate: 500, Force: force, MMBuffer: int(sizes[c]), DB: spec.db, Log: spec.log}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	for r, spec := range rows {
		// Row 0 is the main-memory hit ratio; the remaining rows are the
		// ADDITIONAL second-level hits: NVEM cache hits from the buffer
		// manager, disk-cache read hits from the unit (as a fraction of
		// fixes).
		metric := mmHitPct
		switch {
		case r == 0:
		case spec.db.Kind == DBNVEMCache:
			metric = nvemAddHitPct
		default:
			metric = unitReadHitPct
		}
		for c := range sizes {
			setCell(tbl, r, c, cells[r][c], metric)
		}
	}
	return tbl, nil
}

// secondLevelSizes is the second-level cache sweep of Fig 4.5.
func (o Options) secondLevelSizes() []float64 {
	if o.Quick {
		return []float64{500, 2000}
	}
	return []float64{200, 500, 1000, 2000, 5000}
}

// Fig45 reproduces Fig 4.5: impact of the 2nd-level buffer size (NOFORCE,
// 500 TPS, 500-page main-memory buffer): response times and additional hit
// ratios per cache type.
func Fig45(o Options) (*stats.Figure, *stats.Figure, error) {
	respFig := &stats.Figure{
		Title:  "Fig 4.5a: Response time vs. 2nd-level cache size (NOFORCE, 500 TPS, MM=500)",
		XLabel: "2nd-level size [pages]",
		YLabel: "mean response time [ms]",
		X:      o.secondLevelSizes(),
	}
	hitFig := &stats.Figure{
		Title:  "Fig 4.5b: Additional 2nd-level hit ratio vs. cache size (in % of all fixes)",
		XLabel: "2nd-level size [pages]",
		YLabel: "hit ratio [%]",
		X:      respFig.X,
	}
	schemes := []struct {
		label string
		kind  DBKind
		log   LogSpec
	}{
		{"vol-disk-cache", DBVolCache, LogSpec{Kind: LogDisk}},
		{"nv-disk-cache", DBNVCache, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-cache", DBNVEMCache, LogSpec{Kind: LogNVEM}},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, respFig.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return DCSetup{
			Rate: 500, MMBuffer: 500,
			DB:  DBSpec{Kind: sc.kind, Size: int(respFig.X[xi])},
			Log: sc.log,
		}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	for si, sc := range schemes {
		hitMetric := unitReadHitPct
		if sc.kind == DBNVEMCache {
			hitMetric = nvemAddHitPct
		}
		addSeries(respFig, sc.label, cells[si], respMean)
		addSeries(hitFig, sc.label, cells[si], hitMetric)
	}
	return respFig, hitFig, nil
}
