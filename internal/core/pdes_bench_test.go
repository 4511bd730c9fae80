package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/storage"
)

// BenchmarkPDESBarrier times one barrier and the lookahead window after it
// on a warmed 64-node shared-NVEM cluster whose arrival streams are
// stopped (quietPDES), serial, so the coordinator does all the work.
//
//   - empty: nobody sent, and every kernel is idle, so the barrier finds no
//     message and every kernel lands on the window's end.
//   - loaded: a fixed batch of five messages from five senders, with tied
//     arrivals: three invalidations, of pages that three, two and one
//     peers hold, a lock request the global manager grants, and a release.
//     The holders re-fix their pages and the batch's effects drain between
//     iterations, off the timer.
func BenchmarkPDESBarrier(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		_, window, _ := quietPDES(b, 64)
		for range 100 {
			window()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			window()
		}
	})
	b.Run("loaded", func(b *testing.B) {
		c, window, busy := quietPDES(b, 64)
		pd := c.net.(*pdesState)
		pages := []storage.PageKey{{Partition: 0, Page: 1}, {Partition: 0, Page: 2}, {Partition: 0, Page: 3}}
		holders := [][]int{{8, 9, 10}, {20, 21}, {40}}
		// The requester's transaction is dead except while a barrier applies
		// its batch, so its request reaches the manager and its verdict
		// resumes into nothing; the releaser holds one granule when its
		// release lands.
		req, rel := c.nodes[2].getTx(), c.nodes[3].getTx()
		window = deadWhileRunning(pd, req)
		req.g, req.mode = cc.Granule{ID: 1}, cc.Write
		held := cc.Granule{ID: 2}
		drain := func() {
			for busy() {
				window()
			}
		}
		settle := func() {
			drain()
			c.glocks.ReleaseAll(&req.Txn)
			for p, ns := range holders {
				for _, id := range ns {
					c.nodes[id].bm.Fix(pages[p], false, func() {})
				}
			}
			drain()
			if c.glocks.Acquire(&rel.Txn, held, cc.Write) != cc.Granted {
				b.Fatal("the releaser's granule is taken")
			}
			for p := range pages {
				pd.invalidate(c.nodes[4+p], pages[p])
			}
			pd.lockRequest(req)
			pd.lockRelease(rel)
		}
		const warm = 300
		for range warm {
			settle()
			window()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			settle()
			b.StartTimer()
			window()
		}
		b.StopTimer()
		drain()
		for p, ns := range holders {
			for _, id := range ns {
				if got := c.nodes[id].win.invalidations; got != int64(warm+b.N) {
					b.Fatalf("node %d lost page %d to %d invalidations in %d batches", id, pages[p].Page, got, warm+b.N)
				}
			}
		}
	})
}
