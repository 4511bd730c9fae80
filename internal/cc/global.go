package cc

import "fmt"

// Global is the cluster-wide lock manager of a multi-node data-sharing
// configuration (section 5 of the paper: extended storage as globally
// accessible storage shared by multiple transaction systems). All nodes
// share one lock table, so conflicts and deadlocks span the cluster; the
// price is message traffic, which Global accounts per node so the engine
// can charge the corresponding CPU pathlength and communication delay.
//
// Message accounting: a lock request is a request/response pair (2
// messages); releasing a transaction's locks is one message (the response
// is not waited for). Lock grants to queued waiters ride on the release
// processing and are folded into the request pair.
//
// Threading: Global is not internally synchronized. The coupled cluster
// engine calls it from its single kernel; the parallel (PDES) engine
// calls it only at synchronization barriers, on the coordinator, while
// every node kernel is quiescent — in both cases calls are serial.
type Global struct {
	m    *Manager
	msgs []int64
}

// NewGlobal creates a lock manager shared by the given number of nodes.
// onGrant fires when a queued request is granted; the cluster routes it to
// the owning node. Transaction ids must be unique across the cluster.
func NewGlobal(nodes int, onGrant func(TxnID)) *Global {
	if nodes <= 0 {
		panic(fmt.Sprintf("cc: global lock manager for %d nodes", nodes))
	}
	return &Global{m: NewManager(onGrant), msgs: make([]int64, nodes)}
}

// AcquireFrom requests a lock on behalf of node, counting the
// request/response message pair. Semantics are Manager.Acquire.
func (g *Global) AcquireFrom(node int, txn TxnID, gr Granule, mode Mode) Result {
	g.msgs[node] += 2
	return g.m.Acquire(txn, gr, mode)
}

// ReleaseAllFrom releases every lock txn holds on behalf of node, counting
// the release message. Semantics are Manager.ReleaseAll.
func (g *Global) ReleaseAllFrom(node int, txn TxnID) {
	g.msgs[node]++
	g.m.ReleaseAll(txn)
}

// Stats returns the shared lock table's counters.
func (g *Global) Stats() Stats { return g.m.Stats() }

// ResetStats zeroes the lock table's counters and every node's message
// count, so they cover a measurement window opened now.
func (g *Global) ResetStats() {
	g.m.ResetStats()
	clear(g.msgs)
}

// Messages returns the messages node has sent so far.
func (g *Global) Messages(node int) int64 { return g.msgs[node] }
