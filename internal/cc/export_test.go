package cc

// HeldCount returns how many locks txn currently holds.
func (m *Manager) HeldCount(txn TxnID) int { return len(m.held[txn]) }

// Holds reports whether txn holds g in at least the given mode.
func (m *Manager) Holds(txn TxnID, g Granule, mode Mode) bool {
	e, _ := m.locks.Get(g)
	if e == nil {
		return false
	}
	held, ok := e.heldMode(txn)
	return ok && (held == Write || mode == Read)
}
