package cc

// HeldCount returns how many locks t currently holds.
func (t *Txn) HeldCount() int { return len(t.held) }

// Holds reports whether txn holds g in at least the given mode.
func (m *Manager) Holds(txn *Txn, g Granule, mode Mode) bool {
	e, _ := m.locks.Get(g)
	if e == nil {
		return false
	}
	held, ok := e.heldMode(txn)
	return ok && (held == Write || mode == Read)
}
