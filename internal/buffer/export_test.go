package buffer

// NVEMCacheLen returns the number of occupied NVEM cache frames (the
// cluster-shared cache's occupancy in shared or remote mode).
func (m *Manager) NVEMCacheLen() int {
	if m.remoteShared != nil {
		return m.remoteShared.cache.Len()
	}
	if m.nvemCache == nil {
		return 0
	}
	return m.nvemCache.Len()
}
