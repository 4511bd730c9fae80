package storage

// CacheLen returns the number of cached frames (0 for cacheless units).
func (u *DiskUnit) CacheLen() int {
	if u.cache == nil {
		return 0
	}
	return u.cache.Len()
}

// DirtyFrames counts frames with destages in flight.
func (u *DiskUnit) DirtyFrames() int {
	if u.cache == nil {
		return 0
	}
	n := 0
	u.cache.Each(func(_ PageKey, f cacheFrame) bool {
		if f.dirty {
			n++
		}
		return true
	})
	return n
}
