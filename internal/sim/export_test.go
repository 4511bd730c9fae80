package sim

// Pending reports the number of scheduled events (including resource
// wake-ups and deliveries).
func (s *Sim) Pending() int { return s.events.Len() + len(s.lane) - s.laneHead }
