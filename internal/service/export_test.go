package service

import "repro/internal/drift"

// StateWrites returns how many state files the manager has written.
func (m *Manager) StateWrites() int64 { return m.stateWrites.Load() }

// ExpirePool expires the session's retained pool now, as its retention timer
// would once the TTL ran out.
func (m *Manager) ExpirePool(s *Session) {
	s.mu.Lock()
	gen := s.poolGen
	s.disarmPoolExpiry()
	s.mu.Unlock()
	m.expirePool(s, gen)
}

// PoolDistributions returns the template distribution a daemon holds for its
// retained pool and the one the pool's statements parse to (nil without a
// pool).
func (d *Daemon) PoolDistributions() (held, parsed drift.Distribution) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool == nil {
		return d.poolDist, nil
	}
	return d.poolDist, statementDistribution(d.pool.Statements)
}
