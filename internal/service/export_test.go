package service

import "repro/internal/drift"

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
