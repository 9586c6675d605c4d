package fault

import "sync/atomic"

// The breaker trips once at least breakerMinSamples attempts have been
// recorded and breakerFailureRate of them or more failed: a breaker must
// not trip on the first unlucky call.
const (
	breakerFailureRate = 0.05
	breakerMinSamples  = 64
)

// Breaker is a one-way failure-rate circuit breaker: Record every attempt's
// outcome, and once at least breakerMinSamples attempts have been recorded
// with a failure fraction of breakerFailureRate or more, Tripped flips to
// true and stays there. The tuning pipeline maps a tripped breaker to
// degraded mode — stop searching, return the best design found so far — so
// the breaker deliberately never closes again within a session: a backend
// that already proved flaky mid-search cannot be trusted for the remainder.
//
// A nil Breaker records nothing and never trips. All methods are safe for
// concurrent use by pool workers.
type Breaker struct {
	attempts atomic.Int64
	failures atomic.Int64
	open     atomic.Bool
}

// NewBreaker builds a breaker that trips at a 5% failure rate over at
// least 64 attempts.
func NewBreaker() *Breaker { return &Breaker{} }

// Record observes one attempt outcome and trips the breaker when the
// failure rate crosses the threshold.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	n := b.attempts.Add(1)
	f := b.failures.Load()
	if !ok {
		f = b.failures.Add(1)
	}
	if n >= breakerMinSamples && float64(f) >= breakerFailureRate*float64(n) {
		b.open.Store(true)
	}
}

// Tripped reports whether the breaker has opened.
func (b *Breaker) Tripped() bool { return b != nil && b.open.Load() }

// Counts snapshots the recorded attempts and failures.
func (b *Breaker) Counts() (attempts, failures int64) {
	if b == nil {
		return 0, 0
	}
	return b.attempts.Load(), b.failures.Load()
}
