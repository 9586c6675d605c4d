package fault

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Policy parameterizes Do: how many attempts and how the backoff between
// them grows.
type Policy struct {
	// MaxAttempts is the total number of attempts, first try included
	// (≤ 0 → 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (≤ 0 → 2ms); each
	// subsequent backoff doubles, with ±50% jitter.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (≤ 0 → 250ms).
	MaxDelay time.Duration
}

// WithDefaults resolves zero fields to the package defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retry n (n = 1 for the first retry):
// BaseDelay·2^(n−1) capped at MaxDelay, with ±50% jitter so synchronized
// retry storms across workers spread out.
func (p Policy) backoff(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(2*half))
}

// Do runs fn under the policy: up to MaxAttempts attempts with exponential
// backoff between them. Panics inside fn (including injected ones) are
// recovered into errors and retried like any failure. onResult, when
// non-nil, observes every attempt's outcome in order (attempt numbering
// from 1) — the hook the circuit breaker and the retry metrics hang off. Do
// stops early when ctx is done, returning the context error (a cancelled
// tuning session must not sit out backoff sleeps).
func Do[T any](ctx context.Context, p Policy, fn func() (T, error), onResult func(attempt int, err error)) (T, error) {
	p = p.WithDefaults()
	var zero T
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		v, err := recovered(fn)
		if onResult != nil {
			onResult(attempt, err)
		}
		if err == nil {
			return v, nil
		}
		lastErr = err
		if attempt == p.MaxAttempts {
			break
		}
		select {
		case <-time.After(p.backoff(attempt)):
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	return zero, fmt.Errorf("fault: %d attempts failed: %w", p.MaxAttempts, lastErr)
}

// recovered invokes fn, converting a panic (e.g. an injected one) into an
// error so the retry loop and the circuit breaker see a plain failure.
func recovered[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("fault: recovered panic: %w", e)
			} else {
				err = fmt.Errorf("fault: recovered panic: %v", r)
			}
		}
	}()
	return fn()
}
