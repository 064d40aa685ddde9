package gateway

import (
	"sync"
	"time"
)

// maxTenants bounds the bucket table. Reaching it sweeps full (idle)
// buckets; if none is idle, requests from tenants not already in the table
// are shed, so an unbounded tenant-ID stream can neither grow memory nor
// mint itself fresh tokens.
const maxTenants = 16384

// admission is per-tenant token-bucket admission control. Each tenant (an
// X-Tenant header, a client IP, or a wire client ID) refills at rate
// tokens/second up to burst = max(rate, 1); a request takes one token or is
// shed with a retry-after hint of when the next token lands. rate <= 0
// admits everything.
type admission struct {
	rate  float64
	burst float64
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(rate float64) *admission {
	return &admission{
		rate:    rate,
		burst:   max(rate, 1),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// allow takes one token from tenant's bucket. When the bucket is empty it
// returns false plus the delay after which one token will be available.
func (a *admission) allow(tenant string) (bool, time.Duration) {
	if a.rate <= 0 {
		return true, 0
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenant]
	if !ok {
		if len(a.buckets) >= maxTenants {
			a.sweepLocked(now)
			if len(a.buckets) >= maxTenants {
				return false, time.Duration(float64(time.Second) / a.rate)
			}
		}
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	} else {
		b.tokens += a.rate * now.Sub(b.last).Seconds()
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / a.rate * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets that have refilled to burst (idle tenants: they
// shed nothing by being forgotten — a fresh bucket starts full anyway).
func (a *admission) sweepLocked(now time.Time) {
	for t, b := range a.buckets {
		if b.tokens+a.rate*now.Sub(b.last).Seconds() >= a.burst {
			delete(a.buckets, t)
		}
	}
}
