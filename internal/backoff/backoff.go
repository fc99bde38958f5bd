// Package backoff is the wait between the coordinator's shard
// redispatches: a context-aware sleep whose delay doubles after every
// wait and stops growing at Max.
package backoff

import (
	"context"
	"time"
)

// Max caps the delay. Without a cap a long retry budget waits minutes
// between attempts (50 ms doubled eleven times is 102 s) and the
// doubling eventually overflows time.Duration.
const Max = 2 * time.Second

// Backoff is one retry loop's wait schedule. It is not safe for
// concurrent use; give each loop its own.
type Backoff struct {
	delay time.Duration
}

// New returns a schedule whose first wait is first.
func New(first time.Duration) Backoff {
	return Backoff{delay: first}
}

// Wait sleeps for the current delay and reports true, or returns false
// as soon as ctx is done. Either way the next delay doubles, up to Max;
// a first delay already above Max stays as it is.
func (b *Backoff) Wait(ctx context.Context) bool {
	t := time.NewTimer(b.delay)
	defer t.Stop()
	b.grow()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (b *Backoff) grow() {
	if b.delay < Max {
		b.delay = min(2*b.delay, Max)
	}
}
