package backoff

import (
	"context"
	"testing"
	"time"
)

// TestDelayStopsAtCap: from the coordinator's 50 ms default, the
// delay doubles to the cap and then stays there, however many retries
// follow — the twelfth wait is 2 s, not 102 s, and a thousand doublings
// never overflow.
func TestDelayStopsAtCap(t *testing.T) {
	b := New(50 * time.Millisecond)
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		if b.delay != w*time.Millisecond {
			t.Fatalf("wait %d: delay %v, want %v", i+1, b.delay, w*time.Millisecond)
		}
		b.grow()
	}
	for i := 0; i < 1000; i++ {
		b.grow()
	}
	if b.delay != Max {
		t.Errorf("delay after 1000 more retries %v, want %v", b.delay, Max)
	}

	big := New(5 * time.Second)
	big.grow()
	if big.delay != 5*time.Second {
		t.Errorf("first delay above the cap grew to %v", big.delay)
	}
}

// TestWait: Wait sleeps at least the current delay, and returns false
// promptly once the context is done.
func TestWait(t *testing.T) {
	b := New(2 * time.Millisecond)
	start := time.Now()
	if !b.Wait(context.Background()) {
		t.Fatal("Wait on a live context reported cancellation")
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("Wait returned after %v, want >= 2ms", d)
	}
	if b.delay != 4*time.Millisecond {
		t.Errorf("delay after one wait %v, want 4ms", b.delay)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b = New(time.Hour)
	start = time.Now()
	if b.Wait(ctx) {
		t.Fatal("Wait on a cancelled context reported a full wait")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled Wait took %v", d)
	}
}
