package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"marketminer/internal/broker"
)

// TestServeRejectsKillOutsideTheDay: a -kill naming a partition the
// broker does not have, or an interval the day does not reach, is
// refused before anything is served or fed — not a panic mid-day after
// subscribers joined, nor a kill that silently never happens.
func TestServeRejectsKillOutsideTheDay(t *testing.T) {
	cfg := broker.Config{N: 8, Partitions: 4, M: 20, W: 5, D: 0.01}
	for _, spec := range []string{"9@30", "4@30", "1@120", "0@500"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := serve(ctx, cfg, "127.0.0.1:0", 120, 42, 0, spec, 0)
		cancel()
		if err == nil || !strings.Contains(err.Error(), "-kill "+spec) {
			t.Errorf("-kill %s on 4 partitions and 120 intervals: %v, want it refused", spec, err)
		}
	}
}
