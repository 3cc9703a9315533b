package farm

import (
	"context"
	"errors"
	"net"
	"os"
	"time"

	"marketminer/internal/metrics"
)

// StandbyConfig configures a warm standby coordinator.
type StandbyConfig struct {
	// Coordinator is the configuration the standby will serve with if
	// promoted. Its JournalPath locates the journal and the manifest
	// the standby tails (shared storage with the primary).
	Coordinator CoordinatorConfig
	// PollEvery is the manifest polling cadence; ≤ 0 means 250ms.
	PollEvery time.Duration
	// TakeoverAfter is how long the manifest's modification time must
	// stand still before the standby declares the primary dead and
	// promotes itself; ≤ 0 means the lease TTL (DefaultLeaseTTL when
	// that is unset too). A manifest that never appears at all counts
	// as silence from the moment the standby starts.
	TakeoverAfter time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// now is the injectable clock (tests); nil means time.Now.
	now func() time.Time
}

// RunStandby tails the primary coordinator's manifest and, on
// sustained silence, promotes itself: it binds a listener via listen
// (deferred so the standby holds no port while the primary is healthy
// — primary and standby can even share an address) and serves the
// same journal under the next epoch. The epoch claim in the manifest
// fences the old primary: if it was merely frozen rather than dead,
// its next durable write fails with ErrFenced and it stands down — the
// journal never takes writes from two coordinators.
//
// The coordinator is built, and its configuration validated, before
// the standby starts watching, and a manifest of another sweep is
// refused on the poll that first reads it: a standby that could never
// serve fails at once instead of after a whole TakeoverAfter of
// silence.
//
// RunStandby returns the promoted coordinator's stats, or a nil stats
// with ctx's error if cancelled while still standing by.
func RunStandby(ctx context.Context, sc StandbyConfig, listen func() (net.Listener, error)) (*CoordStats, error) {
	c, err := NewCoordinator(sc.Coordinator)
	if err != nil {
		return nil, err
	}
	if sc.now != nil {
		c.now = sc.now
	}
	poll := sc.PollEvery
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	ttl := sc.TakeoverAfter
	if ttl <= 0 {
		ttl = c.ttl
	}
	logf := sc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var last time.Time // the manifest's modification time; zero until one is seen
	lastChange := c.now()
	logf("farm: standby watching %s (takeover after %v of silence)", c.manifestPath, ttl)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
		// A missing or damaged manifest is silence; another sweep's is
		// fatal. Stat after the read: its open revalidates the cache.
		m, err := readCoordManifest(c.manifestPath, c.fingerprint)
		if errors.Is(err, errForeignManifest) {
			return nil, err
		}
		if fi, err := os.Stat(c.manifestPath); err == nil && m != nil && !fi.ModTime().Equal(last) {
			last = fi.ModTime()
			lastChange = c.now()
			continue
		}
		if c.now().Sub(lastChange) < ttl {
			continue
		}
		if !last.IsZero() {
			logf("farm: standby: primary manifest (last changed %v) silent for %v; taking over", last, ttl)
		} else {
			logf("farm: standby: no primary manifest ever appeared; taking over after %v", ttl)
		}
		break
	}

	metrics.Counter(MetricCoordTakeovers).Inc()
	l, err := listen()
	if err != nil {
		return nil, err
	}
	return c.Serve(ctx, l)
}
