package broker

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"

	"marketminer/internal/feed"
)

// The chunked stores must be indistinguishable from the flat slices
// they replaced: every read window of the partition log and the
// subscriber's retained stream equal the same window of a flat copy,
// in particular where a window starts at, ends at or straddles a chunk
// boundary.
func TestChunkedStoresEqualFlatSlices(t *testing.T) {
	const n = 2*chunkSize + 37
	flat := make([]feed.Signal, n)
	for i := range flat {
		flat[i] = feed.Signal{Offset: uint64(i + 1), Pair: uint32(i % 91), S: uint32(i / 91), C: float64(i) / 7, Cbar: float64(i) / 11}
	}

	log := newPartitionLog(false)
	for lo := 0; lo < n; lo += 91 { // one interval's signals per batch
		batch := make([]feed.Signal, 0, 91)
		for _, sg := range flat[lo:min(lo+91, n)] {
			sg.Offset = 0 // the log assigns offsets
			batch = append(batch, sg)
		}
		log.appendBatch(lo/91, batch)
	}
	if got := log.end(); got != n {
		t.Fatalf("log end %d, want %d", got, n)
	}

	edges := []int{0, 1, 511, 512, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize - 1, 2 * chunkSize, n - 1}
	for _, lo := range edges {
		for _, max := range []int{1, 2, 512, chunkSize, chunkSize + 1, 1 << 30} {
			got, drained := log.read(uint64(lo+1), max)
			want := flat[lo:min(lo+max, n)]
			if drained || !reflect.DeepEqual(got, want) {
				t.Fatalf("read(%d, %d): %d signals (drained %v), first %+v; want %d, first %+v",
					lo+1, max, len(got), drained, got[0], len(want), want[0])
			}
		}
	}
	if got, drained := log.read(n+1, 512); len(got) != 0 || drained {
		t.Errorf("read past the end of an open log: %d signals, drained %v", len(got), drained)
	}
	log.seal()
	if got, drained := log.read(n+1, 512); len(got) != 0 || !drained {
		t.Errorf("read past the end of a sealed log: %d signals, drained %v", len(got), drained)
	}
	end, latest := log.snapshotLatest()
	if end != n || len(latest) != 91 {
		t.Fatalf("snapshot: end %d with %d pairs, want %d with 91", end, len(latest), n)
	}
	for _, sg := range latest {
		if want := flat[n-1-(n-1-int(sg.Pair))%91]; sg != want {
			t.Fatalf("snapshot pair %d: %+v, want its newest signal %+v", sg.Pair, sg, want)
		}
	}

	// A subscriber retaining the same stream in MaxDelta-sized frames.
	sub, err := NewSubscriber(SubscriberConfig{Group: "g", Member: "m", Dial: func(context.Context) (net.Conn, error) {
		return nil, errors.New("not dialled in this test")
	}})
	if err != nil {
		t.Fatal(err)
	}
	enc := feed.NewEncoder(io.Discard, nil) // acks go nowhere
	for lo := 0; lo < n; lo += 512 {
		frame := &feed.DeltaFrame{Partition: 3, Signals: append([]feed.Signal(nil), flat[lo:min(lo+512, n)]...)}
		if err := sub.applyDelta(enc, frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub.Signals(3); !reflect.DeepEqual(got, flat) {
		t.Fatalf("Signals: %d signals, want the %d delivered", len(got), n)
	}
	if got := sub.Signals(4); got != nil {
		t.Errorf("Signals of an unseen partition: %d signals, want nil", len(got))
	}
	if st := sub.Stats(); st.Delivered != n || st.Duplicates != 0 || st.Jumps != 0 {
		t.Errorf("stats %+v, want %d delivered and nothing else", st, n)
	}
}
