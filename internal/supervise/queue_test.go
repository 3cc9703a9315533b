package supervise

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestQueueBlockModeLosslessWithBackpressure(t *testing.T) {
	q := NewQueue[int](2, Block)
	ctx := context.Background()
	done := make(chan []int)
	go func() {
		var got []int
		for {
			v, ok := q.Pop(ctx)
			if !ok {
				done <- got
				return
			}
			got = append(got, v)
			time.Sleep(time.Millisecond) // slow consumer forces blocking
		}
	}()
	const n = 50
	for i := 0; i < n; i++ {
		if !q.Push(ctx, i) {
			t.Fatalf("push %d returned false without cancellation", i)
		}
	}
	q.Close()
	got := <-done
	if len(got) != n {
		t.Fatalf("delivered %d, want %d (Block mode must be lossless)", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, FIFO order broken", i, v)
		}
	}
	st := q.Stats()
	if st.Pushed != n || st.Popped != n || st.Dropped != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Blocked == 0 {
		t.Errorf("no backpressure recorded against a slow consumer: %+v", st)
	}
	if st.HighWater < 1 || st.HighWater > 2 {
		t.Errorf("high water %d outside capacity bounds", st.HighWater)
	}
}

func TestQueueBlockModePushCancels(t *testing.T) {
	q := NewQueue[int](1, Block)
	ctx, cancel := context.WithCancel(context.Background())
	q.Push(ctx, 1) // fills the queue; no consumer
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if q.Push(ctx, 2) {
		t.Fatal("push on a full queue with cancelled context returned true")
	}
}

func TestQueueDropNewest(t *testing.T) {
	q := NewQueue[int](2, DropNewest)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if !q.Push(ctx, i) {
			t.Fatal("drop-mode push returned false")
		}
	}
	q.Close()
	var got []int
	for {
		v, ok := q.Pop(ctx)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("kept %v, want the oldest [0 1]", got)
	}
	if st := q.Stats(); st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", st.Dropped)
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue[int](2, DropOldest)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		q.Push(ctx, i)
	}
	q.Close()
	var got []int
	for {
		v, ok := q.Pop(ctx)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("kept %v, want the newest [3 4]", got)
	}
	if st := q.Stats(); st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", st.Dropped)
	}
}

func TestQueuePopCancel(t *testing.T) {
	q := NewQueue[int](1, Block)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, ok := q.Pop(ctx); ok {
		t.Fatal("pop on empty queue with cancelled context returned ok")
	}
}

// TestQueueDropAccountingConcurrentProducers reconciles the drop
// counters with many producers racing each other and a concurrent
// consumer: whatever interleaving the scheduler picks, every offered
// message must be accounted for exactly once.
// TryPop never waits: it reports an empty queue, and a closed and
// drained one, as "nothing now" and counts only what it took.
func TestQueueTryPop(t *testing.T) {
	q := NewQueue[int](4, Block)
	ctx := context.Background()
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop on an empty queue returned %d", v)
	}
	q.Push(ctx, 7)
	q.Push(ctx, 8)
	if v, ok := q.TryPop(); !ok || v != 7 {
		t.Fatalf("TryPop = %d, %v, want 7, true", v, ok)
	}
	q.Close()
	if v, ok := q.TryPop(); !ok || v != 8 {
		t.Fatalf("TryPop after Close = %d, %v, want the queued 8", v, ok)
	}
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop on a drained closed queue returned %d", v)
	}
	if _, ok := q.Pop(ctx); ok {
		t.Fatal("Pop on a drained closed queue reported a message")
	}
	if st := q.Stats(); st.Pushed != 2 || st.Popped != 2 {
		t.Errorf("stats %+v, want 2 pushed and 2 popped", st)
	}
}

func TestQueueDropAccountingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 400
		capacity  = 4
	)
	offered := int64(producers * perProd)
	for _, tc := range []struct {
		name string
		pol  DropPolicy
	}{
		{"DropOldest", DropOldest},
		{"DropNewest", DropNewest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue[int](capacity, tc.pol)
			ctx := context.Background()

			var consumed int64
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				for {
					if _, ok := q.Pop(ctx); !ok {
						return
					}
					consumed++
				}
			}()

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProd; i++ {
						if !q.Push(ctx, p*perProd+i) {
							t.Errorf("drop-mode Push returned false")
							return
						}
					}
				}(p)
			}
			wg.Wait()
			q.Close() // all producers joined: single-owner close
			<-consumerDone

			st := q.Stats()
			if st.Popped != consumed {
				t.Fatalf("Popped=%d but consumer saw %d", st.Popped, consumed)
			}
			if st.HighWater > capacity {
				t.Errorf("HighWater %d exceeds capacity %d", st.HighWater, capacity)
			}
			if st.Blocked != 0 {
				t.Errorf("Blocked=%d in a drop mode", st.Blocked)
			}
			switch tc.pol {
			case DropOldest:
				// Every offer is admitted; admitted = popped + evicted.
				if st.Pushed != offered {
					t.Errorf("Pushed=%d, want %d (DropOldest admits all)", st.Pushed, offered)
				}
				if st.Popped+st.Dropped != st.Pushed {
					t.Errorf("accounting leak: popped %d + dropped %d != pushed %d",
						st.Popped, st.Dropped, st.Pushed)
				}
			case DropNewest:
				// Offers are either admitted or dropped at the door, and
				// everything admitted is eventually popped.
				if st.Pushed+st.Dropped != offered {
					t.Errorf("accounting leak: pushed %d + dropped %d != offered %d",
						st.Pushed, st.Dropped, offered)
				}
				if st.Popped != st.Pushed {
					t.Errorf("drained queue: popped %d != pushed %d", st.Popped, st.Pushed)
				}
			}
		})
	}
}
