package metrics

import (
	"sync"
	"testing"
)

func TestOpsCounterBasics(t *testing.T) {
	c := Counter("test.basic")
	base := c.Value() // counters are process-wide; -count>1 reruns see earlier adds
	c.Inc()
	c.Add(4)
	if got := c.Value() - base; got != 5 {
		t.Fatalf("after Inc+Add(4) moved by %d, want 5", got)
	}
	if again := Counter("test.basic"); again != c {
		t.Fatalf("Counter returned a different instance for the same name")
	}
	found := false
	for _, nc := range Counters() {
		if nc.Name == "test.basic" {
			found = true
			if nc.Value != base+5 {
				t.Fatalf("Counters reports %d, want %d", nc.Value, base+5)
			}
		}
	}
	if !found {
		t.Fatalf("Counters() missing test.basic")
	}
}

func TestOpsCountersSorted(t *testing.T) {
	Counter("test.zz")
	Counter("test.aa")
	all := Counters()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("Counters not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
}

func TestOpsCounterConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	base := Counter("test.concurrent").Value()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				Counter("test.concurrent").Inc()
			}
		}()
	}
	wg.Wait()
	if got := Counter("test.concurrent").Value() - base; got != goroutines*perG {
		t.Fatalf("concurrent count = %d, want %d", got, goroutines*perG)
	}
}
